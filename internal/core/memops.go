package core

import (
	"daisy/internal/ppc"
	"daisy/internal/vliw"
)

// memSize returns the access width and sign-extension for a load/store.
func memAttrs(op ppc.Opcode) (size uint8, signed bool) {
	switch op {
	case ppc.OpLbz, ppc.OpLbzu, ppc.OpLbzx, ppc.OpStb, ppc.OpStbu, ppc.OpStbx:
		return 1, false
	case ppc.OpLhz, ppc.OpLhzu, ppc.OpLhzx, ppc.OpSth, ppc.OpSthu, ppc.OpSthx:
		return 2, false
	case ppc.OpLha:
		return 2, true
	default:
		return 4, false
	}
}

func isIndexed(op ppc.Opcode) bool {
	switch op {
	case ppc.OpLwzx, ppc.OpLbzx, ppc.OpLhzx, ppc.OpStwx, ppc.OpStbx, ppc.OpSthx:
		return true
	}
	return false
}

// scheduleLoad places a non-update load. Loads may move above earlier
// stores (speculation with load-verify) unless disabled; a load that does
// not move above any store is an ordinary (possibly renamed) operation.
func (c *groupCtx) scheduleLoad(p *path, addr uint32, in ppc.Inst) {
	size, signed := memAttrs(in.Op)
	indexed := isIndexed(in.Op)
	dest := uint8(in.RT)

	earliest := p.availBase(uint8(in.RA))
	if indexed {
		earliest = max(earliest, p.availGPR(uint8(in.RB)))
	}

	// Must-alias forwarding: a word load from exactly the address of the
	// latest word store becomes a copy of the stored value (§5, the
	// "simple alias analysis" of the implementation).
	if c.t.Opt.StoreForwarding && !indexed && size == 4 {
		if s := p.lastSt; s.valid && s.size == 4 && s.disp == in.Imm &&
			s.base == baseIdx(in.RA) &&
			(s.base == -1 || s.baseVer == p.gprVer[s.base]) &&
			s.valVer == p.gprVer[s.val] {
			val := uint8(s.val)
			c.simpleGPR(p, addr, dest, p.availGPR(val), false,
				func(i int, d vliw.RegRef) vliw.Parcel {
					return vliw.Parcel{Op: vliw.PCopy, D: d, A: p.nameOfGPR(val, i)}
				})
			return
		}
	}

	if !c.t.Opt.SpeculateLoads {
		// Conservative mode: loads never bypass a store.
		earliest = max(earliest, p.lastStore+1)
	}

	mk := func(i int, d vliw.RegRef) vliw.Parcel {
		par := vliw.Parcel{Op: vliw.PLoad, D: d, Size: size, Signed: signed}
		par.A = p.baseOrZero(uint8(in.RA), i)
		if indexed {
			par.B = p.nameOfGPR(uint8(in.RB), i)
			par.Indexed = true
		} else {
			par.Imm = in.Imm
		}
		return par
	}

	// Out-of-order placement with a memory slot and a rename register.
	t := c.t
	p.ensureIndex(earliest, addr)
	for v := earliest; v < p.last(); v++ {
		t.Stats.WorkUnits++
		if !t.Opt.Config.RoomForMem(p.vs[v].v) {
			continue
		}
		reg := p.freeRenameGPR(v)
		if reg.Kind == vliw.RNone {
			continue
		}
		bypass := v <= p.lastStore
		par := mk(v, reg)
		par.Spec = true
		par.SpecLoad = bypass
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		rec := p.c.newRec(renameRec{reg: reg, ready: v + 1})
		p.installGPRRename(dest, rec, v)
		if !t.Opt.PreciseExceptions {
			p.addDeopt(vliw.GPR(dest), reg, addr, bypass)
			if bypass {
				// No inline commit will carry the verify; record the
				// obligation so the check still runs in the bypassed
				// stores' window even if this rename is superseded.
				p.pendVer = append(p.pendVer, pendVerify{reg: reg,
					min: max(v+1, p.lastStore+1), addr: addr})
			}
			p.emitNop(addr)
			return
		}
		cm := &vliw.Parcel{Op: vliw.PCopy, D: vliw.GPR(dest), A: reg,
			Verify: bypass, BaseAddr: addr}
		ready := v + 1
		if bypass {
			// The verify commit must observe the bypassed store's value:
			// strictly after the store's VLIW.
			ready = max(ready, p.lastStore+1)
		}
		p.placeCommits([]*vliw.Parcel{cm}, ready, addr)
		return
	}

	// In order at the tail. A direct (unrenamed) load cannot share a VLIW
	// with an earlier store: loads read pre-store memory.
	p.ensureIndex(max(earliest, p.lastStore+1), addr)
	p.ensureRoomMem(addr)
	i := p.last()
	par := mk(i, vliw.GPR(dest))
	par.BaseAddr = addr
	par.EndsInst = true
	p.emit(i, par)
	p.vs[i].gmap[dest] = nil
	p.gprAvail[dest] = i + 1
	p.bumpVer(dest)
}

func baseIdx(r ppc.Reg) int {
	if r == 0 {
		return -1
	}
	return int(r)
}

// scheduleLoadUpdate cracks lwzu-style loads into a load and a base
// update, committed atomically.
func (c *groupCtx) scheduleLoadUpdate(p *path, addr uint32, in ppc.Inst) error {
	size, signed := memAttrs(in.Op)
	dest := uint8(in.RT)
	base := uint8(in.RA)
	earliest := p.availGPR(base)
	if c.t.Opt.SpeculateLoads {
		// keep earliest
	} else {
		earliest = max(earliest, p.lastStore+1)
	}

	if p.freeRenameGPR(p.last()).Kind == vliw.RNone {
		p.closeToEntry(addr)
		return nil
	}

	// The load, always renamed (load-verify applies as usual).
	t := c.t
	p.ensureIndex(earliest, addr)
	var cmLoad *vliw.Parcel
	readyLoad := 0
	placed := false
	grew := false
	for v := earliest; ; v++ {
		t.Stats.WorkUnits++
		if v > p.last() {
			if grew {
				break
			}
			p.openVLIW(addr)
			grew = true
		}
		if !t.Opt.Config.RoomForMem(p.vs[v].v) {
			continue
		}
		reg := p.freeRenameGPR(v)
		if reg.Kind == vliw.RNone {
			continue
		}
		bypass := v <= p.lastStore
		par := vliw.Parcel{Op: vliw.PLoad, D: reg, A: p.nameOfGPR(base, v),
			Imm: in.Imm, Size: size, Signed: signed,
			Spec: true, SpecLoad: bypass, BaseAddr: addr}
		p.emit(v, par)
		p.allocate(reg, v)
		rec := p.c.newRec(renameRec{reg: reg, ready: v + 1})
		p.installGPRRename(dest, rec, v)
		if !t.Opt.PreciseExceptions {
			p.addDeopt(vliw.GPR(dest), reg, addr, bypass)
			if bypass {
				p.pendVer = append(p.pendVer, pendVerify{reg: reg,
					min: max(v+1, p.lastStore+1), addr: addr})
			}
		}
		cmLoad = &vliw.Parcel{Op: vliw.PCopy, D: vliw.GPR(dest), A: reg,
			Verify: bypass, BaseAddr: addr}
		readyLoad = v + 1
		if bypass {
			readyLoad = max(readyLoad, p.lastStore+1)
		}
		placed = true
		break
	}
	if !placed {
		p.closeToEntry(addr)
		return nil
	}

	// The base update.
	cmUpd, readyUpd, ok := p.renameGPR(base, p.availGPR(base), false,
		func(i int, d vliw.RegRef) vliw.Parcel {
			return vliw.Parcel{Op: vliw.PAddI, D: d, A: p.nameOfGPR(base, i), Imm: in.Imm}
		}, addr)
	if !ok {
		p.closeToEntry(addr)
		return nil
	}
	if !c.t.Opt.PreciseExceptions {
		p.emitNop(addr)
	} else {
		p.placeCommits([]*vliw.Parcel{cmLoad, cmUpd}, max(readyLoad, readyUpd), addr)
	}
	return c.fallthrough_(p, addr+4)
}

// wait: the update primitive reads the OLD base value; renameGPR's mk uses
// nameOfGPR(base, i) AFTER installGPRRename for the load did not touch
// base, so the name is still the old one. (The load's rename record is for
// dest, not base.)

// scheduleStore places a store: always in order at the path tail, after
// any VLIW already holding a store keeps program store order (stores in
// one VLIW apply in parcel order, which is program order).
func (c *groupCtx) scheduleStore(p *path, addr uint32, in ppc.Inst) {
	size, _ := memAttrs(in.Op)
	indexed := isIndexed(in.Op)
	src := uint8(in.RT)

	// This store closes the verify window of every bypassing load still
	// outstanding: their checks must read memory before this store lands.
	p.dischargeVerifies(addr)

	earliest := max(p.availGPR(src), p.availBase(uint8(in.RA)))
	if indexed {
		earliest = max(earliest, p.availGPR(uint8(in.RB)))
	}
	p.ensureIndex(earliest, addr)
	p.ensureRoomMem(addr)
	i := p.last()
	par := vliw.Parcel{Op: vliw.PStore, D: p.nameOfGPR(src, i), Size: size,
		BaseAddr: addr, EndsInst: true}
	par.A = p.baseOrZero(uint8(in.RA), i)
	if indexed {
		par.B = p.nameOfGPR(uint8(in.RB), i)
		par.Indexed = true
	} else {
		par.Imm = in.Imm
	}
	p.emit(i, par)
	p.lastStore = i

	if indexed {
		p.lastSt = storeRec{} // unknown address: kills forwarding
	} else {
		p.lastSt = storeRec{valid: true, base: baseIdx(in.RA),
			disp: in.Imm, size: size, val: int(src), valVer: p.gprVer[src]}
		if in.RA != 0 {
			p.lastSt.baseVer = p.gprVer[in.RA]
		}
	}
}

// scheduleStoreUpdate cracks stwu-style stores: the effective address is
// computed into a rename, the store uses it, and the base register commit
// lands in the store's VLIW (atomic).
func (c *groupCtx) scheduleStoreUpdate(p *path, addr uint32, in ppc.Inst) error {
	size, _ := memAttrs(in.Op)
	src := uint8(in.RT)
	base := uint8(in.RA)

	cmEA, readyEA, ok := p.renameGPR(base, p.availGPR(base), false,
		func(i int, d vliw.RegRef) vliw.Parcel {
			return vliw.Parcel{Op: vliw.PAddI, D: d, A: p.nameOfGPR(base, i), Imm: in.Imm}
		}, addr)
	if !ok {
		p.closeToEntry(addr)
		return nil
	}

	// The store reads the renamed EA; it needs a memory slot and must sit
	// with the base commit.
	p.dischargeVerifies(addr)
	earliest := max(readyEA, p.availGPR(src))
	p.ensureIndex(earliest, addr)
	cfg := c.t.Opt.Config
	for !cfg.RoomForMem(p.lastPV().v) || !p.roomALU(p.last(), 1) {
		p.openVLIW(addr)
	}
	i := p.last()
	eaName := p.nameOfGPR(base, i) // the rename (commit not yet placed)
	p.emit(i, vliw.Parcel{Op: vliw.PStore, D: p.nameOfGPR(src, i),
		A: eaName, Imm: 0, Size: size, BaseAddr: addr})
	p.lastStore = i
	p.lastSt = storeRec{} // the forwarding log keys on RA+disp; skip update forms

	if !c.t.Opt.PreciseExceptions {
		p.emitNop(addr)
		return c.fallthrough_(p, addr+4)
	}
	cmEA.EndsInst = true
	p.emit(i, *cmEA)
	p.recordCommit(cmEA)
	return c.fallthrough_(p, addr+4)
}

// scheduleMultiple handles lmw/stmw, the subset's restartable CISC
// instructions (§3.6): accesses are emitted in order; a fault mid-way is
// fine because the architecture allows partial completion with restart.
func (c *groupCtx) scheduleMultiple(p *path, addr uint32, in ppc.Inst) {
	load := in.Op == ppc.OpLmw
	base := uint8(in.RA)
	disp := in.Imm
	if !load {
		p.dischargeVerifies(addr)
	}
	for r := int(in.RT); r < 32; r++ {
		p.ensureIndex(max(p.availBase(base), p.lastStore+1), addr)
		p.ensureRoomMem(addr)
		i := p.last()
		par := vliw.Parcel{Size: 4, Imm: disp, BaseAddr: addr,
			A: p.baseOrZero(base, i)}
		if load {
			par.Op = vliw.PLoad
			par.D = vliw.GPR(uint8(r))
		} else {
			par.Op = vliw.PStore
			par.D = p.nameOfGPR(uint8(r), i)
		}
		par.EndsInst = r == 31
		p.emit(i, par)
		if load {
			p.vs[i].gmap[r] = nil
			p.gprAvail[r] = i + 1
			p.bumpVer(uint8(r))
		} else {
			p.lastStore = i
			p.lastSt = storeRec{}
		}
		disp += 4
	}
}
