package core

import (
	"math/bits"

	"daisy/internal/vliw"
)

// renameRec is one renaming: an architected resource whose value lives in
// a non-architected register. A record is never written after it is made,
// so paths cloned at a branch share their records; whether a record still
// waits for its commit is state of each path (path.pend).
type renameRec struct {
	reg   vliw.RegRef
	ready int  // earliest VLIW index that can read the rename (producer + 1)
	ca    bool // the rename carries a carry extender bit
}

// pvliw is a path's view of one VLIW on it: the shared VLIW, the node
// where this path's operations at that position go, and the rename maps
// in effect there (the per-path per-VLIW map of §A.1).
type pvliw struct {
	v    *vliw.VLIW
	tip  *vliw.Node
	gmap [32]*renameRec // architected GPR -> rename (nil: identity)
	cmap [8]*renameRec  // architected CR field -> rename
	ctr  *renameRec     // CTR rename (Appendix D)
}

// Bits of path.pend: bit r for GPR r, pendCR+f for CR field f and pendCTR
// for CTR, in the order a flush commits them.
const (
	pendCR  = 32
	pendCTR = 40
)

// slot returns the rename map entry of the resource pend bit b names.
func (pv *pvliw) slot(b int) **renameRec {
	switch {
	case b < pendCR:
		return &pv.gmap[b]
	case b < pendCTR:
		return &pv.cmap[b-pendCR]
	}
	return &pv.ctr
}

// pendReg returns the architected register pend bit b names.
func pendReg(b int) vliw.RegRef {
	switch {
	case b < pendCR:
		return vliw.GPR(uint8(b))
	case b < pendCTR:
		return vliw.CRF(uint8(b - pendCR))
	}
	return vliw.CTR
}

type constVal struct {
	known bool
	val   uint32
}

type storeRec struct {
	valid   bool
	base    int // architected base register, -1 for the r0 literal zero
	baseVer int
	disp    int32
	size    uint8
	val     int // architected register whose value was stored
	valVer  int
}

// path is one open scheduling path through the group (type T_PATH).
type path struct {
	c    *groupCtx
	vs   []pvliw
	cont uint32
	prob float64

	count     int // instructions scheduled (window budget)
	lastStore int // highest VLIW index containing a program-earlier store

	gprAvail [32]int
	crAvail  [8]int
	lrAvail  int
	ctrAvail int
	caAvail  int // earliest VLIW where the carry chain is current
	lastCmt  int // highest VLIW index holding an architected write

	lrKnown  bool
	lrVal    uint32
	ctrKnown bool
	ctrVal   uint32
	gprConst [32]constVal
	gprVer   [32]int
	lastSt   storeRec // most recent store, for must-alias forwarding

	crArchAvail [8]int // earliest index the ARCHITECTED field is current

	// pend marks the resources whose rename in the path's last VLIW still
	// waits for its commit. Every commit lands in the last VLIW, so a
	// record mapped there is either pending or committed in that VLIW;
	// openVLIW carries forward only the pending ones.
	pend uint64

	// scratch registers (condition-synthesis fields, staged link values)
	// pinned busy in newly opened VLIWs until the instruction finishes.
	scratch []vliw.RegRef

	// deopt accumulates the pending deferred commits created while
	// scheduling the current base instruction (Tier >= 2 only); they are
	// moved into the group table and referenced from the instruction's
	// boundary marker by takeDeopt.
	deopt []vliw.DeoptRec

	// pendVer holds deferred-commit load-verify obligations: each bypassing
	// speculative load must have its verify executed after the stores it
	// bypassed commit and before any later store commits — even when its
	// architected commit is superseded by a newer rename (its value was
	// still consumed speculatively). Discharged at the next store or at the
	// path-close flush, whichever comes first.
	pendVer []pendVerify
}

// pendVerify is one outstanding load-verify obligation.
type pendVerify struct {
	reg  vliw.RegRef // the load's rename (the executor's spec record key)
	min  int         // earliest legal VLIW index: after producer and bypassed stores
	addr uint32      // the load's base address, for alias observers
}

func newPath(c *groupCtx, cont uint32) *path {
	p := c.takePath()
	*p = path{c: c, vs: c.takeVS(), cont: cont, prob: 1, lastStore: -1,
		scratch: p.scratch[:0], deopt: p.deopt[:0], pendVer: p.pendVer[:0]}
	return p
}

func (p *path) last() int      { return len(p.vs) - 1 }
func (p *path) lastPV() *pvliw { return &p.vs[len(p.vs)-1] }

// openVLIW appends a fresh VLIW to the path. entryBase is the address of
// the base instruction being scheduled — the precise resume point if the
// new VLIW ever rolls back.
func (p *path) openVLIW(entryBase uint32) {
	c := p.c
	v := c.newVLIW(len(c.vliws), entryBase)
	c.vliws = append(c.vliws, v)

	pv := pvliw{v: v, tip: v.Root}
	idx := len(p.vs)
	if idx > 0 {
		prev := &p.vs[idx-1]
		// Chain the previous tip to the new VLIW.
		prev.tip.Exit = vliw.Exit{Kind: vliw.ExitNext, Next: v}
		// Inherit renames that are still pending, and mark their registers
		// busy here.
		for m := p.pend; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if rec := *prev.slot(b); rec != nil {
				*pv.slot(b) = rec
				markBusy(v, rec.reg)
			} else {
				p.pend &^= 1 << b
			}
		}
		for _, r := range p.scratch {
			markBusy(v, r)
		}
		// A rename with an undischarged verify obligation must survive
		// (unrecycled) until the verify parcel reads it, even if its
		// rename record has since been superseded.
		for _, ob := range p.pendVer {
			markBusy(v, ob.reg)
		}
	}
	p.vs = append(p.vs, pv)
}

func markBusy(v *vliw.VLIW, r vliw.RegRef) {
	switch r.Kind {
	case vliw.RGPR:
		if r.N >= vliw.FirstNonArchGPR {
			v.FreeGPR &^= 1 << (r.N - vliw.FirstNonArchGPR)
		}
	case vliw.RCRF:
		if r.N >= vliw.FirstNonArchCRF {
			v.FreeCRF &^= 1 << (r.N - vliw.FirstNonArchCRF)
		}
	}
}

// clone duplicates the path at a conditional branch (CopyPath). Rename
// records are immutable, so the copy shares them; a later commit on one
// path clears only that path's pending bit.
func (p *path) clone() *path {
	c := p.c
	c.t.Stats.PathClones++
	q := c.takePath()
	scratch, deopt, pendVer := q.scratch, q.deopt, q.pendVer
	*q = *p
	q.vs = append(c.takeVS(), p.vs...)
	q.scratch = append(scratch[:0], p.scratch...)
	q.deopt = append(deopt[:0], p.deopt...)
	q.pendVer = append(pendVer[:0], p.pendVer...)
	return q
}

// nameOfGPR returns the register holding architected GPR r's value at
// VLIW index i on this path. A record mapped at i is pending there or
// committed in i itself, whose parcels still read the rename.
func (p *path) nameOfGPR(r uint8, i int) vliw.RegRef {
	if rec := p.vs[i].gmap[r]; rec != nil {
		return rec.reg
	}
	return vliw.GPR(r)
}

// baseOrZero maps a D-form RA field: RA=0 reads as literal zero.
func (p *path) baseOrZero(r uint8, i int) vliw.RegRef {
	if r == 0 {
		return vliw.None
	}
	return p.nameOfGPR(r, i)
}

// nameOfCR is nameOfGPR for condition fields.
func (p *path) nameOfCR(f uint8, i int) vliw.RegRef {
	if rec := p.vs[i].cmap[f]; rec != nil {
		return rec.reg
	}
	return vliw.CRF(f)
}

func (p *path) nameOfCTR(i int) vliw.RegRef {
	if rec := p.vs[i].ctr; rec != nil {
		return rec.reg
	}
	return vliw.CTR
}

// availGPR returns the earliest index an op reading GPR r can occupy.
func (p *path) availGPR(r uint8) int { return p.gprAvail[r] }

// availBase is availGPR with the RA=0 convention.
func (p *path) availBase(r uint8) int {
	if r == 0 {
		return 0
	}
	return p.gprAvail[r]
}

// freeRenameGPR finds a non-architected GPR free in every VLIW from i to
// the end of the path, or RNone.
func (p *path) freeRenameGPR(i int) vliw.RegRef {
	m := uint32(0xffffffff)
	for j := i; j < len(p.vs); j++ {
		m &= p.vs[j].v.FreeGPR
	}
	if m == 0 {
		return vliw.None
	}
	return vliw.GPR(vliw.FirstNonArchGPR + uint8(bits.TrailingZeros32(m)))
}

func (p *path) freeRenameCR(i int) vliw.RegRef {
	m := uint8(0xff)
	for j := i; j < len(p.vs); j++ {
		m &= p.vs[j].v.FreeCRF
	}
	if m == 0 {
		return vliw.None
	}
	return vliw.CRF(vliw.FirstNonArchCRF + uint8(bits.TrailingZeros8(m)))
}

// allocate reserves reg in VLIWs i..last of the path.
func (p *path) allocate(reg vliw.RegRef, i int) {
	for j := i; j < len(p.vs); j++ {
		markBusy(p.vs[j].v, reg)
	}
}

// roomALU reports whether VLIW index i can take n more ALU parcels.
func (p *path) roomALU(i, n int) bool {
	cfg := p.c.t.Opt.Config
	v := p.vs[i].v
	return v.NALU+n <= cfg.ALU && v.NALU+v.NMem+n <= cfg.Issue
}

// ensureRoomALU opens new VLIWs until the tail can take n more ALU
// parcels. entryBase seeds any VLIW it opens.
func (p *path) ensureRoomALU(n int, entryBase uint32) {
	for !p.roomALU(p.last(), n) {
		p.openVLIW(entryBase)
	}
}

func (p *path) ensureRoomMem(entryBase uint32) {
	cfg := p.c.t.Opt.Config
	for !cfg.RoomForMem(p.lastPV().v) {
		p.openVLIW(entryBase)
	}
}

// ensureIndex opens VLIWs until the path has an index idx.
func (p *path) ensureIndex(idx int, entryBase uint32) {
	for p.last() < idx {
		p.openVLIW(entryBase)
	}
}

// emit appends a parcel to the path's node in VLIW i and charges resources.
func (p *path) emit(i int, par vliw.Parcel) {
	pv := &p.vs[i]
	if len(pv.tip.Ops) == cap(pv.tip.Ops) {
		pv.tip.Ops = p.c.growOps(pv.tip.Ops)
	}
	pv.tip.Ops = append(pv.tip.Ops, par)
	switch {
	case par.Op == vliw.PNop:
		// bookkeeping only
	case par.Op.IsMem():
		pv.v.NMem++
	default:
		pv.v.NALU++
	}
	if par.IsCommitLike() && i > p.lastCmt {
		p.lastCmt = i
	}
	p.c.t.Stats.Parcels++
	p.c.g.Parcels++
}

// emitNop appends a zero-resource boundary marker completing the base
// instruction at addr (used for branches and sc, whose completion has no
// architected register write of its own). In deferred-commit mode the
// marker also carries the instruction's pending-commit records.
func (p *path) emitNop(addr uint32) {
	p.emit(p.last(), vliw.Parcel{Op: vliw.PNop, EndsInst: true, BaseAddr: addr, Deopt: p.takeDeopt()})
}

// addDeopt records one pending deferred commit created by the base
// instruction currently being scheduled: arch's value will sit in ren
// until the path-close flush. Only tier-2 translations pay for the
// metadata; tier-1 imprecise mode recovers via checkpoint alone.
func (p *path) addDeopt(arch, ren vliw.RegRef, addr uint32, verify bool) {
	if p.c.t.Opt.Tier < 2 {
		return
	}
	p.deopt = append(p.deopt, vliw.DeoptRec{Arch: arch, Ren: ren, Addr: addr, Verify: verify})
}

// takeDeopt moves the accumulated pending-commit records into the group
// table and returns the Parcel.Deopt tag (1+index; 0 when none) for the
// instruction's boundary marker.
func (p *path) takeDeopt() int32 {
	if len(p.deopt) == 0 {
		return 0
	}
	g := p.c.g
	g.Deopt = append(g.Deopt, append([]vliw.DeoptRec(nil), p.deopt...))
	p.deopt = p.deopt[:0]
	return int32(len(g.Deopt))
}

// mkParcel builds a parcel for a given placement index (so sources can be
// renamed per index) and destination register.
type mkParcel func(i int, d vliw.RegRef) vliw.Parcel

// install records that the resource of pend bit b lives in rec.reg from
// index v+1 until its commit.
func (p *path) install(b int, rec *renameRec, v int) {
	for j := v; j < len(p.vs); j++ {
		*p.vs[j].slot(b) = rec
	}
	p.pend |= 1 << b
}

func (p *path) installGPRRename(dest uint8, rec *renameRec, v int) {
	p.install(int(dest), rec, v)
	p.gprAvail[dest] = v + 1
	p.bumpVer(dest)
}

func (p *path) installCRRename(dest uint8, rec *renameRec, v int) {
	p.install(pendCR+int(dest), rec, v)
	p.crAvail[dest] = v + 1
}

func (p *path) bumpVer(r uint8) {
	p.gprVer[r]++
	p.gprConst[r] = constVal{}
}

// renameGPR places a compute parcel for architected GPR dest at the
// earliest possible index, always into a rename register (growing the path
// by at most one VLIW if needed). It returns the pending commit parcel and
// the index at which the commit's source is ready. ok=false means the
// rename pool is exhausted.
func (p *path) renameGPR(dest uint8, earliest int, carry bool, mk mkParcel, addr uint32) (commit *vliw.Parcel, ready int, ok bool) {
	if carry && !p.c.t.Opt.PreciseExceptions {
		// Deferred commits never move the carry extender into XER, so a
		// renamed carry would be lost at path exits; keep carry
		// producers in order (the carry goes straight to XER).
		p.inOrderGPR(dest, earliest, carry, mk, addr)
		return nil, p.last() + 1, true
	}
	p.ensureIndex(earliest, addr)
	grew := false
	for v := earliest; ; v++ {
		p.c.t.Stats.WorkUnits++
		if v > p.last() {
			if grew {
				return nil, 0, false
			}
			p.openVLIW(addr)
			grew = true
		}
		if !p.roomALU(v, 1) {
			continue
		}
		reg := p.freeRenameGPR(v)
		if reg.Kind == vliw.RNone {
			if v == p.last() && grew {
				return nil, 0, false
			}
			continue
		}
		par := mk(v, reg)
		par.Spec = true
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		rec := p.c.newRec(renameRec{reg: reg, ready: v + 1, ca: carry})
		p.installGPRRename(dest, rec, v)
		if !p.c.t.Opt.PreciseExceptions {
			p.addDeopt(vliw.GPR(dest), reg, addr, false)
			return nil, v + 1, true // commit deferred to path close
		}
		return p.c.newCommit(vliw.Parcel{Op: vliw.PCopy, D: vliw.GPR(dest), A: reg,
			CommitCA: carry, BaseAddr: addr}), v + 1, true
	}
}

// renameCR is renameGPR for a condition-field destination.
func (p *path) renameCR(dest uint8, earliest int, mk mkParcel, addr uint32) (commit *vliw.Parcel, ready int, ok bool) {
	p.ensureIndex(earliest, addr)
	grew := false
	for v := earliest; ; v++ {
		p.c.t.Stats.WorkUnits++
		if v > p.last() {
			if grew {
				return nil, 0, false
			}
			p.openVLIW(addr)
			grew = true
		}
		if !p.roomALU(v, 1) {
			continue
		}
		reg := p.freeRenameCR(v)
		if reg.Kind == vliw.RNone {
			if v == p.last() && grew {
				return nil, 0, false
			}
			continue
		}
		par := mk(v, reg)
		par.Spec = true
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		rec := p.c.newRec(renameRec{reg: reg, ready: v + 1})
		p.installCRRename(dest, rec, v)
		if !p.c.t.Opt.PreciseExceptions {
			p.addDeopt(vliw.CRF(dest), reg, addr, false)
			return nil, v + 1, true
		}
		return p.c.newCommit(vliw.Parcel{Op: vliw.PCopy, D: vliw.CRF(dest), A: reg, BaseAddr: addr}), v + 1, true
	}
}

// renameCTR renames the count register (Appendix D: without this, every
// decrement-and-branch loop serializes on CTR).
func (p *path) renameCTR(earliest int, mk mkParcel, addr uint32) (commit *vliw.Parcel, ready int, ok bool) {
	p.ensureIndex(earliest, addr)
	grew := false
	for v := earliest; ; v++ {
		p.c.t.Stats.WorkUnits++
		if v > p.last() {
			if grew {
				return nil, 0, false
			}
			p.openVLIW(addr)
			grew = true
		}
		if !p.roomALU(v, 1) {
			continue
		}
		reg := p.freeRenameGPR(v)
		if reg.Kind == vliw.RNone {
			if v == p.last() && grew {
				return nil, 0, false
			}
			continue
		}
		par := mk(v, reg)
		par.Spec = true
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		p.install(pendCTR, p.c.newRec(renameRec{reg: reg, ready: v + 1}), v)
		p.ctrAvail = v + 1
		if !p.c.t.Opt.PreciseExceptions {
			p.addDeopt(vliw.CTR, reg, addr, false)
			return nil, v + 1, true
		}
		return p.c.newCommit(vliw.Parcel{Op: vliw.PCopy, D: vliw.CTR, A: reg, BaseAddr: addr}), v + 1, true
	}
}

// scheduleGPROp schedules a single-architected-write instruction: try the
// out-of-order renamed placement; fall back to an in-order direct write at
// the tail. The returned commit (nil when direct) still has to be placed
// with placeCommits; direct writes are already tagged EndsInst.
func (p *path) scheduleGPROp(dest uint8, earliest int, carry bool, mk mkParcel, addr uint32) (commit *vliw.Parcel, ready int) {
	t := p.c.t
	if carry && !t.Opt.PreciseExceptions {
		p.inOrderGPR(dest, earliest, carry, mk, addr)
		return nil, 0
	}
	p.ensureIndex(earliest, addr)
	for v := earliest; v < p.last(); v++ {
		t.Stats.WorkUnits++
		if !p.roomALU(v, 1) {
			continue
		}
		reg := p.freeRenameGPR(v)
		if reg.Kind == vliw.RNone {
			continue
		}
		par := mk(v, reg)
		par.Spec = true
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		rec := p.c.newRec(renameRec{reg: reg, ready: v + 1, ca: carry})
		p.installGPRRename(dest, rec, v)
		if !t.Opt.PreciseExceptions {
			p.addDeopt(vliw.GPR(dest), reg, addr, false)
			return nil, v + 1
		}
		return p.c.newCommit(vliw.Parcel{Op: vliw.PCopy, D: vliw.GPR(dest), A: reg,
			CommitCA: carry, BaseAddr: addr}), v + 1
	}

	// In order at the tail, writing the architected register directly.
	p.inOrderGPR(dest, earliest, carry, mk, addr)
	return nil, 0
}

// inOrderGPR emits the op at the tail writing its architected register.
func (p *path) inOrderGPR(dest uint8, earliest int, carry bool, mk mkParcel, addr uint32) {
	p.ensureIndex(earliest, addr)
	p.ensureRoomALU(1, addr)
	i := p.last()
	par := mk(i, vliw.GPR(dest))
	par.BaseAddr = addr
	par.EndsInst = p.c.t.Opt.PreciseExceptions // imprecise mode counts via the boundary nop
	p.emit(i, par)
	p.vs[i].gmap[dest] = nil
	p.gprAvail[dest] = i + 1
	p.bumpVer(dest)
	if carry {
		p.caAvail = i + 1
	}
}

// scheduleCROp is scheduleGPROp for compares.
func (p *path) scheduleCROp(dest uint8, earliest int, mk mkParcel, addr uint32) (commit *vliw.Parcel, ready int) {
	t := p.c.t
	p.ensureIndex(earliest, addr)
	for v := earliest; v < p.last(); v++ {
		t.Stats.WorkUnits++
		if !p.roomALU(v, 1) {
			continue
		}
		reg := p.freeRenameCR(v)
		if reg.Kind == vliw.RNone {
			continue
		}
		par := mk(v, reg)
		par.Spec = true
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		rec := p.c.newRec(renameRec{reg: reg, ready: v + 1})
		p.installCRRename(dest, rec, v)
		if !t.Opt.PreciseExceptions {
			p.addDeopt(vliw.CRF(dest), reg, addr, false)
			return nil, v + 1
		}
		return p.c.newCommit(vliw.Parcel{Op: vliw.PCopy, D: vliw.CRF(dest), A: reg, BaseAddr: addr}), v + 1
	}

	p.ensureRoomALU(1, addr)
	i := p.last()
	par := mk(i, vliw.CRF(dest))
	par.BaseAddr = addr
	par.EndsInst = t.Opt.PreciseExceptions
	p.emit(i, par)
	p.vs[i].cmap[dest] = nil
	p.crAvail[dest] = i + 1
	p.crArchAvail[dest] = i + 1
	return nil, 0
}

// placeCommits installs a base instruction's architected writes atomically
// in a single VLIW at the path tail — an instruction's commits are never
// split across a boundary, so every boundary stays a precise instruction
// boundary. ready is the index at which all commit sources are available.
// The final parcel is tagged EndsInst.
func (p *path) placeCommits(commits []*vliw.Parcel, ready int, addr uint32) {
	live := 0
	for _, c := range commits {
		if c != nil {
			live++
		}
	}
	if live == 0 {
		if !p.c.t.Opt.PreciseExceptions {
			p.emitNop(addr) // completion marker for ILP accounting
		}
		return
	}
	p.ensureIndex(ready, addr)
	p.ensureRoomALU(live, addr)
	i := p.last()
	k := 0
	for _, c := range commits {
		if c == nil {
			continue
		}
		k++
		c.EndsInst = k == live
		p.emit(i, *c)
		p.recordCommit(c)
	}
}

// recordCommit notes a commit parcel just emitted in the path's last VLIW:
// the rename it copies out is no longer pending.
func (p *path) recordCommit(c *vliw.Parcel) {
	i := p.last()
	pv := &p.vs[i]
	switch c.D.Kind {
	case vliw.RGPR:
		if rec := pv.gmap[c.D.N]; rec != nil && rec.reg == c.A {
			p.pend &^= 1 << c.D.N
		}
		if c.CommitCA {
			p.caAvail = i + 1
		}
	case vliw.RCRF:
		if c.D.N < 8 {
			if rec := pv.cmap[c.D.N]; rec != nil && rec.reg == c.A {
				p.pend &^= 1 << (pendCR + c.D.N)
			}
			p.crArchAvail[c.D.N] = i + 1
		}
	case vliw.RLR:
		p.lrAvail = i + 1
	case vliw.RCTR:
		if rec := pv.ctr; rec != nil && rec.reg == c.A {
			p.pend &^= 1 << pendCTR
		}
	}
}

// dischargeVerifies materializes every outstanding load-verify obligation
// as a standalone verify parcel (a self-copy of the load's rename, which
// triggers the executor's spec-record check without touching architected
// state). Must run before a new store is emitted — the verify compares
// against memory as of the stores the load bypassed; a later store would
// move the comparison to the wrong generation, turning a genuine alias
// into a false pass (or a correct bypass into a false alias).
func (p *path) dischargeVerifies(addr uint32) {
	for _, ob := range p.pendVer {
		v := ob.min
		p.ensureIndex(v, addr)
		for ; ; v++ {
			if v > p.last() {
				p.openVLIW(addr)
			}
			if p.roomALU(v, 1) {
				break
			}
		}
		p.emit(v, vliw.Parcel{Op: vliw.PCopy, D: ob.reg, A: ob.reg,
			Verify: true, Spec: true, BaseAddr: ob.addr})
	}
	p.pendVer = p.pendVer[:0]
}

// flushDeferredCommits emits commits for every pending rename at the path
// tail (imprecise mode only): architected state must be correct at every
// path exit even without per-instruction commits.
func (p *path) flushDeferredCommits() {
	if p.c.t.Opt.PreciseExceptions {
		return
	}
	p.dischargeVerifies(p.cont)
	for m := p.pend; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		rec := *p.lastPV().slot(b)
		if rec == nil {
			continue
		}
		// Parcels read their VLIW's entry values, so the copy must follow
		// the rename's producer: sharing its VLIW would commit the stale
		// value.
		p.ensureIndex(rec.ready, p.cont)
		p.ensureRoomALU(1, p.cont)
		i := p.last()
		// No Verify here: the obligation machinery has already checked (or
		// is checking, in this same flush) every bypassing load in its own
		// store window; the flush is a plain architected copy.
		d := pendReg(b)
		p.emit(i, vliw.Parcel{Op: vliw.PCopy, D: d, A: rec.reg, CommitCA: rec.ca})
		p.pend &^= 1 << b
		if d.Kind == vliw.RCRF {
			p.crArchAvail[d.N] = i + 1
		}
	}
}

// close terminates the path with the given exit and frees it and its
// VLIW list for reuse. Nothing schedules on a closed path again;
// scheduleOne tells one by its nil VLIW list, which holds because no
// newPath or clone follows a close within one instruction.
func (p *path) close(exit vliw.Exit) {
	p.flushDeferredCommits()
	p.lastPV().tip.Exit = exit
	c := p.c
	c.removePath(p)
	c.putVS(p.vs)
	c.putPath(p)
}

// closeToEntry terminates the path with a branch to a same-page entry
// point, adding it to the group worklist (AddToWorklist, Figure A.2).
func (p *path) closeToEntry(addr uint32) {
	if p.c.t.Opt.TraceGuide != nil {
		p.closeLazy(addr)
		return
	}
	p.c.addWork(addr)
	p.close(vliw.Exit{Kind: vliw.ExitEntry, Target: addr})
}

// closeLazy is closeToEntry without eager worklist translation: the entry
// is created on demand if execution ever arrives (interpretive mode keeps
// cold paths untranslated).
func (p *path) closeLazy(addr uint32) {
	p.close(vliw.Exit{Kind: vliw.ExitEntry, Target: addr})
}
