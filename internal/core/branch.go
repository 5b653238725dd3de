package core

import (
	"daisy/internal/ppc"
	"daisy/internal/vliw"
)

// condSpec names the CR bit a branch tests, after renaming.
type condSpec struct {
	field uint8
	bit   uint8
	sense bool
	ready int // earliest VLIW where the bit is valid
}

// scheduleBranch implements ScheduleBranchCond (Figure A.6) plus the
// unconditional, link-register and count-register cases, with CTR
// renaming (Appendix D) and constant-propagated indirect branches.
func (c *groupCtx) scheduleBranch(p *path, addr uint32, in ppc.Inst) error {
	next := addr + 4

	// bclrl both reads LR (as target) and writes it: delegate this rare
	// form to the interpreter rather than staging the old value.
	if in.Op == ppc.OpBclr && in.LK {
		p.close(vliw.Exit{Kind: vliw.ExitInterp, Target: addr})
		return nil
	}

	// Link update happens unconditionally and in order, before any split.
	if in.LK {
		p.ensureRoomALU(1, addr)
		p.emit(p.last(), vliw.Parcel{Op: vliw.PLI, D: vliw.LR, Imm: int32(next), BaseAddr: addr})
		p.lrKnown, p.lrVal = true, next
		p.lrAvail = p.last() + 1
	}

	// Resolve the runtime target for direct forms.
	direct := func() uint32 {
		if in.AA {
			return uint32(in.Imm)
		}
		return addr + uint32(in.Imm)
	}

	// Unconditional direct branch: just redirect the continuation.
	if in.Op == ppc.OpB {
		tgt := direct()
		p.emitNop(addr)
		if tgt <= addr {
			c.loopHead[tgt] = true
		}
		if c.samePage(tgt) {
			p.cont = tgt
			return nil
		}
		p.close(vliw.Exit{Kind: vliw.ExitOffpage, Target: tgt})
		return nil
	}

	// Build the condition. CTR-decrementing forms first update CTR (a
	// renamed decrement plus an in-order commit) and test the result.
	conds := make([]condSpec, 0, 2) // at most the CTR test and the CR bit
	var ctrCommit *vliw.Parcel
	ctrReady := 0
	if in.Op != ppc.OpBcctr && in.DecrementsCTR() {
		cm, ready, ok := p.renameCTR(p.ctrAvail, func(i int, d vliw.RegRef) vliw.Parcel {
			return vliw.Parcel{Op: vliw.PAddI, D: d, A: p.nameOfCTR(i), Imm: -1}
		}, addr)
		if !ok {
			p.closeToEntry(addr)
			return nil
		}
		ctrCommit, ctrReady = cm, ready
		if p.ctrKnown {
			p.ctrVal--
		}
		cmCR, crReady, ok := p.renameCR2(ready, func(i int, d vliw.RegRef) vliw.Parcel {
			return vliw.Parcel{Op: vliw.PCmpI, D: d, A: p.nameOfCTR(i), Imm: 0}
		}, addr)
		if !ok {
			p.closeToEntry(addr)
			return nil
		}
		conds = append(conds, condSpec{field: cmCR, bit: ppc.CrEQ,
			sense: in.BranchOnCTRZero(), ready: crReady})
	}
	if in.UsesCond() {
		f, b := in.BI/4, in.BI%4
		conds = append(conds, condSpec{field: 0xff, bit: b, sense: in.CondSense(),
			ready: p.crAvail[f]})
		conds[len(conds)-1].field = f // resolved through rename at split time
	}

	// Combine two conditions into one renamed bit: taken iff both hold.
	var cond *condSpec
	switch len(conds) {
	case 0:
		// Unconditional bclr/bcctr.
	case 1:
		cond = &conds[0]
	default:
		cc, ok := c.synthesizeAnd(p, addr, conds[0], conds[1])
		if !ok {
			p.closeToEntry(addr)
			return nil
		}
		cond = cc
	}

	// Determine where the taken side goes.
	taken := c.takenExit(p, addr, in, direct)

	// Place the CTR commit (if any) and the branch in the tail VLIW.
	ready := ctrReady
	if cond != nil {
		ready = max(ready, cond.ready)
	}
	p.ensureIndex(ready, addr)
	if ctrCommit != nil {
		p.ensureRoomALU(1, addr)
		// The branch must sit in the same VLIW as the CTR commit so the
		// bc instruction stays atomic at VLIW boundaries; guarantee
		// branch room before emitting the commit.
		cfg := c.t.Opt.Config
		for !cfg.RoomForBranch(p.lastPV().v) || !p.roomALU(p.last(), 1) {
			p.openVLIW(addr)
		}
		i := p.last()
		ctrCommit.EndsInst = false
		p.emit(i, *ctrCommit)
		p.recordCommit(ctrCommit)
	}

	if cond == nil {
		// Unconditional blr/bctr.
		p.emitNop(addr)
		c.finishUncondIndirect(p, taken)
		return nil
	}

	cfg := c.t.Opt.Config
	for !cfg.RoomForBranch(p.lastPV().v) {
		p.openVLIW(addr)
	}
	i := p.last()
	fieldName := cond.field
	if cond.field < 8 {
		if r := p.nameOfCR(cond.field, i); r.Kind == vliw.RCRF {
			fieldName = r.N
		}
	}
	p.lastPV().v.NBr++

	// Split the tree (AddIfToTreePath) and clone the path.
	tip := p.lastPV().tip
	tip.Cond = c.newCond(vliw.Cond{CRF: fieldName, Bit: cond.bit, Sense: cond.sense})
	// Both arms complete the same branch instruction and so share one
	// pending-commit record set (take it once, before the path clones).
	deoptTag := p.takeDeopt()
	nop := vliw.Parcel{Op: vliw.PNop, EndsInst: true, BaseAddr: addr, Deopt: deoptTag}
	takenNode := c.newNode()
	takenNode.Ops = append(c.growOps(nil), nop)
	fallNode := c.newNode()
	fallNode.Ops = append(c.growOps(nil), nop)
	tip.Taken = takenNode
	tip.Fall = fallNode

	p2 := p.clone()
	p.vs[p.last()].tip = fallNode
	p2.vs[p2.last()].tip = takenNode

	// Interpretive compilation (Chapter 6): follow only the recorded
	// direction; the other side becomes a lazy entry-point exit.
	if guide := c.t.Opt.TraceGuide; guide != nil {
		rec, ok := guide(addr)
		if !ok {
			// End of (or desynchronized from) the recorded trace: close
			// both sides at precise boundaries.
			p.closeLazy(next)
			c.closeTaken(p2, taken)
			return nil
		}
		if rec {
			p2.prob = p.prob
			p.closeLazy(next)
			if taken.kind == takenDirect && c.samePage(taken.addr) {
				p2.cont = taken.addr
				c.paths = append(c.paths, p2)
			} else {
				c.closeTaken(p2, taken)
			}
			return nil
		}
		c.closeTaken(p2, taken)
		p.cont = next
		return nil
	}

	// Branch probability: profile feedback when available, otherwise the
	// backward-taken / forward-not-taken heuristic.
	prob := c.guessTaken(addr, in, taken)
	p2.prob = p.prob * prob
	p.prob = p.prob * (1 - prob)

	// Fall-through side: continue at next.
	p.cont = next
	if taken.loop {
		// Continuing past a loop exit: shrink the window so post-loop
		// code is not pulled into the loop body (§A.1).
		p.count += c.t.Opt.LoopExitPenalty
	}

	// Taken side.
	switch {
	case taken.kind == takenDirect && c.samePage(taken.addr):
		p2.cont = taken.addr
		c.paths = append(c.paths, p2)
	case taken.kind == takenDirect:
		p2.close(vliw.Exit{Kind: vliw.ExitOffpage, Target: taken.addr, Via: taken.origin})
	default:
		p2.close(vliw.Exit{Kind: vliw.ExitIndirect, Via: taken.via})
	}
	return nil
}

// closeTaken closes the taken-side clone with its natural exit.
func (c *groupCtx) closeTaken(p2 *path, taken takenTarget) {
	switch {
	case taken.kind == takenDirect && c.samePage(taken.addr):
		p2.closeLazy(taken.addr)
	case taken.kind == takenDirect:
		p2.close(vliw.Exit{Kind: vliw.ExitOffpage, Target: taken.addr, Via: taken.origin})
	default:
		p2.close(vliw.Exit{Kind: vliw.ExitIndirect, Via: taken.via})
	}
}

type takenTarget struct {
	kind   int // takenDirect or takenIndirect
	addr   uint32
	via    vliw.RegRef
	loop   bool
	origin vliw.RegRef // LR/CTR when a constant-propagated indirect branch
}

const (
	takenDirect = iota
	takenIndirect
)

// takenExit resolves where the branch goes when taken, applying constant
// propagation to indirect branches (returns become direct, §2 and Ch. 6).
func (c *groupCtx) takenExit(p *path, addr uint32, in ppc.Inst, direct func() uint32) takenTarget {
	switch in.Op {
	case ppc.OpBc:
		tgt := direct()
		if tgt <= addr {
			c.loopHead[tgt] = true
			return takenTarget{kind: takenDirect, addr: tgt, loop: true}
		}
		return takenTarget{kind: takenDirect, addr: tgt}
	case ppc.OpBclr:
		if c.t.Opt.InlineReturns && p.lrKnown && !in.LK {
			return takenTarget{kind: takenDirect, addr: p.lrVal &^ 3, origin: vliw.LR}
		}
		return takenTarget{kind: takenIndirect, via: vliw.LR}
	default: // OpBcctr
		if c.t.Opt.InlineReturns && p.ctrKnown {
			return takenTarget{kind: takenDirect, addr: p.ctrVal &^ 3, origin: vliw.CTR}
		}
		return takenTarget{kind: takenIndirect, via: vliw.CTR}
	}
}

// finishUncondIndirect closes the current path with a direct or indirect
// exit for an unconditional blr/bctr.
func (c *groupCtx) finishUncondIndirect(p *path, t takenTarget) {
	if t.kind == takenDirect {
		if c.samePage(t.addr) {
			if t.addr <= p.cont {
				c.loopHead[t.addr] = true
			}
			p.cont = t.addr
			return
		}
		p.close(vliw.Exit{Kind: vliw.ExitOffpage, Target: t.addr, Via: t.origin})
		return
	}
	p.close(vliw.Exit{Kind: vliw.ExitIndirect, Via: t.via})
}

// guessTaken estimates the probability the branch at addr is taken.
func (c *groupCtx) guessTaken(addr uint32, in ppc.Inst, t takenTarget) float64 {
	if c.t.Opt.ProfileProb != nil {
		if pr, ok := c.t.Opt.ProfileProb(addr); ok {
			return pr
		}
	}
	if in.DecrementsCTR() && !in.BranchOnCTRZero() {
		return 0.9 // bdnz: loop almost always continues
	}
	if t.kind == takenDirect && t.loop {
		return 0.8 // backward conditional branches are loops
	}
	return 0.3
}

// renameCR2 is renameCR without an architected destination: it computes a
// scratch condition field (used for CTR tests and condition synthesis) and
// returns the field number.
func (p *path) renameCR2(earliest int, mk mkParcel, addr uint32) (field uint8, ready int, ok bool) {
	p.ensureIndex(earliest, addr)
	grew := false
	for v := earliest; ; v++ {
		p.c.t.Stats.WorkUnits++
		if v > p.last() {
			if grew {
				return 0, 0, false
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
				return 0, 0, false
			}
			continue
		}
		par := mk(v, reg)
		par.Spec = true
		par.BaseAddr = addr
		p.emit(v, par)
		p.allocate(reg, v)
		p.scratch = append(p.scratch, reg)
		return reg.N, v + 1, true
	}
}

// synthesizeAnd combines two condition specs into a single renamed CR bit
// that is set exactly when both branch conditions hold (needed for the
// decrement-and-test-condition bc forms).
func (c *groupCtx) synthesizeAnd(p *path, addr uint32, a, b condSpec) (*condSpec, bool) {
	// Normalize each input to a positive bit, negating via crnor x,x.
	norm := func(s condSpec) (uint8, uint8, int, bool) {
		if s.sense {
			return s.field, s.bit, s.ready, true
		}
		f, ready, ok := p.renameCR2(s.ready, func(i int, d vliw.RegRef) vliw.Parcel {
			src := vliw.CRF(s.field)
			if s.field < 8 {
				if r := p.nameOfCR(s.field, i); r.Kind == vliw.RCRF {
					src = r
				}
			}
			return vliw.Parcel{Op: vliw.PCrnor, D: d, A: src, B: src,
				BD: 0, BA: s.bit, BB: s.bit}
		}, addr)
		return f, 0, ready, ok
	}
	fa, ba, ra, ok := norm(a)
	if !ok {
		return nil, false
	}
	fb, bb, rb, ok := norm(b)
	if !ok {
		return nil, false
	}
	f, ready, ok := p.renameCR2(max(ra, rb), func(i int, d vliw.RegRef) vliw.Parcel {
		srcA := vliw.CRF(fa)
		if fa < 8 {
			if r := p.nameOfCR(fa, i); r.Kind == vliw.RCRF {
				srcA = r
			}
		}
		srcB := vliw.CRF(fb)
		if fb < 8 {
			if r := p.nameOfCR(fb, i); r.Kind == vliw.RCRF {
				srcB = r
			}
		}
		return vliw.Parcel{Op: vliw.PCrand, D: d, A: srcA, B: srcB,
			BD: 0, BA: ba, BB: bb}
	}, addr)
	if !ok {
		return nil, false
	}
	return &condSpec{field: f, bit: 0, sense: true, ready: ready}, true
}
