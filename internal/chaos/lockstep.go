package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/vmm"
)

// lockstep drives the DAISY machine and the reference interpreter over
// the same program side by side, comparing them at every precise point
// the machine exposes:
//
//   - at every Observer.Boundary (each committed VLIW, and each serviced
//     system call) the interpreter is run to the same completed-instruction
//     count and the registers in Exec.RF, the memory units either side
//     wrote and the output bytes appended since the previous comparison
//     are checked;
//   - at every StepGroup return (a group exit to the dispatcher, or a
//     halt) the full architected state is checked, PC included.
//
// Every comparison is O(change), not O(memory) or O(output): both
// memories record the protection units their emulated stores touch, and
// only those units and the output's new bytes are compared. The
// per-boundary check allocates nothing.
func lockstep(sc *Scenario) (*Report, *Divergence, error) {
	ma, ref, entry, err := sc.build()
	if err != nil {
		return nil, nil, err
	}
	ma.Mem.TrackWrites(true)
	ref.Mem.TrackWrites(true)
	defer ma.Close()         // stops any async translation workers
	defer ma.SyncTelemetry() // nil-safe; finalizes the time-split counters

	rep := &Report{}
	c := &checker{ma: ma, ref: ref}
	defer func() { rep.Compares = c.compares }()
	ma.Observe(vmm.OnBoundary(c.boundary))
	ma.Start(entry, sc.maxInsts())
	for {
		halted, merr := ma.StepGroup()
		now := ma.Stats.BaseInsts()
		rep.Insts = now
		rep.Stats = ma.Stats
		rep.Output = ma.Env.Out
		if c.div != nil {
			// A boundary inside this step disagreed; whatever the machine
			// did after it is downstream of the divergence.
			return rep, c.div, nil
		}

		if merr != nil {
			if !errors.Is(merr, vmm.ErrBudget) {
				return nil, nil, fmt.Errorf("chaos: machine failed after %d insts: %w", now, merr)
			}
			// Budget cap: the run is truncated, not diverged — but the
			// states must still agree at the last committed boundary.
			// The machine may have stopped mid-group, so its PC is not
			// meaningful; everything else is.
			if rerr := ref.RunTo(now); rerr != nil {
				return rep, refEnded(c.lastGood, now, ref, rerr), nil
			}
			if d := c.compare(now, true); d != nil {
				return rep, d, nil
			}
			rep.Truncated = true
			return rep, nil, nil
		}

		rerr := ref.RunTo(now)
		if halted {
			rep.Halted = true
			if !errors.Is(rerr, interp.ErrHalt) {
				d := &Divergence{
					Window: [2]uint64{c.lastGood, now},
					Detail: fmt.Sprintf("machine halted after %d insts; reference did not (ref err: %v, ref pc %#x)", now, rerr, ref.St.PC),
				}
				return rep, d, nil
			}
			if ref.InstCount != now {
				d := &Divergence{
					Window: [2]uint64{c.lastGood, now},
					Detail: fmt.Sprintf("machine halted after %d insts; reference halted after %d", now, ref.InstCount),
				}
				return rep, d, nil
			}
			// Halt leaves the two PCs trivially offset (the reference
			// reports the sc itself, the machine the instruction after),
			// so the final comparison skips PC.
			return rep, c.compare(now, true), nil
		}
		if rerr != nil {
			return rep, refEnded(c.lastGood, now, ref, rerr), nil
		}
		if d := c.compare(now, false); d != nil {
			return rep, d, nil
		}
	}
}

func refEnded(lastGood, now uint64, ref *interp.Interp, rerr error) *Divergence {
	what := "faulted"
	if errors.Is(rerr, interp.ErrHalt) {
		what = "halted"
	}
	return &Divergence{
		Window: [2]uint64{lastGood, now},
		Detail: fmt.Sprintf("reference %s after %d insts (%v) while machine continued to %d", what, ref.InstCount, rerr, now),
	}
}

// checker holds the lockstep's comparison state between synchronization
// points.
type checker struct {
	ma  *vmm.Machine
	ref *interp.Interp

	lastGood uint64   // completed instructions at the last agreeing comparison
	outLen   int      // output bytes both sides have been compared on
	units    []uint32 // reused dirty-unit buffer
	compares uint64
	div      *Divergence // the first boundary divergence; later boundaries are not compared
}

// boundary compares the machine's registers, new memory writes and new
// output against the reference at one precise VLIW boundary. PC and the
// machine-state registers are not tracked between dispatches, so they
// are taken from the reference and compared at StepGroup returns instead.
func (c *checker) boundary(completed uint64) {
	if c.div != nil {
		return
	}
	if err := c.ref.RunTo(completed); err != nil {
		c.div = refEnded(c.lastGood, completed, c.ref, err)
		return
	}
	got := c.ref.St
	c.ma.Exec.RF.ToState(&got)
	c.div = c.check(completed, &got)
}

// compare checks the full architected state at a StepGroup return.
func (c *checker) compare(now uint64, skipPC bool) *Divergence {
	got := c.ma.St
	if skipPC {
		got.PC = c.ref.St.PC
	}
	return c.check(now, &got)
}

// check compares got, the machine's state, with the reference's, then
// the memory units either side wrote and the output either side appended
// since the previous comparison. It returns a coarse Divergence (window
// only; the bisector refines it) on mismatch.
func (c *checker) check(now uint64, got *ppc.State) *Divergence {
	c.compares++
	want := &c.ref.St
	if *got != *want {
		d := want.Diff(got)
		return &Divergence{
			Window:  [2]uint64{c.lastGood, now},
			RegDiff: d,
			Detail:  fmt.Sprintf("register state differs at inst %d (ref != machine): %s", now, d),
		}
	}

	ma, ref := c.ma, c.ref
	c.units = ref.Mem.AppendDirtyUnits(ma.Mem.AppendDirtyUnits(c.units[:0]))
	slices.Sort(c.units)
	for _, u := range slices.Compact(c.units) {
		off := ma.Mem.UnitDiff(ref.Mem, u)
		if off < 0 {
			continue
		}
		addr := u<<mem.ProtectShift + uint32(off)
		return &Divergence{
			Window:  [2]uint64{c.lastGood, now},
			MemAddr: addr,
			MemDiff: true,
			Detail: fmt.Sprintf("memory differs at inst %d, addr %#x (ref %#x != machine %#x)",
				now, addr, ref.Mem.Bytes(addr, 1)[0], ma.Mem.Bytes(addr, 1)[0]),
		}
	}

	if len(ma.Env.Out) != len(ref.Env.Out) || !bytes.Equal(ma.Env.Out[c.outLen:], ref.Env.Out[c.outLen:]) {
		return &Divergence{
			Window: [2]uint64{c.lastGood, now},
			Detail: fmt.Sprintf("output streams differ at inst %d (machine %d bytes, ref %d bytes)", now, len(ma.Env.Out), len(ref.Env.Out)),
		}
	}
	c.outLen = len(ma.Env.Out)
	c.lastGood = now
	return nil
}

// memWrite is one reference-side store, recorded during bisection replay.
type memWrite struct {
	addr uint32
	size int
}

// bisect refines a coarse divergence (known only to lie in the window
// (good, bad] of completed instructions) down to the first diverging
// committed VLIW boundary and, from there, to the base instruction that
// produced the wrong value. It replays the scenario twice from scratch —
// injectors rearmed with the same seed, so every disturbance lands on
// the same dynamic event:
//
//  1. The reference replays with per-instruction recording over the
//     window: the full architected state after every instruction, plus
//     the stores it performed.
//  2. The machine replays with a boundary observer. In precise-exception
//     mode every committed VLIW is an exact architected boundary, so at
//     each boundary in the window the machine register file is compared
//     against the recorded reference state at the same count. The first
//     mismatch is the diverging boundary.
//
// Attribution: for each differing register, the reference trace gives
// its last writer in the window; the earliest such writer is the first
// base instruction the machine got wrong (BadPC). A memory-only
// divergence is attributed to the last reference store overlapping the
// differing address. If no writer exists in the window — the machine
// clobbered a register the reference never touched — the window start is
// reported with BadPCOK=false.
func bisect(sc *Scenario, div *Divergence) {
	good, bad := div.Window[0], div.Window[1]
	if bad <= good {
		return
	}

	// Pass 1: reference trace over the window. The machine half of the
	// pair is unused here, but it may have started worker goroutines —
	// shut it down rather than leak them.
	ma1, ref, entry, err := sc.build()
	if err != nil {
		return
	}
	ma1.Close()
	if err := ref.RunTo(good); err != nil {
		return
	}
	n := int(bad - good)
	states := make([]ppc.State, 1, n+1)
	states[0] = ref.St
	writes := make([][]memWrite, 1, n+1)
	defs := make([]uint32, 1, n+1)
	var cur []memWrite
	var curDefs uint32
	ref.OnMem = func(addr uint32, size int, write bool) {
		if write {
			cur = append(cur, memWrite{addr, size})
		}
	}
	ref.Trace = func(pc uint32, in ppc.Inst, st *ppc.State) {
		curDefs = in.DefGPRs()
	}
	for i := 0; i < n; i++ {
		cur, curDefs = nil, 0
		serr := ref.Step()
		states = append(states, ref.St)
		writes = append(writes, cur)
		defs = append(defs, curDefs)
		if serr != nil {
			break
		}
	}

	// Pass 2: machine replay, comparing at every committed VLIW boundary.
	ma, _, entry2, err := sc.build()
	if err != nil || entry2 != entry {
		return
	}
	defer ma.Close()
	found := false
	ma.Observe(vmm.OnBoundary(func(completed uint64) {
		if found || completed <= good || completed > bad {
			return
		}
		idx := int(completed - good)
		if idx >= len(states) {
			return
		}
		want := states[idx]
		got := want
		ma.Exec.RF.ToState(&got)
		if got == want {
			return
		}
		found = true
		div.Boundary = completed
		div.RegDiff = want.Diff(&got)
		div.BadPC, div.BadPCOK = lastRegWriter(states, defs, idx, &want, &got)
		if g := ma.CurrentGroup(); g != nil {
			div.GroupDump = g.Dump()
		}
	}))
	ma.Start(entry, bad)
	for !found {
		halted, merr := ma.StepGroup()
		if merr != nil || halted || ma.Stats.BaseInsts() >= bad {
			break
		}
	}
	if found {
		return
	}

	// No register boundary diverged: a memory or output divergence.
	// Attribute a memory diff to the last reference store overlapping the
	// differing address.
	div.Boundary = bad
	if div.MemDiff {
		for i := len(writes) - 1; i >= 1; i-- {
			for _, w := range writes[i] {
				if div.MemAddr >= w.addr && div.MemAddr < w.addr+uint32(w.size) {
					div.BadPC, div.BadPCOK = states[i-1].PC, true
					return
				}
			}
		}
	}
	div.BadPC, div.BadPCOK = states[0].PC, false
}

// lastRegWriter finds, for each register differing between want (the
// reference) and got (the machine), the last reference instruction in
// the window that wrote it, and returns the earliest of those writers.
// A GPR write counts via the instruction's def set (DefGPRs) as well as
// by value change, so a write that stored the value the register already
// held is still attributable; the remaining registers rely on value
// changes alone.
func lastRegWriter(states []ppc.State, defs []uint32, idx int, want, got *ppc.State) (uint32, bool) {
	diff := func(a, b *ppc.State, r int) bool {
		switch r {
		case 32:
			return a.CR != b.CR
		case 33:
			return a.LR != b.LR
		case 34:
			return a.CTR != b.CTR
		case 35:
			return a.XER != b.XER
		default:
			return a.GPR[r] != b.GPR[r]
		}
	}
	wrote := func(i, r int) bool {
		if r < 32 && defs[i]&(1<<r) != 0 {
			return true
		}
		return diff(&states[i], &states[i-1], r)
	}
	earliest := -1
	for r := 0; r < 36; r++ {
		if !diff(want, got, r) {
			continue
		}
		for i := idx; i >= 1; i-- {
			if wrote(i, r) {
				if earliest < 0 || i < earliest {
					earliest = i
				}
				break
			}
		}
	}
	if earliest < 0 {
		return states[0].PC, false
	}
	// states[earliest-1].PC is the address of the instruction that
	// performed the write (the state before it executed).
	return states[earliest-1].PC, true
}
