package vliw

import (
	"testing"
)

// chain links VLIWs v[0] -> v[1] -> ... through ExitNext leaves; the last
// VLIW keeps its own exit.
func chain(vs ...*VLIW) []*VLIW {
	for i := 0; i+1 < len(vs); i++ {
		vs[i].Root.Exit = Exit{Kind: ExitNext, Next: vs[i+1]}
	}
	return vs
}

// addOne is a VLIW that adds 1 to r3 and completes one instruction.
func addOne(id int) *VLIW {
	v := NewVLIW(id, uint32(0x100+4*id))
	v.Root = leaf(offpage(0x300), Parcel{Op: PAddI, D: GPR(3), A: GPR(3), Imm: 1, EndsInst: true})
	return v
}

// TestExecFollowsExitNext: one Exec runs a group run to its first exit
// other than ExitNext and returns that leaf; each VLIW logs its step.
func TestExecFollowsExitNext(t *testing.T) {
	e := newExec(t)
	vs := chain(addOne(0), addOne(1), addOne(2))
	lf, f := e.Exec(vs[0])
	if f != nil {
		t.Fatal(f)
	}
	if lf != vs[2].Root || lf.Exit.Kind != ExitOffpage {
		t.Fatalf("returned %+v, want VLIW 2's leaf", lf)
	}
	if e.RF.GPR[3] != 3 || e.Stats.VLIWs != 3 || e.Stats.BaseInsts != 3 || len(e.Steps) != 3 {
		t.Fatalf("r3 %d, stats %+v, %d steps", e.RF.GPR[3], e.Stats, len(e.Steps))
	}
}

// TestExecLimitAndCommitHook: the limit and the commit hook stop a group
// run between two VLIWs, returning the ExitNext leaf it stopped at; the
// next Exec continues from its successor.
func TestExecLimitAndCommitHook(t *testing.T) {
	e := newExec(t)
	vs := chain(addOne(0), addOne(1), addOne(2))
	e.Limit = 2
	lf, f := e.Exec(vs[0])
	if f != nil || lf != vs[1].Root || lf.Exit.Next != vs[2] || e.Stats.BaseInsts != 2 {
		t.Fatalf("limit 2: leaf %p (VLIW 1's %p), fault %v, %d instructions", lf, vs[1].Root, f, e.Stats.BaseInsts)
	}
	// The first VLIW of a run always runs.
	if lf, f = e.Exec(lf.Exit.Next); f != nil || lf != vs[2].Root || e.RF.GPR[3] != 3 {
		t.Fatalf("continuing: leaf %p, fault %v, r3 %d", lf, f, e.RF.GPR[3])
	}

	e = newExec(t)
	calls := 0
	e.OnCommit = func() bool {
		calls++
		return calls == 2 // stop after the second VLIW
	}
	if lf, f = e.Exec(vs[0]); f != nil || lf != vs[1].Root || calls != 2 || e.Stats.VLIWs != 2 {
		t.Fatalf("hook: leaf %p, fault %v, %d calls, %d VLIWs", lf, f, calls, e.Stats.VLIWs)
	}
	if lf, f = e.Exec(lf.Exit.Next); f != nil || lf != vs[2].Root || calls != 2 {
		t.Fatalf("after the hook: leaf %p, fault %v, %d calls (the last VLIW's exit is not ExitNext)", lf, f, calls)
	}
}

// TestExecFaultMidRun: a fault in a later VLIW of a run rolls back only
// that VLIW; the ones before it stay committed.
func TestExecFaultMidRun(t *testing.T) {
	e := newExec(t)
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[5] = 0x500
	bad := NewVLIW(1, 0x104)
	bad.Root = leaf(offpage(0x300),
		Parcel{Op: PAddI, D: GPR(3), A: GPR(3), Imm: 1},
		Parcel{Op: PLoad, D: GPR(4), A: GPR(5), Size: 4, EndsInst: true})
	vs := chain(addOne(0), bad)
	lf, f := e.Exec(vs[0])
	if lf != nil || f == nil || f.VLIW != bad || f.Parcel != 1 || f.Resume != 0x104 {
		t.Fatalf("leaf %p, fault %+v", lf, f)
	}
	if e.RF.GPR[3] != 1 || e.Stats.VLIWs != 1 || e.Stats.Rollbacks != 1 || e.Stats.BaseInsts != 1 || len(e.Steps) != 2 {
		t.Fatalf("r3 %d, stats %+v, %d steps", e.RF.GPR[3], e.Stats, len(e.Steps))
	}
}

// TestExecNopRuns: a node runs every parcel but its nops, counts each
// EndsInst parcel (nops included) once, and reports a fault by the
// parcel's index in Node.Ops, however its nops are placed: leading,
// interior and trailing, in the largest node the decoder accepts and in
// one whose leading nops overflow the node's uint16 count.
func TestExecNopRuns(t *testing.T) {
	nop := Parcel{Op: PNop, EndsInst: true}
	for _, c := range []struct {
		name               string
		lead, mid, trailer int
	}{
		{"no nops", 0, 0, 0},
		{"254 parcels", 100, 20, 94},
		{"all nops", 254, 0, 0},
		{"overflowing lead", 70000, 3, 5},
	} {
		var ops []Parcel
		for i := 0; i < c.lead; i++ {
			ops = append(ops, nop)
		}
		adds := 0
		for i := 0; i <= c.mid && c.lead < 254; i++ {
			ops = append(ops, Parcel{Op: PAddI, D: GPR(3), A: GPR(3), Imm: 1 << i % 31, EndsInst: i%2 == 0})
			adds++
			if i < c.mid {
				ops = append(ops, nop)
			}
		}
		for i := 0; i < c.trailer; i++ {
			ops = append(ops, nop)
		}
		ends := 0
		for _, p := range ops {
			if p.EndsInst {
				ends++
			}
		}
		v := NewVLIW(0, 0x100)
		v.Root = leaf(offpage(0x300), ops...)
		e := newExec(t)
		for pass := 0; pass < 2; pass++ { // the first pass fills the node
			e.RF.GPR[3] = 0
			before := e.Stats.BaseInsts
			if _, f := e.Exec(v); f != nil {
				t.Fatalf("%s: %v", c.name, f)
			}
			// Each add reads r3 at VLIW entry, so only the last one lands.
			want := uint32(0)
			if adds > 0 {
				want = 1 << (adds - 1) % 31
			}
			if e.RF.GPR[3] != want || e.Stats.BaseInsts-before != uint64(ends) {
				t.Fatalf("%s pass %d: r3 %#x want %#x, %d instructions want %d",
					c.name, pass, e.RF.GPR[3], want, e.Stats.BaseInsts-before, ends)
			}
		}
		if adds == 0 {
			continue
		}
		// Fault the last add: its index counts the nops before it.
		last := len(ops) - 1 - c.trailer
		faulting := append([]Parcel(nil), ops...)
		faulting[last] = Parcel{Op: PLoad, D: GPR(4), A: GPR(5), Size: 4, EndsInst: true}
		v.Root = leaf(offpage(0x300), faulting...)
		e = newExec(t)
		e.Mem.InjectFault(0x500, false)
		e.RF.GPR[5] = 0x500
		if _, f := e.Exec(v); f == nil || f.Parcel != last {
			t.Fatalf("%s: fault %+v, want one at parcel %d", c.name, f, last)
		}
	}
}
