package vliw

import (
	"errors"
	"testing"
	"testing/quick"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

func newExec(t *testing.T) *Executor {
	t.Helper()
	return &Executor{Mem: mem.New(1 << 16)}
}

// leaf builds a leaf node holding ops.
func leaf(exit Exit, ops ...Parcel) *Node {
	return &Node{Ops: ops, Exit: exit}
}

func offpage(target uint32) Exit { return Exit{Kind: ExitOffpage, Target: target} }

func TestConfigRoom(t *testing.T) {
	c := Config{Name: "t", Issue: 3, ALU: 2, Mem: 2, Branch: 1}
	v := NewVLIW(0, 0)
	if !c.RoomForALU(v) || !c.RoomForMem(v) || !c.RoomForBranch(v) {
		t.Fatal("empty VLIW should have room")
	}
	v.NALU = 2
	if c.RoomForALU(v) {
		t.Fatal("ALU cap")
	}
	if !c.RoomForMem(v) {
		t.Fatal("mem should still fit (issue 3)")
	}
	v.NMem = 1
	if c.RoomForMem(v) {
		t.Fatal("issue cap should stop mem")
	}
	v.NBr = 1
	if c.RoomForBranch(v) {
		t.Fatal("branch cap")
	}
	if _, err := ConfigByName("24-16-8-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestParallelSemantics(t *testing.T) {
	// r3=1, r4=2. VLIW swaps them: both reads see entry values.
	e := newExec(t)
	e.RF.GPR[3] = 1
	e.RF.GPR[4] = 2
	v := NewVLIW(0, 0x100)
	v.Root = leaf(offpage(0x200),
		Parcel{Op: PCopy, D: GPR(3), A: GPR(4)},
		Parcel{Op: PCopy, D: GPR(4), A: GPR(3), EndsInst: true},
	)
	lf, f := e.Exec(v)
	if f != nil {
		t.Fatal(f)
	}
	if e.RF.GPR[3] != 2 || e.RF.GPR[4] != 1 {
		t.Fatalf("swap failed: r3=%d r4=%d", e.RF.GPR[3], e.RF.GPR[4])
	}
	if lf.Exit.Kind != ExitOffpage || lf.Exit.Target != 0x200 {
		t.Fatalf("exit = %v", lf.Exit)
	}
	if e.Stats.VLIWs != 1 || e.Stats.BaseInsts != 1 {
		t.Fatalf("stats = %+v", e.Stats)
	}
}

func TestTreeConditions(t *testing.T) {
	// VLIW: if cr0.eq goto A else goto B, with different ops per side.
	build := func() *VLIW {
		v := NewVLIW(0, 0)
		v.Root = &Node{
			Ops:   []Parcel{{Op: PLI, D: GPR(10), Imm: 7}},
			Cond:  &Cond{CRF: 0, Bit: ppc.CrEQ, Sense: true},
			Taken: leaf(offpage(0xaaa), Parcel{Op: PLI, D: GPR(11), Imm: 1}),
			Fall:  leaf(offpage(0xbbb), Parcel{Op: PLI, D: GPR(11), Imm: 2}),
		}
		return v
	}
	e := newExec(t)
	e.RF.CRFv[0] = 0x2 // EQ set
	lf, f := e.Exec(build())
	if f != nil {
		t.Fatal(f)
	}
	if lf.Exit.Target != 0xaaa || e.RF.GPR[11] != 1 || e.RF.GPR[10] != 7 {
		t.Fatalf("taken path wrong: exit=%v r11=%d", lf.Exit, e.RF.GPR[11])
	}

	e2 := newExec(t)
	e2.RF.CRFv[0] = 0x8 // LT set, EQ clear
	lf, f = e2.Exec(build())
	if f != nil {
		t.Fatal(f)
	}
	if lf.Exit.Target != 0xbbb || e2.RF.GPR[11] != 2 {
		t.Fatalf("fall path wrong: exit=%v r11=%d", lf.Exit, e2.RF.GPR[11])
	}
}

func TestConditionReadsEntryState(t *testing.T) {
	// A parcel writes cr0 inside the VLIW; the condition must still see
	// the entry value (all conditions evaluated before execution).
	e := newExec(t)
	e.RF.CRFv[0] = 0x2 // EQ at entry
	v := NewVLIW(0, 0)
	v.Root = &Node{
		Ops:   []Parcel{{Op: PCmpI, D: CRF(0), A: GPR(5), Imm: 99}}, // rewrites cr0 to LT
		Cond:  &Cond{CRF: 0, Bit: ppc.CrEQ, Sense: true},
		Taken: leaf(offpage(1)),
		Fall:  leaf(offpage(2)),
	}
	lf, f := e.Exec(v)
	if f != nil {
		t.Fatal(f)
	}
	if lf.Exit.Target != 1 {
		t.Fatal("condition must read entry state")
	}
	if e.RF.CRFv[0] != 0x8 {
		t.Fatalf("cr0 after = %#x, want LT", e.RF.CRFv[0])
	}
}

func TestALUPrimitives(t *testing.T) {
	e := newExec(t)
	e.RF.GPR[1] = 10
	e.RF.GPR[2] = 3
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PAdd, D: GPR(40), A: GPR(1), B: GPR(2)},
		Parcel{Op: PSubf, D: GPR(41), A: GPR(2), B: GPR(1)}, // 10-3
		Parcel{Op: PMullw, D: GPR(42), A: GPR(1), B: GPR(2)},
		Parcel{Op: PDivw, D: GPR(43), A: GPR(1), B: GPR(2)},
		Parcel{Op: PAndI, D: GPR(44), A: GPR(1), Imm: 6},
		Parcel{Op: PRlwinm, D: GPR(45), A: GPR(1), SH: 4, MB: 0, ME: 27},
		Parcel{Op: PCntlzw, D: GPR(46), A: GPR(1)},
		Parcel{Op: PCmpI, D: CRF(9), A: GPR(1), Imm: 11},
		Parcel{Op: PLIS, D: GPR(47), Imm: 2},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	want := map[int]uint32{40: 13, 41: 7, 42: 30, 43: 3, 44: 2, 45: 160, 46: 28, 47: 0x20000}
	for r, x := range want {
		if e.RF.GPR[r] != x {
			t.Errorf("r%d = %d, want %d", r, e.RF.GPR[r], x)
		}
	}
	if e.RF.CRFv[9] != 0x8 { // 10 < 11
		t.Errorf("cr9 = %#x", e.RF.CRFv[9])
	}
}

func TestCarryExtenderAndCommit(t *testing.T) {
	// addic. style: speculative add with carry into extender bit of r40,
	// then commit r40->r5 moving the extender into XER.
	e := newExec(t)
	e.RF.GPR[1] = 0xffffffff
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PAddIC, D: GPR(40), A: GPR(1), Imm: 1, Spec: true},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	if !e.RF.CA[40] {
		t.Fatal("carry extender not set")
	}
	if e.RF.XER&ppc.XerCA != 0 {
		t.Fatal("XER CA must not change for a renamed destination")
	}
	v2 := NewVLIW(1, 0)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PCopy, D: GPR(5), A: GPR(40), CommitCA: true, EndsInst: true},
	)
	if _, f := e.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if e.RF.GPR[5] != 0 || e.RF.XER&ppc.XerCA == 0 {
		t.Fatalf("commit: r5=%d xer=%#x", e.RF.GPR[5], e.RF.XER)
	}
	// Consume the carry via adde reading XER.
	v3 := NewVLIW(2, 0)
	v3.Root = leaf(offpage(0),
		Parcel{Op: PAddE, D: GPR(6), A: GPR(5), B: GPR(5)},
	)
	if _, f := e.Exec(v3); f != nil {
		t.Fatal(f)
	}
	if e.RF.GPR[6] != 1 {
		t.Fatalf("adde = %d, want 1", e.RF.GPR[6])
	}
}

func TestCarryFromExtenderSource(t *testing.T) {
	// adde consuming the extender of a renamed register directly.
	e := newExec(t)
	e.RF.GPR[1] = 0xffffffff
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PAddC, D: GPR(50), A: GPR(1), B: GPR(1), Spec: true},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	v2 := NewVLIW(1, 0)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PAddE, D: GPR(7), A: GPR(0), B: GPR(0), CASrc: GPR(50)},
	)
	if _, f := e.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if e.RF.GPR[7] != 1 {
		t.Fatalf("adde from extender = %d", e.RF.GPR[7])
	}
}

func TestSpeculativeLoadTagAndDeferredException(t *testing.T) {
	e := newExec(t)
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[1] = 0x500
	v := NewVLIW(0, 0x40)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatalf("speculative fault must not raise: %v", f)
	}
	// The dependent speculative op runs in a later VLIW (the scheduler
	// never places a consumer in its producer's VLIW) and propagates the tag.
	vdep := NewVLIW(10, 0x40)
	vdep.Root = leaf(offpage(0),
		Parcel{Op: PAddI, D: GPR(41), A: GPR(40), Imm: 1, Spec: true},
	)
	if _, f := e.Exec(vdep); f != nil {
		t.Fatalf("tag propagation must not raise: %v", f)
	}
	if !e.RF.GTag[40] || !e.RF.GTag[41] {
		t.Fatal("exception tags not set/propagated")
	}
	// Committing the tagged register raises the deferred exception and
	// rolls the VLIW back.
	v2 := NewVLIW(1, 0x44)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PLI, D: GPR(9), Imm: 9},
		Parcel{Op: PCopy, D: GPR(5), A: GPR(41), EndsInst: true},
	)
	_, f := e.Exec(v2)
	if f == nil {
		t.Fatal("expected deferred exception")
	}
	if f.Resume != 0x44 {
		t.Fatalf("resume = %#x", f.Resume)
	}
	var mf *mem.Fault
	if !errors.As(f.Cause, &mf) || mf.Addr != 0x500 {
		t.Fatalf("cause = %v", f.Cause)
	}
	if e.RF.GPR[9] != 0 || e.RF.GPR[5] != 0 {
		t.Fatal("rollback incomplete")
	}
	// The tag is cleared if the branch goes elsewhere and the register
	// is overwritten instead.
	v3 := NewVLIW(2, 0x48)
	v3.Root = leaf(offpage(0), Parcel{Op: PLI, D: GPR(41), Imm: 3})
	if _, f := e.Exec(v3); f != nil {
		t.Fatal(f)
	}
	if e.RF.GTag[41] {
		t.Fatal("overwrite must clear the tag")
	}
}

func TestNonSpecLoadFaultRollsBack(t *testing.T) {
	e := newExec(t)
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[1] = 0x500
	v := NewVLIW(0, 0x80)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLI, D: GPR(3), Imm: 1, EndsInst: true},
		Parcel{Op: PLoad, D: GPR(4), A: GPR(1), Size: 4, EndsInst: true},
	)
	_, f := e.Exec(v)
	if f == nil || f.Alias {
		t.Fatalf("expected exception, got %v", f)
	}
	if e.RF.GPR[3] != 0 {
		t.Fatal("r3 must be rolled back")
	}
	if e.Stats.BaseInsts != 0 || e.Stats.Rollbacks != 1 {
		t.Fatalf("stats %+v", e.Stats)
	}
}

func TestStoreTwoPhaseCommit(t *testing.T) {
	e := newExec(t)
	e.RF.GPR[1] = 0x100
	e.RF.GPR[2] = 7
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PStore, D: GPR(2), A: GPR(1), Imm: 0, Size: 4},
		Parcel{Op: PStore, D: GPR(2), A: GPR(1), Imm: 0x40000, Size: 4}, // out of bounds
	)
	_, f := e.Exec(v)
	if f == nil {
		t.Fatal("expected store fault")
	}
	if v0, _ := e.Mem.Read32(0x100); v0 != 0 {
		t.Fatal("no store may be applied when any store of the VLIW faults")
	}
	// Loads in the same VLIW read pre-store memory.
	_ = e.Mem.Write32(0x200, 1)
	e2 := newExec(t)
	_ = e2.Mem.Write32(0x200, 1)
	e2.RF.GPR[1] = 0x200
	e2.RF.GPR[2] = 99
	v2 := NewVLIW(0, 0)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(5), A: GPR(1), Size: 4},
		Parcel{Op: PStore, D: GPR(2), A: GPR(1), Size: 4},
	)
	if _, f := e2.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if e2.RF.GPR[5] != 1 {
		t.Fatalf("load saw buffered store: %d", e2.RF.GPR[5])
	}
	if v, _ := e2.Mem.Read32(0x200); v != 99 {
		t.Fatal("store not applied")
	}
}

func TestLoadVerifyAliasDetection(t *testing.T) {
	e := newExec(t)
	_ = e.Mem.Write32(0x300, 10)
	e.RF.GPR[1] = 0x300
	e.RF.GPR[2] = 0x300 // aliases!
	e.RF.GPR[3] = 20

	// VLIW0: speculated load hoisted above the store.
	v0 := NewVLIW(0, 0x10)
	v0.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true, SpecLoad: true},
	)
	// VLIW1: the bypassed store.
	v1 := NewVLIW(1, 0x10)
	v1.Root = leaf(offpage(0),
		Parcel{Op: PStore, D: GPR(3), A: GPR(2), Size: 4, EndsInst: true},
	)
	// VLIW2: the verify-commit of the load.
	v2 := NewVLIW(2, 0x14)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PCopy, D: GPR(5), A: GPR(40), Verify: true, EndsInst: true},
	)
	if _, f := e.Exec(v0); f != nil {
		t.Fatal(f)
	}
	if _, f := e.Exec(v1); f != nil {
		t.Fatal(f)
	}
	_, f := e.Exec(v2)
	if f == nil || !f.Alias {
		t.Fatalf("expected alias fault, got %v", f)
	}
	if f.Resume != 0x14 {
		t.Fatalf("resume = %#x", f.Resume)
	}
	if e.RF.GPR[5] != 0 {
		t.Fatal("alias commit must roll back")
	}
	if e.Stats.Aliases != 1 {
		t.Fatalf("alias count %d", e.Stats.Aliases)
	}
}

func TestLoadVerifyNoAlias(t *testing.T) {
	e := newExec(t)
	_ = e.Mem.Write32(0x300, 10)
	_ = e.Mem.Write32(0x304, 0)
	e.RF.GPR[1] = 0x300
	e.RF.GPR[2] = 0x304 // different address
	e.RF.GPR[3] = 20
	v0 := NewVLIW(0, 0)
	v0.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true, SpecLoad: true},
	)
	v1 := NewVLIW(1, 0)
	v1.Root = leaf(offpage(0),
		Parcel{Op: PStore, D: GPR(3), A: GPR(2), Size: 4},
	)
	v2 := NewVLIW(2, 4)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PCopy, D: GPR(5), A: GPR(40), Verify: true, EndsInst: true},
	)
	for _, v := range []*VLIW{v0, v1, v2} {
		if _, f := e.Exec(v); f != nil {
			t.Fatal(f)
		}
	}
	if e.RF.GPR[5] != 10 || e.Stats.Aliases != 0 {
		t.Fatalf("r5=%d aliases=%d", e.RF.GPR[5], e.Stats.Aliases)
	}
}

func TestCrBitOps(t *testing.T) {
	e := newExec(t)
	e.RF.CRFv[1] = 0x2 // cr1.eq
	e.RF.CRFv[2] = 0x8 // cr2.lt
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		// cr0.lt = cr1.eq AND cr2.lt
		Parcel{Op: PCrand, D: CRF(0), A: CRF(1), B: CRF(2), BD: 0, BA: 2, BB: 0},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	if e.RF.CRFv[0]&0x8 == 0 {
		t.Fatalf("cr0 = %#x", e.RF.CRFv[0])
	}
	// mcrf + mfcr + mtcrf
	e.RF.GPR[3] = 0x03000000 // field 1 = 3
	v2 := NewVLIW(1, 0)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PMcrf, D: CRF(5), A: CRF(2)},
		Parcel{Op: PMtcrf, A: GPR(3), FXM: 0x40}, // only field 1
		Parcel{Op: PMfcr, D: GPR(8)},
	)
	if _, f := e.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if e.RF.CRFv[5] != 0x8 || e.RF.CRFv[1] != 0x3 {
		t.Fatalf("mcrf/mtcrf: cr5=%#x cr1=%#x", e.RF.CRFv[5], e.RF.CRFv[1])
	}
	// mfcr ran in the same VLIW, so it sees entry values of the fields.
	if ppc.CRField(e.RF.GPR[8], 1) != 0x2 {
		t.Fatalf("mfcr = %#x", e.RF.GPR[8])
	}
}

func TestRegFileStateRoundTrip(t *testing.T) {
	var st ppc.State
	for i := range st.GPR {
		st.GPR[i] = uint32(i * 3)
	}
	st.CR = 0x12345678
	st.LR, st.CTR, st.XER = 0x100, 7, ppc.XerCA

	var rf RegFile
	rf.FromState(&st)
	var back ppc.State
	rf.ToState(&back)
	back.PC, back.MSR = st.PC, st.MSR
	if d := st.Diff(&back); d != "" {
		t.Fatalf("round trip differs: %s", d)
	}
}

func TestLRCTRViaRefs(t *testing.T) {
	e := newExec(t)
	e.RF.GPR[4] = 0x1234
	v := NewVLIW(0, 0)
	v.Root = leaf(Exit{Kind: ExitIndirect, Via: CTR},
		Parcel{Op: PCopy, D: CTR, A: GPR(4)},
		Parcel{Op: PCopy, D: LR, A: GPR(4)},
	)
	lf, f := e.Exec(v)
	if f != nil {
		t.Fatal(f)
	}
	if e.RF.CTR != 0x1234 || e.RF.LR != 0x1234 {
		t.Fatal("special register copies")
	}
	if lf.Exit.Kind != ExitIndirect || lf.Exit.Via != CTR {
		t.Fatalf("exit %v", lf.Exit)
	}
}

func TestDumpAndStrings(t *testing.T) {
	g := &Group{Entry: 0x1000}
	v := NewVLIW(0, 0x1000)
	v.Root = &Node{
		Ops:   []Parcel{{Op: PAdd, D: GPR(1), A: GPR(2), B: GPR(3), EndsInst: true}},
		Cond:  &Cond{CRF: 0, Bit: ppc.CrEQ, Sense: true},
		Taken: leaf(offpage(0x2000)),
		Fall:  leaf(Exit{Kind: ExitIndirect, Via: LR}),
	}
	g.VLIWs = []*VLIW{v}
	d := g.Dump()
	for _, want := range []string{"VLIW0", "add r1,r2,r3", "if cr0.eq", "offpage 0x2000", "goto lr"} {
		if !contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	if v.CountParcels() != 1 {
		t.Fatal("CountParcels")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestRegFileRoundTripProperty: FromState∘ToState is the identity on
// architected state, for arbitrary register values (testing/quick).
func TestRegFileRoundTripProperty(t *testing.T) {
	f := func(gprs [32]uint32, cr, lr, ctr, xer uint32) bool {
		var st ppc.State
		st.GPR = gprs
		st.CR, st.LR, st.CTR, st.XER = cr, lr, ctr, xer
		var rf RegFile
		rf.FromState(&st)
		var back ppc.State
		rf.ToState(&back)
		back.PC, back.MSR = st.PC, st.MSR
		return st.Equal(&back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCarryHelperProperty: SetCarry/CarryOf agree for both architected and
// renamed destinations.
func TestCarryHelperProperty(t *testing.T) {
	f := func(n uint8, ca bool) bool {
		n %= NumGPR
		var rf RegFile
		d := GPR(n)
		rf.SetCarry(d, ca)
		if d.Arch() {
			return (rf.XER&ppc.XerCA != 0) == ca && rf.CarryOf(None) == b2u(ca)
		}
		return rf.CA[n] == ca && rf.CarryOf(d) == b2u(ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
