package vliw

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// outcome is what one Exec left behind.
type outcome struct {
	rf    regState
	stats Stats // this Exec's share
	exit  Exit
	fault string
}

// regState is a RegFile with its fault payloads held by value, so that two
// runs that each allocated their own faults compare equal.
type regState struct {
	RegFile
	gFault [NumGPR]mem.Fault
	cFault [NumCRF]mem.Fault
}

func stateOf(rf RegFile) regState {
	s := regState{RegFile: rf}
	for i, f := range rf.GFault {
		if f != nil {
			s.gFault[i], s.GFault[i] = *f, nil
		}
	}
	for i, f := range rf.CRFault {
		if f != nil {
			s.cFault[i], s.CRFault[i] = *f, nil
		}
	}
	return s
}

// runSeq executes vs in order, one VLIW per Exec, on a fresh executor
// prepared by entry.
func runSeq(vs []*VLIW, entry func(*Executor)) ([]outcome, *Executor) {
	e := &Executor{Mem: mem.New(1 << 12), OnCommit: func() bool { return true }}
	if entry != nil {
		entry(e)
	}
	out := make([]outcome, len(vs))
	for i, v := range vs {
		before := e.Stats
		lf, f := e.Exec(v)
		out[i] = outcome{rf: stateOf(e.RF), stats: e.Stats.Sub(before), exit: exitOf(lf), fault: describeFault(f)}
	}
	return out, e
}

func describeFault(f *Fault) string {
	if f == nil {
		return ""
	}
	return fmt.Sprintf("VLIW%d node %p parcel %d storePC %#x resume %#x alias %t codemod %t: %v",
		f.VLIW.ID, f.Node, f.Parcel, f.StorePC, f.Resume, f.Alias, f.CodeMod, f.Cause)
}

// handlerBytes lists the handler byte of every parcel in vs, in walk order.
func handlerBytes(vs []*VLIW) []uint8 {
	var hs []uint8
	for _, v := range vs {
		v.Walk(func(n *Node) {
			for i := range n.Ops {
				hs = append(hs, n.Ops[i].h)
			}
		})
	}
	return hs
}

// checkResolveOnce runs vs twice from the same entry state: the first run
// resolves the parcels it reaches, the second runs the handlers they
// resolved to. Register files, counters, exits, faults and memory must be
// identical, and the second run must not re-resolve anything.
func checkResolveOnce(t *testing.T, name string, vs []*VLIW, entry func(*Executor)) {
	t.Helper()
	fresh := handlerBytes(vs)
	first, e1 := runSeq(vs, entry)
	resolved := handlerBytes(vs)
	second, e2 := runSeq(vs, entry)
	if again := handlerBytes(vs); fmt.Sprint(again) != fmt.Sprint(resolved) {
		t.Fatalf("%s: the second run changed handler bytes %v to %v", name, resolved, again)
	}
	if len(fresh) > 0 && fmt.Sprint(fresh) == fmt.Sprint(resolved) {
		t.Fatalf("%s: the first run resolved no parcel", name)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("%s: VLIW %d differs between the resolving and the resolved run:\n first %+v\nsecond %+v",
				name, i, first[i], second[i])
		}
	}
	if !e1.Mem.EqualData(e2.Mem) {
		t.Errorf("%s: memory differs between the runs", name)
	}
}

func TestResolveOnceEquivalence(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		checkResolveOnce(t, fmt.Sprintf("deep tree %03b", mask), []*VLIW{deepTree()},
			func(e *Executor) { deepTreeEntry(e, mask) })
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		v, vals, _ := swapChain(rng)
		checkResolveOnce(t, fmt.Sprintf("swap chain %d", trial), []*VLIW{v},
			func(e *Executor) { copy(e.RF.GPR[:], vals) })
	}
	checkResolveOnce(t, "every primitive", everyPrimitive(), primEntry)
}

// primEntry is the entry state everyPrimitive runs from.
func primEntry(e *Executor) {
	for i := range e.RF.GPR {
		e.RF.GPR[i] = uint32(i*0x01010101) ^ 0x80000001
	}
	e.RF.GPR[1] = 0x100 // a base address
	e.RF.GPR[2] = 4
	e.RF.GPR[5] = 0x500 // faults
	for f := range e.RF.CRFv {
		e.RF.CRFv[f] = uint8(f*5) & 0xf
	}
	e.RF.LR, e.RF.CTR, e.RF.XER = 0x44, 7, ppc.XerCA|ppc.XerSO
	for a := uint32(0x100); a < 0x140; a += 4 {
		_ = e.Mem.Write32(a, a*0x9e3779b9)
	}
	e.Mem.InjectFault(0x500, false)
}

// everyPrimitive is a sequence of VLIWs that runs every primitive in the
// operand shape the translator emits (direct), on a tagged source, and in
// a general shape (a CTR source, an LR or XER destination, a zero base),
// then load-verify, a deferred exception, an alias, the accesses the
// hooked executor golden translates, faults or protects (hookExec),
// conditions and an unknown primitive. TestEveryPrimitiveShapes checks
// that every shape is reached.
func everyPrimitive() []*VLIW {
	var vs []*VLIW
	addRoot := func(root *Node) {
		v := NewVLIW(len(vs), uint32(0x1000+4*len(vs)))
		v.Root = root
		vs = append(vs, v)
	}
	add := func(ops ...Parcel) { addRoot(leaf(offpage(uint32(len(vs))), ops...)) }
	// r40 is tagged by a faulting speculative load; r41 holds a
	// speculated load hoisted above a store.
	add(Parcel{Op: PLoad, D: GPR(40), A: GPR(5), Size: 4, Spec: true},
		Parcel{Op: PLoad, D: GPR(41), A: GPR(1), Imm: 8, Size: 4, Spec: true, SpecLoad: true},
		Parcel{Op: PLoad, D: GPR(42), Imm: 0x102, Size: 2, Signed: true, EndsInst: true},
		Parcel{Op: PLoad, D: GPR(43), A: GPR(1), B: GPR(2), Indexed: true, Size: 1, EndsInst: true})
	// Drop the operands a primitive does not have, as the translator does.
	shape := func(p Parcel) Parcel {
		s := handlers[p.Op]
		if s.a == RNone {
			p.A = None
		}
		if s.b == RNone {
			p.B = None
		}
		return p
	}
	for op := PLI; op <= PRlwimi; op++ {
		k := int32(op)
		general := shape(Parcel{Op: op, D: GPR(52), A: CTR, B: GPR(6), CASrc: GPR(41), Imm: -k, SH: 3, ME: 31})
		if general.A == None {
			general.D = LR // li and lis have no source to give a general shape
		}
		add(shape(Parcel{Op: op, D: GPR(50), A: GPR(3), B: GPR(4), Imm: 37*k - 400,
			SH: uint8(k % 32), MB: uint8(k % 9), ME: uint8(17 + k%15), EndsInst: true}),
			shape(Parcel{Op: op, D: GPR(51), A: GPR(40), B: GPR(4), CASrc: GPR(41), Imm: k, Spec: true}),
			general)
	}
	for op := PCmpI; op <= PCmpL; op++ {
		add(shape(Parcel{Op: op, D: CRF(9), A: GPR(3), B: GPR(7), Imm: 5, EndsInst: true}),
			shape(Parcel{Op: op, D: CRF(10), A: GPR(40), B: GPR(7), Spec: true}),
			shape(Parcel{Op: op, D: CRF(11), A: CTR, B: GPR(2), Imm: 7}))
	}
	for op := PCrand; op <= PCrnor; op++ {
		add(Parcel{Op: op, D: CRF(1), A: CRF(2), B: CRF(3), BD: 1, BA: 2, BB: 3, EndsInst: true},
			Parcel{Op: op, D: CRF(12), A: CRF(10), B: CRF(3), Spec: true},
			Parcel{Op: op, D: CRF(13), A: GPR(3), B: CRF(4), BD: 3})
	}
	add(Parcel{Op: PMcrf, D: CRF(5), A: CRF(6)},
		Parcel{Op: PMcrf, D: CRF(14), A: CRF(10), Spec: true},
		Parcel{Op: PMcrf, D: CRF(15), A: GPR(3)},
		Parcel{Op: PMfcr, D: GPR(53)},
		Parcel{Op: PMfcr, D: LR},
		Parcel{Op: PMtcrf, A: GPR(3), FXM: 0x5a, EndsInst: true})
	add(Parcel{Op: PMtcrf, A: CTR, FXM: 0x01, EndsInst: true})
	add(Parcel{Op: PCopy, D: GPR(54), A: GPR(3)},
		Parcel{Op: PCopy, D: CRF(7), A: CRF(9)},
		Parcel{Op: PCopy, D: LR, A: GPR(4)},
		Parcel{Op: PCopy, D: GPR(55), A: CTR},
		Parcel{Op: PCopy, D: XER, A: GPR(6)},
		Parcel{Op: PCopy, D: GPR(56), A: GPR(40), Spec: true},
		Parcel{Op: PLI, D: CTR, Imm: 99, EndsInst: true})
	add(Parcel{Op: PStore, D: GPR(3), A: GPR(1), Imm: 0x20, Size: 4},
		Parcel{Op: PStore, D: GPR(4), A: GPR(1), B: GPR(2), Indexed: true, Size: 2},
		Parcel{Op: PStore, D: GPR(6), Imm: 0x180, Size: 1, EndsInst: true})
	// Load-verify passes (memory unchanged), then the carry commit.
	add(Parcel{Op: PCopy, D: GPR(8), A: GPR(41), Verify: true, EndsInst: true},
		Parcel{Op: PCopy, D: GPR(9), A: GPR(51), CommitCA: true})
	// A store into the speculated word, then its verify: an alias.
	add(Parcel{Op: PLoad, D: GPR(41), A: GPR(1), Imm: 8, Size: 4, Spec: true, SpecLoad: true})
	add(Parcel{Op: PStore, D: GPR(3), A: GPR(1), Imm: 8, Size: 4, EndsInst: true})
	add(Parcel{Op: PCopy, D: GPR(10), A: GPR(41), Verify: true, EndsInst: true})
	// Committing a tagged register raises the deferred exception.
	add(Parcel{Op: PLI, D: GPR(11), Imm: 1, EndsInst: true},
		Parcel{Op: PCopy, D: GPR(12), A: GPR(40), EndsInst: true})
	// Tagged sources of memory and CR-transfer primitives, each raising
	// its exception in a VLIW of its own; the last two tag cr6 and read
	// it back.
	add(Parcel{Op: PLoad, D: GPR(47), A: GPR(40), Size: 4, Spec: true, EndsInst: true})
	add(Parcel{Op: PLoad, D: GPR(47), A: GPR(40), Size: 4, EndsInst: true})
	add(Parcel{Op: PStore, D: GPR(40), A: GPR(1), Size: 4, EndsInst: true})
	add(Parcel{Op: PStore, D: GPR(3), A: GPR(40), Size: 4, EndsInst: true})
	add(Parcel{Op: PMtcrf, A: GPR(40), FXM: 0xff, EndsInst: true})
	add(Parcel{Op: PCmpI, D: CRF(6), A: GPR(40), Spec: true, EndsInst: true})
	add(Parcel{Op: PMfcr, D: GPR(57), EndsInst: true})
	// What the hooked executor golden's hooks act on (see hookExec); on a
	// bare executor these are plain accesses. A speculative load the
	// address translation refuses and one the fault hook faults tag their
	// destinations; committed, they roll their VLIWs back. Then a store
	// the fault hook faults in the store phase, one the translation
	// refuses, one into protected code, and a verify the alias hook fails.
	add(Parcel{Op: PLoad, D: GPR(44), A: GPR(1), Imm: 0x30, Size: 4, Spec: true},
		Parcel{Op: PLoad, D: GPR(45), A: GPR(1), Imm: 0x34, Size: 4, Spec: true, EndsInst: true})
	add(Parcel{Op: PLoad, D: GPR(46), A: GPR(1), Imm: 0x30, Size: 4, EndsInst: true})
	add(Parcel{Op: PLoad, D: GPR(46), A: GPR(1), Imm: 0x34, Size: 4, EndsInst: true})
	add(Parcel{Op: PStore, D: GPR(3), A: GPR(1), Imm: 0x38, Size: 4, BaseAddr: 0x738, EndsInst: true})
	add(Parcel{Op: PStore, D: GPR(3), A: GPR(1), Imm: 0x3c, Size: 4, EndsInst: true})
	add(Parcel{Op: PStore, D: GPR(4), Imm: 0x1000, Size: 4, EndsInst: true})
	add(Parcel{Op: PLoad, D: GPR(48), A: GPR(1), Imm: 0xc, Size: 4, Spec: true, SpecLoad: true, EndsInst: true})
	add(Parcel{Op: PCopy, D: GPR(14), A: GPR(48), Verify: true, BaseAddr: 0x77c, EndsInst: true})
	// A split on an untagged condition field, then on a tagged one.
	split := func(f uint8) *Node {
		return &Node{Cond: &Cond{CRF: f, Bit: ppc.CrGT, Sense: true},
			Ops:   []Parcel{{Op: PAddI, D: GPR(59), A: GPR(3), Imm: 1}},
			Taken: leaf(offpage(1), Parcel{Op: PLI, D: GPR(58), Imm: 1, EndsInst: true}),
			Fall:  leaf(offpage(2), Parcel{Op: PLI, D: GPR(58), Imm: 2, EndsInst: true})}
	}
	addRoot(split(9))
	addRoot(split(10))
	add(Parcel{Op: numPrims + 3, D: GPR(13)})
	return vs
}

// TestImmEditAfterRun: the fields resolution does not read stay live, so
// an immediate (or a register number) edited after its parcel has run
// takes effect on the next run — the chaos mutation test's pattern.
func TestImmEditAfterRun(t *testing.T) {
	e := newExec(t)
	e.RF.GPR[1], e.RF.GPR[2] = 10, 100
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0), Parcel{Op: PAddI, D: GPR(3), A: GPR(1), Imm: 4, EndsInst: true})
	p := &v.Root.Ops[0]
	for _, c := range []struct {
		edit func()
		want uint32
	}{
		{func() {}, 14},
		{func() { p.Imm = 8 }, 18},
		{func() { p.A = GPR(2) }, 108},
		{func() { p.D = GPR(4) }, 108},
	} {
		c.edit()
		if _, f := e.Exec(v); f != nil {
			t.Fatal(f)
		}
		if got := e.RF.GPR[p.D.N]; got != c.want {
			t.Fatalf("after edit to %v: r%d = %d, want %d", *p, p.D.N, got, c.want)
		}
	}
}

// TestCopiesOfExecutedGroup: CloneGroup and DecodeGroup copies of a group
// whose parcels have already run (and resolved) run identically to it.
func TestCopiesOfExecutedGroup(t *testing.T) {
	g := sampleGroup()
	entry := func(e *Executor) {
		primEntry(e)
		e.RF.GPR[9], e.RF.GPR[10] = 0x108, 2
		e.RF.CRFv[0] = 0x2
	}
	want, _ := runSeq(g.VLIWs, entry) // resolves g
	b, err := EncodeGroup(g)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeGroup(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Group
	}{{"clone", CloneGroup(g)}, {"decoded", decoded}} {
		got, _ := runSeq(c.g.VLIWs, entry)
		for i := range want {
			w, o := want[i], got[i]
			if w.rf != o.rf || w.stats != o.stats || (w.fault == "") != (o.fault == "") ||
				w.exit.Kind != o.exit.Kind || w.exit.Target != o.exit.Target || w.exit.Via != o.exit.Via ||
				(w.exit.Next == nil) != (o.exit.Next == nil) || w.exit.Next != nil && w.exit.Next.ID != o.exit.Next.ID {
				t.Errorf("%s copy: VLIW %d differs:\n want %+v\n  got %+v", c.name, i, w, o)
			}
		}
	}
}

// TestParcelSize: the handler byte lives in padding; a Parcel stays 40
// bytes, so resolution allocates nothing and grows no translation.
func TestParcelSize(t *testing.T) {
	if s := unsafe.Sizeof(Parcel{}); s != 40 {
		t.Fatalf("Parcel is %d bytes, want 40", s)
	}
}

// TestNodeSize: the executor's per-node fields fill the bytes Exit's
// field order frees, so a Node stays 80 bytes and a translation's node
// chunks do not grow.
func TestNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(Exit{}); s != 24 {
		t.Errorf("Exit is %d bytes, want 24", s)
	}
	if s := unsafe.Sizeof(Node{}); s != 80 {
		t.Fatalf("Node is %d bytes, want 80", s)
	}
}
