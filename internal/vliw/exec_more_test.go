package vliw

import (
	"math/rand"
	"testing"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// execOne runs a single-parcel VLIW and returns the executor.
func execOne(t *testing.T, setup func(*Executor), p Parcel) *Executor {
	t.Helper()
	e := &Executor{Mem: mem.New(1 << 16)}
	if setup != nil {
		setup(e)
	}
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0), p)
	if _, f := e.Exec(v); f != nil {
		t.Fatalf("exec %v: %v", p, f)
	}
	return e
}

func TestRemainingALUPrims(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Executor)
		p     Parcel
		check func(*Executor) bool
	}{
		{"li", nil, Parcel{Op: PLI, D: GPR(3), Imm: -7},
			func(e *Executor) bool { return int32(e.RF.GPR[3]) == -7 }},
		{"addis", func(e *Executor) { e.RF.GPR[1] = 1 },
			Parcel{Op: PAddIS, D: GPR(3), A: GPR(1), Imm: 2},
			func(e *Executor) bool { return e.RF.GPR[3] == 0x20001 }},
		{"subfic", func(e *Executor) { e.RF.GPR[1] = 3 },
			Parcel{Op: PSubfIC, D: GPR(3), A: GPR(1), Imm: 10},
			func(e *Executor) bool { return e.RF.GPR[3] == 7 && e.RF.XER&ppc.XerCA != 0 }},
		{"muli", func(e *Executor) { e.RF.GPR[1] = 6 },
			Parcel{Op: PMulI, D: GPR(3), A: GPR(1), Imm: -3},
			func(e *Executor) bool { return int32(e.RF.GPR[3]) == -18 }},
		{"mulhwu", func(e *Executor) { e.RF.GPR[1] = 0x80000000; e.RF.GPR[2] = 4 },
			Parcel{Op: PMulhwu, D: GPR(3), A: GPR(1), B: GPR(2)},
			func(e *Executor) bool { return e.RF.GPR[3] == 2 }},
		{"divwu0", func(e *Executor) { e.RF.GPR[1] = 5 },
			Parcel{Op: PDivwu, D: GPR(3), A: GPR(1), B: GPR(2)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0 }},
		{"andc", func(e *Executor) { e.RF.GPR[1] = 0xff; e.RF.GPR[2] = 0x0f },
			Parcel{Op: PAndc, D: GPR(3), A: GPR(1), B: GPR(2)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xf0 }},
		{"nor", func(e *Executor) { e.RF.GPR[1] = 1 },
			Parcel{Op: PNor, D: GPR(3), A: GPR(1), B: GPR(1)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xfffffffe }},
		{"nand", func(e *Executor) { e.RF.GPR[1] = 3; e.RF.GPR[2] = 1 },
			Parcel{Op: PNand, D: GPR(3), A: GPR(1), B: GPR(2)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xfffffffe }},
		{"oris", func(e *Executor) { e.RF.GPR[1] = 1 },
			Parcel{Op: POrIS, D: GPR(3), A: GPR(1), Imm: 0x00f0},
			func(e *Executor) bool { return e.RF.GPR[3] == 0x00f00001 }},
		{"xoris", func(e *Executor) { e.RF.GPR[1] = 0xffffffff },
			Parcel{Op: PXorIS, D: GPR(3), A: GPR(1), Imm: 1},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xfffeffff }},
		{"andis", func(e *Executor) { e.RF.GPR[1] = 0xffffffff },
			Parcel{Op: PAndIS, D: GPR(3), A: GPR(1), Imm: 0x8000},
			func(e *Executor) bool { return e.RF.GPR[3] == 0x80000000 }},
		{"sraw-big", func(e *Executor) { e.RF.GPR[1] = 0x80000000; e.RF.GPR[2] = 40 },
			Parcel{Op: PSraw, D: GPR(3), A: GPR(1), B: GPR(2)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xffffffff }},
		{"extsb", func(e *Executor) { e.RF.GPR[1] = 0x80 },
			Parcel{Op: PExtsb, D: GPR(3), A: GPR(1)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xffffff80 }},
		{"extsh", func(e *Executor) { e.RF.GPR[1] = 0x8000 },
			Parcel{Op: PExtsh, D: GPR(3), A: GPR(1)},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xffff8000 }},
		{"rlwimi", func(e *Executor) { e.RF.GPR[1] = 0xff; e.RF.GPR[2] = 0xaaaa0000 },
			Parcel{Op: PRlwimi, D: GPR(3), A: GPR(1), B: GPR(2), SH: 8, MB: 16, ME: 23},
			func(e *Executor) bool { return e.RF.GPR[3] == 0xaaaaff00 }},
		{"neg", func(e *Executor) { e.RF.GPR[1] = 5 },
			Parcel{Op: PNeg, D: GPR(3), A: GPR(1)},
			func(e *Executor) bool { return int32(e.RF.GPR[3]) == -5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := execOne(t, c.setup, c.p)
			if !c.check(e) {
				t.Errorf("%s: r3=%#x ca=%#x", c.name, e.RF.GPR[3], e.RF.XER)
			}
		})
	}
}

func TestCompareVariants(t *testing.T) {
	e := &Executor{Mem: mem.New(1 << 16)}
	e.RF.GPR[1] = 0xffffffff // -1 signed, max unsigned
	e.RF.GPR[2] = 1
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PCmp, D: CRF(8), A: GPR(1), B: GPR(2)},
		Parcel{Op: PCmpL, D: CRF(9), A: GPR(1), B: GPR(2)},
		Parcel{Op: PCmpLI, D: CRF(10), A: GPR(1), Imm: 5},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	if e.RF.CRFv[8] != 0x8 { // signed: -1 < 1
		t.Errorf("cmp signed: %#x", e.RF.CRFv[8])
	}
	if e.RF.CRFv[9] != 0x4 { // unsigned: max > 1
		t.Errorf("cmpl: %#x", e.RF.CRFv[9])
	}
	if e.RF.CRFv[10] != 0x4 { // unsigned: max > 5
		t.Errorf("cmpli: %#x", e.RF.CRFv[10])
	}
	// SO bit copies into compares.
	e.RF.XER |= ppc.XerSO
	v2 := NewVLIW(1, 0)
	v2.Root = leaf(offpage(0), Parcel{Op: PCmpI, D: CRF(11), A: GPR(2), Imm: 1})
	if _, f := e.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if e.RF.CRFv[11] != 0x3 { // EQ | SO
		t.Errorf("SO copy: %#x", e.RF.CRFv[11])
	}
}

func TestIndexedAndSubwordMemory(t *testing.T) {
	e := &Executor{Mem: mem.New(1 << 16)}
	_ = e.Mem.Write32(0x1000, 0xdeadbeef)
	e.RF.GPR[1] = 0x1000
	e.RF.GPR[2] = 2
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(3), A: GPR(1), B: GPR(2), Indexed: true, Size: 2},
		Parcel{Op: PLoad, D: GPR(4), A: GPR(1), Imm: 2, Size: 2, Signed: true},
		Parcel{Op: PLoad, D: GPR(5), A: GPR(1), Imm: 3, Size: 1},
	)
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	if e.RF.GPR[3] != 0xbeef || e.RF.GPR[4] != 0xffffbeef || e.RF.GPR[5] != 0xef {
		t.Fatalf("loads: %#x %#x %#x", e.RF.GPR[3], e.RF.GPR[4], e.RF.GPR[5])
	}
	// Indexed store with subword size.
	e.RF.GPR[6] = 0x1234
	v2 := NewVLIW(1, 0)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PStore, D: GPR(6), A: GPR(1), B: GPR(2), Indexed: true, Size: 2})
	if _, f := e.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if got, _ := e.Mem.Read16(0x1002); got != 0x1234 {
		t.Fatalf("indexed sub-word store: %#x", got)
	}
}

func TestStoreOfTaggedValueFaults(t *testing.T) {
	e := &Executor{Mem: mem.New(1 << 16)}
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[1] = 0x500
	v := NewVLIW(0, 0x40)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true})
	if _, f := e.Exec(v); f != nil {
		t.Fatal(f)
	}
	v2 := NewVLIW(1, 0x44)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PStore, D: GPR(40), A: GPR(1), Imm: 0x100, Size: 4})
	if _, f := e.Exec(v2); f == nil {
		t.Fatal("storing a tagged value must raise the deferred exception")
	}
}

func TestTaggedAddressFaults(t *testing.T) {
	e := &Executor{Mem: mem.New(1 << 16)}
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[1] = 0x500
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true})
	_, _ = e.Exec(v)
	// Non-speculative load through the tagged address register.
	v2 := NewVLIW(1, 4)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(5), A: GPR(40), Size: 4})
	if _, f := e.Exec(v2); f == nil {
		t.Fatal("tagged address on a committed load must fault")
	}
	// Speculative load through the tagged address propagates the tag.
	e2 := &Executor{Mem: mem.New(1 << 16)}
	e2.Mem.InjectFault(0x500, false)
	e2.RF.GPR[1] = 0x500
	_, _ = e2.Exec(v)
	v3 := NewVLIW(2, 4)
	v3.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(41), A: GPR(40), Size: 4, Spec: true})
	if _, f := e2.Exec(v3); f != nil {
		t.Fatal(f)
	}
	if !e2.RF.GTag[41] {
		t.Fatal("tag must propagate through speculative loads")
	}
}

func TestMtcrfOfTaggedSourceFaults(t *testing.T) {
	e := &Executor{Mem: mem.New(1 << 16)}
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[1] = 0x500
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true})
	_, _ = e.Exec(v)
	v2 := NewVLIW(1, 4)
	v2.Root = leaf(offpage(0), Parcel{Op: PMtcrf, A: GPR(40), FXM: 0xff})
	if _, f := e.Exec(v2); f == nil {
		t.Fatal("mtcrf of tagged register must fault")
	}
}

func TestSpecCompareTagPropagation(t *testing.T) {
	e := &Executor{Mem: mem.New(1 << 16)}
	e.Mem.InjectFault(0x500, false)
	e.RF.GPR[1] = 0x500
	v := NewVLIW(0, 0)
	v.Root = leaf(offpage(0),
		Parcel{Op: PLoad, D: GPR(40), A: GPR(1), Size: 4, Spec: true})
	_, _ = e.Exec(v)
	v2 := NewVLIW(1, 4)
	v2.Root = leaf(offpage(0),
		Parcel{Op: PCmpI, D: CRF(9), A: GPR(40), Imm: 0, Spec: true})
	if _, f := e.Exec(v2); f != nil {
		t.Fatal(f)
	}
	if !e.RF.CRTag[9] {
		t.Fatal("speculative compare of tagged reg must tag the field")
	}
	// Branching on the tagged field raises the deferred fault.
	v3 := NewVLIW(2, 8)
	v3.Root = &Node{
		Cond:  &Cond{CRF: 9, Bit: ppc.CrEQ, Sense: true},
		Taken: leaf(offpage(1)),
		Fall:  leaf(offpage(2)),
	}
	if _, f := e.Exec(v3); f == nil {
		t.Fatal("branch on tagged condition must fault")
	}
}

// deepTree builds a 3-level tree: 8 leaves, leaf id = the path's branch
// directions read as a binary number behind a leading 1.
func deepTree() *VLIW {
	v := NewVLIW(0, 0)
	var rec func(d int, id uint32) *Node
	rec = func(d int, id uint32) *Node {
		if d == 3 {
			return leaf(offpage(id))
		}
		return &Node{
			Cond:  &Cond{CRF: uint8(d), Bit: ppc.CrEQ, Sense: true},
			Taken: rec(d+1, id*2+1),
			Fall:  rec(d+1, id*2),
		}
	}
	v.Root = rec(0, 1)
	return v
}

// deepTreeEntry sets cr0..cr2 so that the tree takes the branches in mask
// (bit d: the depth-d split is taken) and returns the leaf it must reach.
func deepTreeEntry(e *Executor, mask int) uint32 {
	want := uint32(1)
	for d := 0; d < 3; d++ {
		if mask>>d&1 != 0 {
			e.RF.CRFv[d] = 0x2
			want = want*2 + 1
		} else {
			want = want * 2
		}
	}
	return want
}

func TestDeepTreeAllPaths(t *testing.T) {
	// Every CR pattern must reach the right leaf.
	for mask := 0; mask < 8; mask++ {
		e := &Executor{Mem: mem.New(1 << 12)}
		want := deepTreeEntry(e, mask)
		exit, f := e.Exec(deepTree())
		if f != nil {
			t.Fatal(f)
		}
		if exit.Target != want {
			t.Fatalf("mask %03b: leaf %d, want %d", mask, exit.Target, want)
		}
	}
}

// swapChain builds one VLIW of parallel copies that permute r0..r7 and
// the entry values to permute.
func swapChain(rng *rand.Rand) (v *VLIW, vals []uint32, perm []int) {
	const n = 8
	vals = make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	perm = rng.Perm(n)
	v = NewVLIW(0, 0)
	node := leaf(offpage(0))
	for d, s := range perm {
		node.Ops = append(node.Ops, Parcel{Op: PCopy, D: GPR(uint8(d)), A: GPR(uint8(s))})
	}
	v.Root = node
	return v, vals, perm
}

// TestRandomParallelSwapChains: permutations computed with parallel
// semantics must match computing them functionally.
func TestRandomParallelSwapChains(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		v, vals, perm := swapChain(rng)
		e := &Executor{Mem: mem.New(1 << 12)}
		copy(e.RF.GPR[:], vals)
		if _, f := e.Exec(v); f != nil {
			t.Fatal(f)
		}
		for d, s := range perm {
			if e.RF.GPR[d] != vals[s] {
				t.Fatalf("trial %d: r%d = %#x, want r%d's old value %#x",
					trial, d, e.RF.GPR[d], s, vals[s])
			}
		}
	}
}
