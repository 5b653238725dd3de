package vliw

import (
	"bytes"
	"testing"
)

// TestCloneGroupFidelity: a clone must re-encode byte-identically to its
// source — the same bar the persistent cache's decode path is held to.
func TestCloneGroupFidelity(t *testing.T) {
	g := sampleGroup()
	g.BaseInsts = 7
	g.Parcels = 19
	want, err := EncodeGroup(g)
	if err != nil {
		t.Fatalf("encode source: %v", err)
	}
	c := CloneGroup(g)
	got, err := EncodeGroup(c)
	if err != nil {
		t.Fatalf("encode clone: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("clone re-encode differs from source (%d vs %d bytes)", len(want), len(got))
	}
	if c.BaseInsts != g.BaseInsts || c.Parcels != g.Parcels || c.Entry != g.Entry {
		t.Fatalf("clone stats differ: %+v vs %+v", c, g)
	}
}

// TestCloneGroupIsolation: mutating a clone the way a machine does —
// layout addresses, chain patches, parcel edits — must not leak into the
// source, and ExitNext successors must point at the clone's own VLIWs.
func TestCloneGroupIsolation(t *testing.T) {
	g := sampleGroup()
	c := CloneGroup(g)
	for i, v := range c.VLIWs {
		if v == g.VLIWs[i] {
			t.Fatalf("VLIW %d shared between clone and source", i)
		}
	}
	// Every ExitNext in the clone must resolve inside the clone.
	idx := make(map[*VLIW]bool, len(c.VLIWs))
	for _, v := range c.VLIWs {
		idx[v] = true
	}
	for _, v := range c.VLIWs {
		v.Walk(func(n *Node) {
			if n.Leaf() && n.Exit.Kind == ExitNext && !idx[n.Exit.Next] {
				t.Fatalf("clone ExitNext points outside the clone")
			}
		})
	}
	// Mutate the clone; the source must be untouched.
	c.VLIWs[0].Addr = 0xdead
	c.VLIWs[0].Root.Ops[0].Imm = 99
	c.VLIWs[0].Root.Taken.Exit.Chain = &Group{}
	c.VLIWs[0].Root.Cond.Bit = 3
	if g.VLIWs[0].Addr == 0xdead || g.VLIWs[0].Root.Ops[0].Imm == 99 ||
		g.VLIWs[0].Root.Taken.Exit.Chain != nil || g.VLIWs[0].Root.Cond.Bit == 3 {
		t.Fatalf("clone mutation leaked into source")
	}
}

// TestCloneGroupDropsChains: chain links are per-machine dispatch state; a
// clone must start unchained like a freshly decoded group.
func TestCloneGroupDropsChains(t *testing.T) {
	g := sampleGroup()
	g.VLIWs[0].Root.Taken.Exit.Chain = &Group{}
	c := CloneGroup(g)
	for _, v := range c.VLIWs {
		v.Walk(func(n *Node) {
			if n.Leaf() && n.Exit.Chain != nil {
				t.Fatalf("clone carried a chain link")
			}
		})
	}
}

// TestCloneGroupAllocs: a clone allocates the same few times whatever the
// group's size: the group, its VLIW pointers and one array each of VLIWs,
// nodes, conditions and parcels.
func TestCloneGroupAllocs(t *testing.T) {
	for _, size := range []int{1, 4, 32} {
		g := chainGroup(size)
		c := CloneGroup(g)
		if len(c.VLIWs) != size || c.VLIWs[size-1].Root.Fall.Exit.Kind != ExitOffpage {
			t.Fatalf("size %d: clone has %d VLIWs", size, len(c.VLIWs))
		}
		for i, v := range c.VLIWs[:size-1] {
			if v.Root.Fall.Exit.Next != c.VLIWs[i+1] {
				t.Fatalf("size %d: VLIW %d's ExitNext does not reach the clone's VLIW %d", size, i, i+1)
			}
		}
		if a := testing.AllocsPerRun(20, func() { CloneGroup(g) }); a != 6 {
			t.Errorf("size %d: %.0f allocations per clone, want 6", size, a)
		}
	}
}

// chainGroup builds a group of size VLIWs, each a condition over two
// leaves, linked through their fall-through leaves by ExitNext.
func chainGroup(size int) *Group {
	g := &Group{Entry: 0x1000}
	for i := 0; i < size; i++ {
		v := NewVLIW(i, uint32(0x1000+8*i))
		v.Root = &Node{
			Ops:   []Parcel{{Op: PAddI, D: GPR(3), A: GPR(3), Imm: 1, EndsInst: true}},
			Cond:  &Cond{CRF: 0, Bit: 2, Sense: true},
			Taken: &Node{Exit: Exit{Kind: ExitEntry, Target: 0x1000}},
			Fall:  &Node{Ops: []Parcel{{Op: PNop, EndsInst: true}}, Exit: Exit{Kind: ExitOffpage, Target: 0x2000}},
		}
		if i > 0 {
			g.VLIWs[i-1].Root.Fall.Exit = Exit{Kind: ExitNext, Next: v}
		}
		g.VLIWs = append(g.VLIWs, v)
	}
	return g
}
