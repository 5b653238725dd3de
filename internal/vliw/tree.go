package vliw

import (
	"fmt"
	"math"
	"strings"
)

// Cond is a condition test on one CR bit, evaluated from the register
// state at VLIW entry.
type Cond struct {
	CRF   uint8 // condition field 0..15 (may be a renamed field)
	Bit   uint8 // bit within the field (ppc.CrLT..CrSO)
	Sense bool  // branch (Taken child) when the bit equals Sense
}

func (c Cond) String() string {
	names := [4]string{"lt", "gt", "eq", "so"}
	op := "if"
	if !c.Sense {
		op = "ifnot"
	}
	return fmt.Sprintf("%s cr%d.%s", op, c.CRF, names[c.Bit&3])
}

// ExitKind classifies what happens at a leaf of a VLIW tree.
type ExitKind uint8

const (
	// ExitNext continues with the next VLIW of the same group (Next).
	ExitNext ExitKind = iota
	// ExitEntry branches to base-architecture address Target on the same
	// translation page (an intra-page entry-point branch).
	ExitEntry
	// ExitOffpage is a direct cross-page branch to base address Target
	// (GO_ACROSS_PAGE with a compile-time target, §3.4).
	ExitOffpage
	// ExitIndirect branches via the LR or CTR register (Via); the target
	// is read at run time and goes through the cross-page mechanism.
	ExitIndirect
	// ExitSyscall performs the sc service and continues at Target.
	ExitSyscall
	// ExitInterp asks the VMM to interpret from Target (unsupported or
	// intentionally untranslated code).
	ExitInterp
)

func (k ExitKind) String() string {
	return [...]string{"next", "entry", "offpage", "indirect", "syscall", "interp"}[k]
}

// Exit is the control target at a leaf. Its fields are ordered so that it
// packs into 24 bytes, which keeps a Node at 80.
type Exit struct {
	Kind   ExitKind
	Via    RegRef // LR or CTR for ExitIndirect
	Target uint32 // base-architecture address for entry/offpage/syscall/interp
	Next   *VLIW  // successor for ExitNext

	// Chain, when non-nil, is a translated group on the same page that the
	// VMM resolved this exit to, so later trips skip the dispatch lookup —
	// the software analogue of §3.4's resolved cross-page branch becoming
	// a direct VLIW address. On an ExitEntry leaf it is the group for
	// Target, recorded the first time the exit is resolved. On an
	// ExitSyscall or ExitIndirect leaf it is a one-entry cache of the
	// group the exit last continued to, refilled when the next target
	// differs. Links are severed whenever the page's translation is
	// invalidated (see PageTranslation.Unchain). Observation hooks do not
	// turn chaining off: a chained transfer runs the same VLIWs and calls
	// the same hooks as an unchained one, so chaining changes wall-clock
	// time, never the modeled machine.
	Chain *Group
}

func (e Exit) String() string {
	switch e.Kind {
	case ExitNext:
		if e.Next != nil {
			return fmt.Sprintf("goto V%d", e.Next.ID)
		}
		return "goto <nil>"
	case ExitIndirect:
		return "goto " + e.Via.String()
	default:
		return fmt.Sprintf("%s 0x%x", e.Kind, e.Target)
	}
}

// Node is one node of a VLIW tree. Ops execute when the taken path reaches
// the node; then either Cond splits the path or Exit leaves the VLIW.
type Node struct {
	Ops   []Parcel
	Cond  *Cond
	Taken *Node
	Fall  *Node
	Exit  Exit

	// What the executor keeps of Ops, filled on the node's first run
	// (fill): ends is one more than the number of EndsInst parcels (zero
	// until then), and Ops[lead:len(Ops)-trail] holds every parcel but the
	// leading and trailing nops. A nop only marks the end of a base
	// instruction, which ends has counted. They fill the 8 bytes the Exit
	// leaves of the Node's 80, and Ops must not change once the node ran.
	ends        uint32
	lead, trail uint16
}

// fill computes the node's executor fields on its first run and returns
// ends. A run of nops longer than a uint16 is trimmed only in part, which
// leaves the rest for the executor to step over one by one.
func (n *Node) fill() uint32 {
	ends := uint32(1)
	for i := range n.Ops {
		if n.Ops[i].EndsInst {
			ends++
		}
	}
	lead, trail := 0, 0
	for lead < len(n.Ops) && n.Ops[lead].Op == PNop {
		lead++
	}
	for trail < len(n.Ops)-lead && n.Ops[len(n.Ops)-1-trail].Op == PNop {
		trail++
	}
	n.ends = ends
	n.lead, n.trail = uint16(min(lead, math.MaxUint16)), uint16(min(trail, math.MaxUint16))
	return ends
}

// Leaf reports whether the node terminates a path.
func (n *Node) Leaf() bool { return n.Cond == nil }

// VLIW is one tree instruction.
type VLIW struct {
	ID   int
	Root *Node

	// EntryBase is the base-architecture address of the next instruction
	// to complete when this VLIW is entered. Every VLIW boundary is a
	// precise base-instruction boundary (Chapter 2), so rolling a VLIW
	// back and resuming at EntryBase is always architecturally exact.
	EntryBase uint32

	// Addr is the VLIW's address in the translated code area, assigned by
	// the page layout (n*N + VLIW_BASE scheme of Chapter 3), and Bytes is
	// its encoded size there (for instruction-cache simulation).
	Addr  uint32
	Bytes int

	// Resource usage (bounded by a Config during translation).
	NALU, NMem, NBr int

	// Translator bookkeeping: bit i set means non-architected GPR
	// (FirstNonArchGPR+i) is unused in this VLIW; likewise for fields.
	FreeGPR uint32
	FreeCRF uint8
}

// NewVLIW returns an empty VLIW with all rename registers free.
func NewVLIW(id int, entryBase uint32) *VLIW {
	return &VLIW{
		ID:        id,
		Root:      &Node{},
		EntryBase: entryBase,
		FreeGPR:   0xffffffff,
		FreeCRF:   0xff,
	}
}

// DeoptRec describes one architected result that, at some precise-
// exception boundary of a tier-2 (deferred-commit) group, has been
// computed into a rename register but not yet committed. The §3.5 scan
// walk uses these records to reconstruct exact architected state when a
// tier-2 translation deoptimizes: the pending value is read out of Ren
// and applied to Arch, in the order the records were attached.
type DeoptRec struct {
	Arch RegRef // architected home the result belongs to
	Ren  RegRef // rename register currently holding it
	Addr uint32 // base instruction that produced the result
	// Verify marks a speculated load bypassing a store: its pending value
	// cannot be trusted without a memory re-check, so reconstruction
	// through this record is inexact (the deopt falls back to the group-
	// entry checkpoint, which is always correct).
	Verify bool
}

// Group is the tree of VLIWs produced by translating one entry point
// (CreateVLIWGroupForEntry in the paper).
type Group struct {
	Entry uint32 // base-architecture entry address
	VLIWs []*VLIW

	// BaseInsts is the number of distinct base instructions scheduled
	// into the group (for code-explosion statistics).
	BaseInsts int
	// Parcels is the total parcel count (for translation cost modeling).
	Parcels int

	// Tier records the translation effort that produced the group: 1 for
	// the fast one-pass tier, 2 for an optimizing retranslation along a
	// measured hot path. Zero reads as tier 1 (groups decoded from the
	// persistent cache predate the field).
	Tier uint8

	// Deopt is the commit-record table for tier-2 groups, indexed by
	// Parcel.Deopt-1 from EndsInst boundary parcels. Nil for tier-1
	// groups. Not encoded (tier-2 groups are never cached).
	Deopt [][]DeoptRec
}

// TierOf returns the group's effective tier (zero value reads as 1).
func (g *Group) TierOf() uint8 {
	if g.Tier == 0 {
		return 1
	}
	return g.Tier
}

// Dump renders the group for debugging and the quickstart example.
func (g *Group) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "group @0x%x (%d VLIWs, %d base insts)\n", g.Entry, len(g.VLIWs), g.BaseInsts)
	for _, v := range g.VLIWs {
		fmt.Fprintf(&b, "VLIW%d (entrybase 0x%x):\n", v.ID, v.EntryBase)
		dumpNode(&b, v.Root, 1)
	}
	return b.String()
}

func dumpNode(b *strings.Builder, n *Node, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, p := range n.Ops {
		fmt.Fprintf(b, "%s%s\n", ind, p)
	}
	if n.Leaf() {
		fmt.Fprintf(b, "%s-> %s\n", ind, n.Exit)
		return
	}
	fmt.Fprintf(b, "%s%s:\n", ind, n.Cond)
	dumpNode(b, n.Taken, depth+1)
	fmt.Fprintf(b, "%selse:\n", ind)
	dumpNode(b, n.Fall, depth+1)
}

// Walk visits every node of the VLIW tree in preorder.
func (v *VLIW) Walk(f func(*Node)) { walkNode(v.Root, f) }

func walkNode(n *Node, f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	if !n.Leaf() {
		walkNode(n.Taken, f)
		walkNode(n.Fall, f)
	}
}

// CountParcels returns the number of parcels in the tree.
func (v *VLIW) CountParcels() int {
	n := 0
	v.Walk(func(nd *Node) { n += len(nd.Ops) })
	return n
}
