package vliw

import (
	"fmt"
	"math/bits"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// Stats counts events during VLIW execution.
type Stats struct {
	VLIWs     uint64 // tree instructions executed to completion
	BaseInsts uint64 // base instructions completed (EndsInst parcels)
	Loads     uint64
	Stores    uint64
	Aliases   uint64 // load-verify mismatches (Table 5.7)
	Rollbacks uint64 // VLIWs rolled back (exceptions + aliases)
}

// Sub returns the field-wise difference s - o: the executor work done
// between two snapshots (telemetry's per-dispatch-run accounting).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		VLIWs:     s.VLIWs - o.VLIWs,
		BaseInsts: s.BaseInsts - o.BaseInsts,
		Loads:     s.Loads - o.Loads,
		Stores:    s.Stores - o.Stores,
		Aliases:   s.Aliases - o.Aliases,
		Rollbacks: s.Rollbacks - o.Rollbacks,
	}
}

// Fault reports that a VLIW could not complete. The register file has been
// rolled back to the VLIW's entry state, which by construction is a precise
// base-instruction boundary; execution resumes by interpreting from Resume.
//
// The Fault that Exec returns belongs to the executor, so a rollback
// allocates nothing: it stays valid until the executor's next Exec, which
// may overwrite it. Copy it to keep it longer.
type Fault struct {
	VLIW    *VLIW
	Node    *Node  // node holding the faulting parcel (nil for condition faults)
	Parcel  int    // index within Node.Ops, -1 for condition/store-phase faults
	StorePC uint32 // base address of the faulting store (store-phase faults only; 0 otherwise)
	Resume  uint32
	Cause   error // underlying storage fault, nil for pure alias recovery
	Alias   bool  // load-verify mismatch rather than an exception
	CodeMod bool  // store into a protected (translated-code) unit (§3.2)
}

func (f *Fault) Error() string {
	if f.CodeMod {
		return fmt.Sprintf("vliw: store into translated code in VLIW%d, resume at %#x", f.VLIW.ID, f.Resume)
	}
	if f.Alias {
		return fmt.Sprintf("vliw: load-store alias detected in VLIW%d, resume at %#x", f.VLIW.ID, f.Resume)
	}
	return fmt.Sprintf("vliw: exception in VLIW%d (resume %#x): %v", f.VLIW.ID, f.Resume, f.Cause)
}

func (f *Fault) Unwrap() error { return f.Cause }

type specRec struct {
	valid  bool
	addr   uint32
	size   uint8
	signed bool
}

type pendingStore struct {
	addr uint32
	size uint8
	val  uint32
	pc   uint32 // originating base-instruction address
}

// Executor runs tree VLIW instructions against a register file and the
// base architecture's memory.
//
// A VLIW has parallel semantics: every parcel reads the register state at
// VLIW entry. Instead of snapshotting the whole register file per Exec (a
// ~1KB copy whose embedded fault pointers drag GC write barriers into the
// hot loop), the executor writes through to RF and keeps a per-register
// shadow of the entry value, validated by a generation counter that a new
// VLIW bumps for free. Reads consult the shadow, so parcels still observe
// entry state; rollback restores just the registers the VLIW dirtied.
//
// The hooks run inside a group run (Exec), where the VMM does not look at
// the machine between VLIWs. OnMem, OnFetch, FaultHook and AliasHook may
// count, but must not change the machine: in particular none of them may
// mark a page's code modified, because the VMM drains modified pages only
// when Exec returns. Nothing else inside Exec marks one either, since a
// store into translated code rolls its VLIW back before any write
// (Fault.CodeMod). Only OnCommit may, and it then stops the run.
type Executor struct {
	Mem   *mem.Memory
	RF    RegFile
	Stats Stats

	// OnMem observes data accesses (cache models). Stores are reported
	// when they are applied at the end of the VLIW.
	OnMem func(addr uint32, size int, write bool)
	// OnFetch observes each VLIW instruction fetch (instruction cache).
	OnFetch func(v *VLIW)

	// OnCommit, when non-nil, is called after each committed VLIW whose
	// exit is ExitNext, before the run continues: the precise boundary
	// between two VLIWs of a group run. When it reports true, Exec stops
	// there and returns the VLIW's leaf, so the caller can act before the
	// next VLIW runs. Nil costs one test per VLIW.
	OnCommit func() (stop bool)

	// Limit, when non-zero, stops a group run before any VLIW after the
	// first once Stats.BaseInsts has reached it: the VMM's instruction
	// budget, checked where the budget is checked between VLIWs.
	Limit uint64

	// Steps accumulates one PathStep per VLIW attempted since the last
	// ResetPath. The VMM resets it at each group entry and replays it for
	// the §3.5 exception scan. The log is deliberately pointer-free: a
	// []*Node log would pay a GC write barrier on every node visited in
	// the hot loop, and the node sequence is fully reconstructible from
	// the VLIW and its recorded branch directions.
	Steps []PathStep

	// Journal, when non-nil, records each store's overwritten bytes so a
	// group-granular checkpoint can be rolled back (the imprecise-mode
	// recovery standing in for Appendix B's resume_vliw).
	Journal *StoreJournal

	// AddrXlate, when non-nil, maps data effective addresses through the
	// base architecture's translation (the DTLB of Chapter 4). A fault on
	// a speculative load tags its destination; on a committed access it
	// rolls the VLIW back like any other storage exception.
	AddrXlate func(vaddr uint32, write bool) (uint32, *mem.Fault)

	// FaultHook, when non-nil, may inject a storage fault into a data
	// access of translated code before the access is performed. pc is the
	// originating base-instruction address. An injected fault behaves
	// exactly like a real storage exception: a speculative load only tags
	// its destination, a committed access rolls the VLIW back. Because the
	// hook is consulted only here — never by the interpreter — the VMM's
	// recovery path re-executes the access cleanly, which is what makes
	// the injection recoverable and therefore chaos-testable.
	FaultHook func(pc, addr uint32, size int, write bool) *mem.Fault

	// AliasHook, when non-nil, may force a load-verify mismatch on the
	// commit copy of a speculated load (pc is the load's base address,
	// addr its effective address). A forced mismatch takes the ordinary
	// alias recovery path: roll back and re-execute interpretively.
	AliasHook func(pc, addr uint32) bool

	spec [NumGPR]specRec

	// fault is the Fault the last rolled-back Exec returned.
	fault Fault

	// stores is the reused pending-store queue of the VLIW in flight;
	// owning it here (instead of allocating per Exec) keeps the hot loop
	// allocation-free.
	stores []pendingStore

	// Entry-state shadows: slot n is live when its generation equals gen
	// (bumped once per Exec), in which case old* holds the register's
	// value at VLIW entry and RF holds the in-flight write. Rollback
	// (rare: faults and aliases only) finds the dirty registers by
	// scanning the generation arrays rather than keeping a dirty list,
	// which keeps the common path down to the gen check itself.
	gen        uint64
	genGPR     [NumGPR]uint64
	oldGPR     [NumGPR]uint32
	oldCA      [NumGPR]bool
	oldGTag    [NumGPR]bool
	oldGFault  [NumGPR]*mem.Fault
	genCRF     [NumCRF]uint64
	oldCRFv    [NumCRF]uint8
	oldCRTag   [NumCRF]bool
	oldCRFault [NumCRF]*mem.Fault
	genLR      uint64
	genCTR     uint64
	genXER     uint64
	oldLR      uint32
	oldCTR     uint32
	oldXER     uint32
}

// ClearSpec discards load-verify records (used when the VMM re-enters
// translated code from the interpreter, where no speculation is pending).
func (e *Executor) ClearSpec() {
	for i := range e.spec {
		e.spec[i].valid = false
	}
}

// PathStep is one VLIW's compressed path record: which VLIW ran (by its
// index in the group) and the direction taken at each conditional split,
// in visit order (bit k of Dirs is the k-th split, 1 = Taken). A faulted
// VLIW records a partial step ending at the faulting node.
type PathStep struct {
	VLIWID int32
	NDirs  uint8
	Dirs   uint32
}

// StepNodes appends the node sequence step s visited in group g to buf,
// replaying the recorded branch directions from the VLIW's root.
func StepNodes(buf []*Node, g *Group, s PathStep) []*Node {
	if int(s.VLIWID) >= len(g.VLIWs) {
		return buf
	}
	n := g.VLIWs[s.VLIWID].Root
	for k := uint8(0); ; k++ {
		buf = append(buf, n)
		if n.Leaf() || k >= s.NDirs {
			return buf
		}
		if s.Dirs>>k&1 != 0 {
			n = n.Taken
		} else {
			n = n.Fall
		}
	}
}

// ResetPath truncates the step log (a new group entry begins).
func (e *Executor) ResetPath() {
	e.Steps = e.Steps[:0]
}

// read returns the VLIW-entry value of r — the parallel-semantics read —
// along with its exception tag and fault payload.
func (e *Executor) read(r RegRef) (uint32, bool, *mem.Fault) {
	switch r.Kind {
	case RGPR:
		if e.genGPR[r.N] == e.gen {
			return e.oldGPR[r.N], e.oldGTag[r.N], e.oldGFault[r.N]
		}
		return e.RF.GPR[r.N], e.RF.GTag[r.N], e.RF.GFault[r.N]
	case RCRF:
		if e.genCRF[r.N] == e.gen {
			return uint32(e.oldCRFv[r.N]), e.oldCRTag[r.N], e.oldCRFault[r.N]
		}
		return uint32(e.RF.CRFv[r.N]), e.RF.CRTag[r.N], e.RF.CRFault[r.N]
	case RLR:
		if e.genLR == e.gen {
			return e.oldLR, false, nil
		}
		return e.RF.LR, false, nil
	case RCTR:
		if e.genCTR == e.gen {
			return e.oldCTR, false, nil
		}
		return e.RF.CTR, false, nil
	case RXER:
		if e.genXER == e.gen {
			return e.oldXER, false, nil
		}
		return e.RF.XER, false, nil
	}
	return 0, false, nil
}

// entryXER returns the XER value at VLIW entry.
func (e *Executor) entryXER() uint32 {
	x := e.RF.XER
	if e.genXER == e.gen {
		x = e.oldXER
	}
	return x
}

// entryCA returns GPR n's carry-extender bit at VLIW entry.
func (e *Executor) entryCA(n uint8) bool {
	if e.genGPR[n] == e.gen {
		return e.oldCA[n]
	}
	return e.RF.CA[n]
}

// carryOf returns the carry bit a parcel should consume at VLIW entry: the
// XER CA bit when src is None, otherwise the extender bit of a renamed
// register.
func (e *Executor) carryOf(src RegRef) uint32 {
	if src.Kind == RNone {
		if e.entryXER()&ppc.XerCA != 0 {
			return 1
		}
		return 0
	}
	if src.Kind == RGPR && e.entryCA(src.N) {
		return 1
	}
	return 0
}

// save shadows r's current (entry) state before its first write in this
// VLIW, so reads keep seeing entry values and rollback can restore it.
// The fault-pointer slots are only stored when one side is non-nil: a
// pointer store always pays a GC write barrier, and faults are rare
// enough that the nil-over-nil case dominates.
func (e *Executor) save(r RegRef) {
	switch r.Kind {
	case RGPR:
		e.saveGPR(r.N)
	case RCRF:
		e.saveCRF(r.N)
	case RLR:
		if e.genLR != e.gen {
			e.genLR = e.gen
			e.oldLR = e.RF.LR
		}
	case RCTR:
		if e.genCTR != e.gen {
			e.genCTR = e.gen
			e.oldCTR = e.RF.CTR
		}
	case RXER:
		if e.genXER != e.gen {
			e.genXER = e.gen
			e.oldXER = e.RF.XER
		}
	}
}

// gpr returns GPR n as of VLIW entry and whether it is free of an
// exception tag. It loads both the live and the shadowed value so the
// compiler selects between them without a branch, which BenchmarkExec
// measured faster than branching on the generation.
func (e *Executor) gpr(n uint8) (uint32, bool) {
	v, tag := e.RF.GPR[n], e.RF.GTag[n]
	if e.genGPR[n] == e.gen {
		v, tag = e.oldGPR[n], e.oldGTag[n]
	}
	return v, !tag
}

// crf is gpr for condition field n.
func (e *Executor) crf(n uint8) (uint32, bool) {
	v, tag := e.RF.CRFv[n], e.RF.CRTag[n]
	if e.genCRF[n] == e.gen {
		v, tag = e.oldCRFv[n], e.oldCRTag[n]
	}
	return uint32(v), !tag
}

// get reads any operand as of VLIW entry (None reads as zero): the
// general path for parcels whose operands are not the kinds their
// primitive's sig names.
func (e *Executor) get(r RegRef) (uint32, bool) {
	v, tag, _ := e.read(r)
	return v, !tag
}

// A write to a GPR or condition field is two calls in sequence, each
// small enough for the compiler to inline into Exec: saveGPR shadows the
// register's entry state on the VLIW's first write, writeGPR writes
// through.

// saveGPR shadows GPR n's entry state before its first write in this VLIW.
func (e *Executor) saveGPR(n uint8) {
	if e.genGPR[n] != e.gen {
		e.genGPR[n] = e.gen
		e.oldGPR[n] = e.RF.GPR[n]
		e.oldCA[n] = e.RF.CA[n]
		e.oldGTag[n] = e.RF.GTag[n]
		if e.oldGFault[n] != nil || e.RF.GFault[n] != nil {
			e.oldGFault[n] = e.RF.GFault[n]
		}
	}
}

// writeGPR writes v through to GPR n. The write clears the register's tag,
// carry extender and load-verify record; a speculated load re-arms the
// record after.
func (e *Executor) writeGPR(n uint8, v uint32) {
	e.RF.GPR[n] = v
	e.RF.GTag[n] = false
	if e.RF.GFault[n] != nil {
		e.RF.GFault[n] = nil
	}
	e.RF.CA[n] = false
	if e.spec[n].valid {
		e.spec[n].valid = false
	}
}

// saveCRF is saveGPR for condition field n.
func (e *Executor) saveCRF(n uint8) {
	if e.genCRF[n] != e.gen {
		e.genCRF[n] = e.gen
		e.oldCRFv[n] = e.RF.CRFv[n]
		e.oldCRTag[n] = e.RF.CRTag[n]
		if e.oldCRFault[n] != nil || e.RF.CRFault[n] != nil {
			e.oldCRFault[n] = e.RF.CRFault[n]
		}
	}
}

// writeCRF is writeGPR for condition field n (the low four bits of v).
func (e *Executor) writeCRF(n uint8, v uint32) {
	e.RF.CRFv[n] = uint8(v & 0xf)
	e.RF.CRTag[n] = false
	if e.RF.CRFault[n] != nil {
		e.RF.CRFault[n] = nil
	}
}

// put writes any destination through: the general path matching get.
func (e *Executor) put(d RegRef, v uint32) {
	switch d.Kind {
	case RGPR:
		e.saveGPR(d.N)
		e.writeGPR(d.N, v)
	case RCRF:
		e.saveCRF(d.N)
		e.writeCRF(d.N, v)
	default:
		e.save(d)
		e.RF.Write(d, v)
	}
}

// setTagged marks d as holding a faulted speculative result (§2.1).
func (e *Executor) setTagged(d RegRef, f *mem.Fault) {
	e.save(d)
	e.RF.WriteTagged(d, f)
	if d.Kind == RGPR && e.spec[d.N].valid {
		e.spec[d.N].valid = false
	}
}

// setCarry records a carry-out (XER for architected destinations, the
// extender bit for renamed ones), shadowing whichever location it touches.
func (e *Executor) setCarry(d RegRef, ca bool) {
	if d.Kind == RGPR && !d.Arch() {
		e.save(d)
	} else {
		e.save(XER)
	}
	e.RF.SetCarry(d, ca)
}

// rollback restores every register the in-flight VLIW dirtied to its
// shadowed entry value, scanning the generation arrays for live shadows.
// Only fault paths pay this walk; the common commit path pays nothing.
func (e *Executor) rollback() {
	for n := range e.genGPR {
		if e.genGPR[n] == e.gen {
			e.RF.GPR[n] = e.oldGPR[n]
			e.RF.CA[n] = e.oldCA[n]
			e.RF.GTag[n] = e.oldGTag[n]
			if e.RF.GFault[n] != e.oldGFault[n] {
				e.RF.GFault[n] = e.oldGFault[n]
			}
		}
	}
	for n := range e.genCRF {
		if e.genCRF[n] == e.gen {
			e.RF.CRFv[n] = e.oldCRFv[n]
			e.RF.CRTag[n] = e.oldCRTag[n]
			if e.RF.CRFault[n] != e.oldCRFault[n] {
				e.RF.CRFault[n] = e.oldCRFault[n]
			}
		}
	}
	if e.genLR == e.gen {
		e.RF.LR = e.oldLR
	}
	if e.genCTR == e.gen {
		e.RF.CTR = e.oldCTR
	}
	if e.genXER == e.gen {
		e.RF.XER = e.oldXER
	}
}

// Exec runs a group run: VLIW v and, through each ExitNext exit, the
// VLIWs after it, as the hardware runs a group's tree instructions back to
// back. The run ends when a VLIW leaves through any other exit or faults,
// or before a VLIW after the first when OnCommit asks it to stop or
// Stats.BaseInsts has reached Limit. Exec returns the leaf whose exit the
// last committed VLIW took — an ExitNext leaf when the run was stopped,
// which Exec(leaf.Exit.Next) continues — or a nil leaf and the fault.
//
// Each VLIW has parallel semantics: all its conditions and parcel inputs
// are read from the state at its entry, and its stores are validated and
// applied only after its whole taken path succeeds. On a fault the
// register file is rolled back to the faulting VLIW's entry state and its
// stores are dropped; the VLIWs the run committed before it stay
// committed. The Fault returned is the executor's and stays valid until
// the next Exec.
//
// A node's first run fills its executor fields (Node.fill): each visit
// then adds the node's completed instructions at once, and the parcel loop
// runs only the parcels between the node's leading and trailing nops.
// Each of those runs through one switch on its resolved handler byte
// (handler.go); a parcel's first run resolves it. The cases of the
// primitives the translator emits most run their direct operand shape
// without a call: they read with gpr or crf, write with the saveGPR and
// writeGPR (saveCRF and writeCRF) pair, and continue with the next parcel.
// A tagged source or any other shape takes result or field, which defer
// the exception or write through put. This holds only while the compiler
// inlines those helpers into Exec, which make inline-check verifies.
func (e *Executor) Exec(v *VLIW) (*Node, *Fault) {
next:
	if e.OnFetch != nil {
		e.OnFetch(v)
	}
	e.stores = e.stores[:0]
	e.gen++
	completed := uint64(0) // dropped with the rest if the VLIW faults
	step := PathStep{VLIWID: int32(v.ID)}

	n := v.Root
	for {
		ends := n.ends
		if ends == 0 {
			ends = n.fill()
		}
		completed += uint64(ends) - 1
		ops := n.Ops[n.lead : len(n.Ops)-int(n.trail)]
		for i := range ops {
			p := &ops[i]
			h := p.h
			if h == 0 {
				h = p.resolve()
			}
			direct := h&hDirect != 0
			var a, b, r uint32
			var ok, okB bool
			var err error
			switch Prim(h & hPrim) {
			case PNop: // an interior nop; ends has counted it
				continue
			case PLI:
				r = uint32(p.Imm)
				if direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, true)
			case PLIS:
				r = uint32(p.Imm) << 16
				if direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, true)
			case PAddI:
				if direct {
					a, ok = e.gpr(p.A.N)
				} else {
					a, ok = e.get(p.A)
				}
				r = a + uint32(p.Imm)
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PAddIS:
				a, ok = e.srcA(p)
				err = e.result(p, a+uint32(p.Imm)<<16, ok)
			case PAddIC:
				a, ok = e.srcA(p)
				err = e.carry(p, a, uint32(p.Imm), 0, ok)
			case PAdd:
				if direct {
					a, ok = e.gpr(p.A.N)
					b, okB = e.gpr(p.B.N)
				} else {
					a, ok = e.get(p.A)
					b, okB = e.get(p.B)
				}
				r, ok = a+b, ok && okB
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PAddC:
				a, b, ok = e.srcAB(p)
				err = e.carry(p, a, b, 0, ok)
			case PAddE:
				a, b, ok = e.srcAB(p)
				err = e.extended(p, a, b, ok)
			case PSubf:
				if direct {
					a, ok = e.gpr(p.A.N)
					b, okB = e.gpr(p.B.N)
				} else {
					a, ok = e.get(p.A)
					b, okB = e.get(p.B)
				}
				r, ok = b-a, ok && okB
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PSubfC:
				a, b, ok = e.srcAB(p)
				err = e.carry(p, ^a, b, 1, ok)
			case PSubfE:
				a, b, ok = e.srcAB(p)
				err = e.extended(p, ^a, b, ok)
			case PSubfIC:
				a, ok = e.srcA(p)
				err = e.carry(p, ^a, uint32(p.Imm), 1, ok)
			case PNeg:
				a, ok = e.srcA(p)
				err = e.result(p, -a, ok)
			case PMullw:
				if direct {
					a, ok = e.gpr(p.A.N)
					b, okB = e.gpr(p.B.N)
				} else {
					a, ok = e.get(p.A)
					b, okB = e.get(p.B)
				}
				r, ok = a*b, ok && okB
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PMulhwu:
				a, b, ok = e.srcAB(p)
				err = e.result(p, uint32(uint64(a)*uint64(b)>>32), ok)
			case PDivw:
				a, b, ok = e.srcAB(p)
				err = e.result(p, ppc.DivSigned(a, b), ok)
			case PDivwu:
				a, b, ok = e.srcAB(p)
				err = e.result(p, ppc.DivUnsigned(a, b), ok)
			case PMulI:
				a, ok = e.srcA(p)
				err = e.result(p, uint32(int32(a)*p.Imm), ok)

			case PAnd:
				a, b, ok = e.srcAB(p)
				err = e.result(p, a&b, ok)
			case PAndc:
				a, b, ok = e.srcAB(p)
				err = e.result(p, a&^b, ok)
			case POr:
				if direct {
					a, ok = e.gpr(p.A.N)
					b, okB = e.gpr(p.B.N)
				} else {
					a, ok = e.get(p.A)
					b, okB = e.get(p.B)
				}
				r, ok = a|b, ok && okB
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PNor:
				a, b, ok = e.srcAB(p)
				err = e.result(p, ^(a | b), ok)
			case PXor:
				if direct {
					a, ok = e.gpr(p.A.N)
					b, okB = e.gpr(p.B.N)
				} else {
					a, ok = e.get(p.A)
					b, okB = e.get(p.B)
				}
				r, ok = a^b, ok && okB
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PNand:
				a, b, ok = e.srcAB(p)
				err = e.result(p, ^(a & b), ok)
			case PAndI:
				if direct {
					a, ok = e.gpr(p.A.N)
				} else {
					a, ok = e.get(p.A)
				}
				r = a & uint32(p.Imm)
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PAndIS:
				a, ok = e.srcA(p)
				err = e.result(p, a&(uint32(p.Imm)<<16), ok)
			case POrI:
				if direct {
					a, ok = e.gpr(p.A.N)
				} else {
					a, ok = e.get(p.A)
				}
				r = a | uint32(p.Imm)
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case POrIS:
				a, ok = e.srcA(p)
				err = e.result(p, a|uint32(p.Imm)<<16, ok)
			case PXorI:
				a, ok = e.srcA(p)
				err = e.result(p, a^uint32(p.Imm), ok)
			case PXorIS:
				a, ok = e.srcA(p)
				err = e.result(p, a^uint32(p.Imm)<<16, ok)
			case PSlw:
				a, b, ok = e.srcAB(p)
				err = e.result(p, ppc.ShiftLeft(a, b), ok)
			case PSrw:
				a, b, ok = e.srcAB(p)
				err = e.result(p, ppc.ShiftRight(a, b), ok)
			case PSraw:
				a, b, ok = e.srcAB(p)
				r, ca := ppc.ShiftRightAlg(a, b&0x3f)
				err = e.withCarry(p, r, ca, ok)
			case PSrawI:
				a, ok = e.srcA(p)
				r, ca := ppc.ShiftRightAlg(a, uint32(p.SH))
				err = e.withCarry(p, r, ca, ok)
			case PCntlzw:
				a, ok = e.srcA(p)
				err = e.result(p, uint32(bits.LeadingZeros32(a)), ok)
			case PExtsb:
				a, ok = e.srcA(p)
				err = e.result(p, uint32(int32(int8(a))), ok)
			case PExtsh:
				a, ok = e.srcA(p)
				err = e.result(p, uint32(int32(int16(a))), ok)
			case PRlwinm:
				if direct {
					a, ok = e.gpr(p.A.N)
				} else {
					a, ok = e.get(p.A)
				}
				r = bits.RotateLeft32(a, int(p.SH)) & ppc.RotateMask(p.MB, p.ME)
				if ok && direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
					continue
				}
				err = e.result(p, r, ok)
			case PRlwimi:
				a, b, ok = e.srcAB(p) // B is the old destination
				m := ppc.RotateMask(p.MB, p.ME)
				err = e.result(p, bits.RotateLeft32(a, int(p.SH))&m|b&^m, ok)

			case PCmpI:
				if direct {
					a, ok = e.gpr(p.A.N)
				} else {
					a, ok = e.get(p.A)
				}
				r = uint32(ppc.CompareSigned(int32(a), p.Imm, e.entryXER()))
				if ok && direct {
					e.saveCRF(p.D.N)
					e.writeCRF(p.D.N, r)
					continue
				}
				err = e.field(p, r, ok)
			case PCmpLI:
				if direct {
					a, ok = e.gpr(p.A.N)
				} else {
					a, ok = e.get(p.A)
				}
				r = uint32(ppc.CompareUnsigned(a, uint32(p.Imm), e.entryXER()))
				if ok && direct {
					e.saveCRF(p.D.N)
					e.writeCRF(p.D.N, r)
					continue
				}
				err = e.field(p, r, ok)
			case PCmp:
				if direct {
					a, ok = e.gpr(p.A.N)
					b, okB = e.gpr(p.B.N)
				} else {
					a, ok = e.get(p.A)
					b, okB = e.get(p.B)
				}
				r, ok = uint32(ppc.CompareSigned(int32(a), int32(b), e.entryXER())), ok && okB
				if ok && direct {
					e.saveCRF(p.D.N)
					e.writeCRF(p.D.N, r)
					continue
				}
				err = e.field(p, r, ok)
			case PCmpL:
				a, b, ok = e.srcAB(p)
				err = e.field(p, uint32(ppc.CompareUnsigned(a, b, e.entryXER())), ok)

			case PCrand:
				err = e.crLogic(p, ppc.OpCrand)
			case PCror:
				err = e.crLogic(p, ppc.OpCror)
			case PCrxor:
				err = e.crLogic(p, ppc.OpCrxor)
			case PCrnand:
				err = e.crLogic(p, ppc.OpCrnand)
			case PCrnor:
				err = e.crLogic(p, ppc.OpCrnor)
			case PMcrf:
				if direct {
					r, ok = e.crf(p.A.N)
				} else {
					r, ok = e.get(p.A)
				}
				if ok && direct {
					e.saveCRF(p.D.N)
					e.writeCRF(p.D.N, r)
					continue
				}
				err = e.field(p, r, ok)
			case PMfcr:
				err = e.mfcr(p)
			case PMtcrf:
				err = e.mtcrf(p)

			case PCopy:
				if direct {
					r, ok = e.gpr(p.A.N)
				} else {
					r, ok = e.get(p.A)
				}
				if !ok {
					// On a commit copy the deferred exception of §2.1 fires here.
					err = e.deferred(p, e.srcFault(p.A))
					break
				}
				if p.Verify && p.A.Kind == RGPR {
					if err = e.verify(p, r); err != nil {
						break
					}
				}
				if direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
				} else {
					e.put(p.D, r)
				}
				if p.CommitCA && p.A.Kind == RGPR {
					e.commitCA(p.A.N)
				}
				continue

			case PLoad, PStore:
				// The effective address: A+B when Indexed, A+Imm otherwise.
				okB = true
				if direct {
					a, ok = e.gpr(p.A.N)
					if p.Indexed {
						b, okB = e.gpr(p.B.N)
					}
				} else {
					a, ok = e.get(p.A)
					if p.Indexed {
						b, okB = e.get(p.B)
					}
				}
				ea := a + uint32(p.Imm)
				if p.Indexed {
					ea, ok = a+b, ok && okB
				}
				if h&hPrim == uint8(PStore) {
					if direct {
						r, okB = e.gpr(p.D.N)
					} else {
						r, okB = e.get(p.D)
					}
					switch {
					case !okB:
						err = taggedErr(p, e.srcFault(p.D))
					case !ok:
						err = taggedErr(p, e.eaFault(p))
					case e.AddrXlate != nil:
						pa, xf := e.AddrXlate(ea, true)
						if xf != nil {
							err = xf
							break
						}
						ea = pa
					}
					if err != nil {
						break
					}
					e.stores = append(e.stores, pendingStore{addr: ea, size: p.Size, val: r, pc: p.BaseAddr})
					continue
				}
				if !ok {
					err = e.deferred(p, e.eaFault(p))
					break
				}
				if e.AddrXlate != nil || e.FaultHook != nil || e.OnMem != nil {
					var f *mem.Fault
					if ea, f = e.loadHooks(p, ea); f != nil {
						err = e.deferred(p, f)
						break
					}
				}
				if r, err = e.readMem(ea, p.Size, p.Signed); err != nil {
					err = e.loadFault(p, ea, err)
					break
				}
				e.Stats.Loads++
				if direct {
					e.saveGPR(p.D.N)
					e.writeGPR(p.D.N, r)
				} else {
					e.put(p.D, r)
				}
				if p.SpecLoad && p.D.Kind == RGPR {
					e.spec[p.D.N] = specRec{valid: true, addr: ea, size: p.Size, signed: p.Signed}
				}
				continue

			default:
				err = unknownPrim(p)
			}
			if err != nil {
				return e.fail(v, n, int(n.lead)+i, err, step)
			}
		}
		if n.Leaf() {
			break
		}
		fv, ok := e.crf(n.Cond.CRF)
		if !ok {
			return e.fail(v, n, -1, condFault(e.srcFault(CRF(n.Cond.CRF))), step)
		}
		bit := fv>>(3-uint(n.Cond.Bit))&1 != 0
		if bit == n.Cond.Sense {
			step.Dirs |= 1 << step.NDirs
			n = n.Taken
		} else {
			n = n.Fall
		}
		step.NDirs++
	}

	// Two-phase store commit: validate everything, then apply, so a
	// faulting store leaves memory untouched for the rollback.
	for i := range e.stores {
		s := &e.stores[i]
		if e.FaultHook != nil {
			if f := e.FaultHook(s.pc, s.addr, int(s.size), true); f != nil {
				_, flt := e.fail(v, n, -1, f, step)
				if i == 0 {
					// Only the first pending store is attributable: with
					// earlier uncommitted stores in the VLIW the boundary
					// necessarily precedes this one (and a same-pc earlier
					// instance would make the attribution ambiguous).
					flt.StorePC = s.pc
				}
				return nil, flt
			}
		}
		if err := e.Mem.CheckWrite(s.addr, int(s.size)); err != nil {
			_, flt := e.fail(v, n, -1, err, step)
			if i == 0 {
				flt.StorePC = s.pc
			}
			return nil, flt
		}
		if e.Mem.StoreProtected(s.addr, int(s.size)) {
			// A store into translated code: roll back so the VMM can
			// apply it interpretively and invalidate the stale
			// translation before the next instruction runs (§3.2).
			return e.failCodeMod(v, n, step)
		}
	}
	for i := range e.stores {
		s := &e.stores[i]
		if e.OnMem != nil {
			e.OnMem(s.addr, int(s.size), true)
		}
		if e.Journal != nil {
			e.Journal.Record(e.Mem, s.addr, s.size)
		}
		var err error
		switch s.size {
		case 1:
			err = e.Mem.Write8(s.addr, s.val)
		case 2:
			err = e.Mem.Write16(s.addr, s.val)
		default:
			err = e.Mem.Write32(s.addr, s.val)
		}
		if err != nil {
			// CheckWrite passed; this cannot happen.
			return e.fail(v, n, -1, err, step)
		}
		e.Stats.Stores++
	}

	e.Stats.VLIWs++
	e.Stats.BaseInsts += completed
	e.Steps = append(e.Steps, step)
	if n.Exit.Kind != ExitNext || e.OnCommit != nil && e.OnCommit() ||
		e.Limit != 0 && e.Stats.BaseInsts >= e.Limit {
		return n, nil
	}
	v = n.Exit.Next
	goto next
}

// fail rolls the in-flight VLIW back to its entry state — a precise
// base-instruction boundary — logs the (partial) step so the fault scan
// can replay the path, and reports the fault. errAlias reports a
// load-verify mismatch, which carries no cause.
func (e *Executor) fail(v *VLIW, n *Node, idx int, err error, step PathStep) (*Node, *Fault) {
	e.Steps = append(e.Steps, step)
	e.rollback()
	e.Stats.Rollbacks++
	e.fault = Fault{VLIW: v, Node: n, Parcel: idx, Resume: v.EntryBase, Cause: err}
	if err == errAlias {
		e.Stats.Aliases++
		e.fault.Cause, e.fault.Alias = nil, true
	}
	return nil, &e.fault
}

// failCodeMod is fail for a store into a protected unit, which has no
// cause.
func (e *Executor) failCodeMod(v *VLIW, n *Node, step PathStep) (*Node, *Fault) {
	_, f := e.fail(v, n, -1, nil, step)
	f.CodeMod = true
	return nil, f
}

func condFault(f *mem.Fault) error {
	if f != nil {
		return f
	}
	return fmt.Errorf("vliw: branch on tagged condition")
}

// readMem reads size bytes at addr, sign-extending a signed halfword.
func (e *Executor) readMem(addr uint32, size uint8, signed bool) (uint32, error) {
	switch size {
	case 1:
		return e.Mem.Read8(addr)
	case 2:
		v, err := e.Mem.Read16(addr)
		if err == nil && signed {
			v = uint32(int32(int16(v)))
		}
		return v, err
	default:
		return e.Mem.Read32(addr)
	}
}

// StoreJournal records overwritten memory so a span of translated
// execution can be undone. It backs the imprecise-exception recovery: the
// VMM checkpoints the register file at each group entry, journals stores,
// and on a fault restores both and re-executes interpretively.
type StoreJournal struct {
	entries []journalEntry
}

type journalEntry struct {
	addr uint32
	old  [4]byte
	size uint8
}

// Record captures the current bytes at [addr, addr+size).
func (j *StoreJournal) Record(m *mem.Memory, addr uint32, size uint8) {
	var e journalEntry
	e.addr, e.size = addr, size
	for i := uint8(0); i < size && i < 4; i++ {
		v, err := m.Read8(addr + uint32(i))
		if err != nil {
			return // unreadable: the store itself would have faulted
		}
		e.old[i] = byte(v)
	}
	j.entries = append(j.entries, e)
}

// Reset clears the journal (a new checkpoint begins).
func (j *StoreJournal) Reset() { j.entries = j.entries[:0] }

// Len reports the number of journaled stores.
func (j *StoreJournal) Len() int { return len(j.entries) }

// Undo restores all journaled bytes, newest first, and clears the journal.
func (j *StoreJournal) Undo(m *mem.Memory) {
	for i := len(j.entries) - 1; i >= 0; i-- {
		e := j.entries[i]
		for k := uint8(0); k < e.size && k < 4; k++ {
			_ = m.Write8(e.addr+uint32(k), uint32(e.old[k]))
		}
	}
	j.Reset()
}
