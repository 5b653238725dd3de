package vliw

import (
	"fmt"

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
type Executor struct {
	Mem   *mem.Memory
	RF    RegFile
	Stats Stats

	// OnMem observes data accesses (cache models). Stores are reported
	// when they are applied at the end of the VLIW.
	OnMem func(addr uint32, size int, write bool)
	// OnFetch observes each VLIW instruction fetch (instruction cache).
	OnFetch func(v *VLIW)

	// Steps accumulates one PathStep per Exec call since the last
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

// PathStep is one Exec call's compressed path record: which VLIW ran
// (by its index in the group) and the direction taken at each conditional
// split, in visit order (bit k of Dirs is the k-th split, 1 = Taken). A
// faulted Exec records a partial step ending at the faulting node.
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

// StepLeaf returns the final node step s visited in group g.
func StepLeaf(g *Group, s PathStep) *Node {
	if int(s.VLIWID) >= len(g.VLIWs) {
		return nil
	}
	n := g.VLIWs[s.VLIWID].Root
	for k := uint8(0); !n.Leaf() && k < s.NDirs; k++ {
		if s.Dirs>>k&1 != 0 {
			n = n.Taken
		} else {
			n = n.Fall
		}
	}
	return n
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
	if e.genXER == e.gen {
		return e.oldXER
	}
	return e.RF.XER
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
		if e.genGPR[r.N] != e.gen {
			e.genGPR[r.N] = e.gen
			e.oldGPR[r.N] = e.RF.GPR[r.N]
			e.oldCA[r.N] = e.RF.CA[r.N]
			e.oldGTag[r.N] = e.RF.GTag[r.N]
			if e.oldGFault[r.N] != nil || e.RF.GFault[r.N] != nil {
				e.oldGFault[r.N] = e.RF.GFault[r.N]
			}
		}
	case RCRF:
		if e.genCRF[r.N] != e.gen {
			e.genCRF[r.N] = e.gen
			e.oldCRFv[r.N] = e.RF.CRFv[r.N]
			e.oldCRTag[r.N] = e.RF.CRTag[r.N]
			if e.oldCRFault[r.N] != nil || e.RF.CRFault[r.N] != nil {
				e.oldCRFault[r.N] = e.RF.CRFault[r.N]
			}
		}
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
// exception tag.
func (e *Executor) gpr(n uint8) (uint32, bool) {
	if e.genGPR[n] == e.gen {
		return e.oldGPR[n], !e.oldGTag[n]
	}
	return e.RF.GPR[n], !e.RF.GTag[n]
}

// crf is gpr for condition field n.
func (e *Executor) crf(n uint8) (uint32, bool) {
	if e.genCRF[n] == e.gen {
		return uint32(e.oldCRFv[n]), !e.oldCRTag[n]
	}
	return uint32(e.RF.CRFv[n]), !e.RF.CRTag[n]
}

// get reads any operand as of VLIW entry (None reads as zero): the
// general path for parcels whose operands are not the kinds their handler
// names.
func (e *Executor) get(r RegRef) (uint32, bool) {
	v, tag, _ := e.read(r)
	return v, !tag
}

// setGPR writes v through to GPR n, shadowing its entry state on the
// VLIW's first write. The write clears the register's tag, carry extender
// and load-verify record; a speculated load re-arms the record after.
func (e *Executor) setGPR(n uint8, v uint32) {
	if e.genGPR[n] != e.gen {
		e.genGPR[n] = e.gen
		e.oldGPR[n] = e.RF.GPR[n]
		e.oldCA[n] = e.RF.CA[n]
		e.oldGTag[n] = e.RF.GTag[n]
		if e.oldGFault[n] != nil || e.RF.GFault[n] != nil {
			e.oldGFault[n] = e.RF.GFault[n]
		}
	}
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

// setCRF is setGPR for condition field n (the low four bits of v).
func (e *Executor) setCRF(n uint8, v uint32) {
	if e.genCRF[n] != e.gen {
		e.genCRF[n] = e.gen
		e.oldCRFv[n] = e.RF.CRFv[n]
		e.oldCRTag[n] = e.RF.CRTag[n]
		if e.oldCRFault[n] != nil || e.RF.CRFault[n] != nil {
			e.oldCRFault[n] = e.RF.CRFault[n]
		}
	}
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
		e.setGPR(d.N, v)
	case RCRF:
		e.setCRF(d.N, v)
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

// Exec executes one VLIW with parallel semantics: all conditions and all
// parcel inputs are read from the state at entry, stores are validated and
// applied only after the whole taken path succeeds. On any fault the
// register file is rolled back to the entry state and memory is untouched.
// Each parcel runs through its resolved handler (handler.go); a parcel's
// first run resolves it.
func (e *Executor) Exec(v *VLIW) (Exit, *Fault) {
	if e.OnFetch != nil {
		e.OnFetch(v)
	}
	e.stores = e.stores[:0]
	e.gen++
	completed := uint64(0)
	step := PathStep{VLIWID: int32(v.ID)}

	n := v.Root
	for {
		for i := range n.Ops {
			p := &n.Ops[i]
			h := p.h
			if h == 0 {
				h = p.resolve()
			}
			// A nop's only effect is its EndsInst, counted below.
			if h&^hEnds != hDirect|uint8(PNop) {
				if err := handlers[h&hPrim].run(e, p); err != nil {
					return e.fail(v, n, i, err, step)
				}
			}
			if h&hEnds != 0 {
				completed++
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
				ex, flt := e.fail(v, n, -1, f, step)
				if i == 0 {
					// Only the first pending store is attributable: with
					// earlier uncommitted stores in the VLIW the boundary
					// necessarily precedes this one (and a same-pc earlier
					// instance would make the attribution ambiguous).
					flt.StorePC = s.pc
				}
				return ex, flt
			}
		}
		if err := e.Mem.CheckWrite(s.addr, int(s.size)); err != nil {
			ex, flt := e.fail(v, n, -1, err, step)
			if i == 0 {
				flt.StorePC = s.pc
			}
			return ex, flt
		}
		if e.Mem.ReadOnly(s.addr) {
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
	return n.Exit, nil
}

// fail rolls the in-flight VLIW back to its entry state — a precise
// base-instruction boundary — logs the (partial) step so the fault scan
// can replay the path, and reports the fault. errAlias reports a
// load-verify mismatch, which carries no cause.
func (e *Executor) fail(v *VLIW, n *Node, idx int, err error, step PathStep) (Exit, *Fault) {
	e.Steps = append(e.Steps, step)
	e.rollback()
	e.Stats.Rollbacks++
	f := &Fault{VLIW: v, Node: n, Parcel: idx, Resume: v.EntryBase, Cause: err}
	if err == errAlias {
		e.Stats.Aliases++
		f.Cause, f.Alias = nil, true
	}
	return Exit{}, f
}

func (e *Executor) failCodeMod(v *VLIW, n *Node, step PathStep) (Exit, *Fault) {
	e.Steps = append(e.Steps, step)
	e.rollback()
	e.Stats.Rollbacks++
	return Exit{}, &Fault{VLIW: v, Node: n, Parcel: -1,
		Resume: v.EntryBase, CodeMod: true}
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
