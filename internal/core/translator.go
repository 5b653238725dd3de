// Package core implements the DAISY incremental translator — the paper's
// primary contribution (Chapter 2 and Appendix A). Base-architecture
// instructions are examined strictly in original program order, cracked
// into RISC primitives, and each primitive is immediately placed into the
// earliest VLIW tree instruction on the current path where its operands
// are available and resources remain.
//
// Results computed ahead of their program position go to non-architected
// registers (r32..r63, cr8..cr15) and are copied to their architected
// homes in original program order at the tail of the path; stores and
// branches are never moved early. Every VLIW boundary is therefore a
// precise base-instruction boundary, which is how DAISY delivers precise
// exceptions with no hardware support.
//
// The scheduler is greedy and never backtracks, exactly as the paper
// prescribes for real-time compilation.
package core

import (
	"fmt"
	"time"

	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/vliw"
)

// Options control the translator. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Config is the machine resource configuration.
	Config vliw.Config

	// PageSize is the translation unit in bytes (a power of two). Paths
	// stop at page boundaries unless CrossPage is set.
	PageSize uint32

	// Window is the maximum number of base instructions scheduled on one
	// path before it is closed (a code-explosion throttle, §A.1).
	Window int

	// MaxJoinVisits is the paper's k: a base address already scheduled k
	// times in the group becomes a stopping point.
	MaxJoinVisits int

	// MaxLoopVisits bounds revisits of loop headers (backward-branch
	// targets), limiting unrolling.
	MaxLoopVisits int

	// LoopExitPenalty is subtracted from the remaining window budget when
	// a path continues past a loop exit, so operations from after a loop
	// are not pulled into it (§A.1, last stopping rule).
	LoopExitPenalty int

	// PreciseExceptions selects per-instruction in-order commits. When
	// false (the traditional-compiler baseline), renamed results are
	// committed only when a path closes, freeing ALU slots at the cost of
	// imprecise exceptions (Appendix B discusses this trade).
	PreciseExceptions bool

	// SpeculateLoads moves loads above earlier stores optimistically,
	// guarded by load-verify at commit time.
	SpeculateLoads bool

	// StoreForwarding replaces a load that provably must alias the latest
	// store to the same address with a copy of the stored value.
	StoreForwarding bool

	// InlineReturns propagates constant LR/CTR values so returns and
	// computed branches inside the window become direct branches.
	InlineReturns bool

	// CrossPage disables the page-boundary stopping rule (used by the
	// traditional-compiler baseline, which sees the whole program).
	CrossPage bool

	// ProfileProb, when non-nil, supplies a measured taken-probability
	// for the conditional branch at pc (profile-directed feedback).
	ProfileProb func(pc uint32) (float64, bool)

	// TraceGuide, when non-nil, turns the translator into Chapter 6's
	// interpretive compiler: it is consulted at every conditional branch
	// with the branch's address and returns the direction the recorded
	// execution took. Only that path is compiled; the other side and any
	// desynchronization close with lazy entry-point exits.
	TraceGuide func(pc uint32) (taken bool, ok bool)

	// Tier stamps the produced groups with the translation effort level
	// (zero reads as tier 1). At Tier >= 2 the scheduler additionally
	// records, at every instruction-completion boundary, which architected
	// results are still pending in rename registers (vliw.DeoptRec) — the
	// metadata the VMM needs to reconstruct exact architected state when a
	// deferred-commit translation deoptimizes mid-group.
	Tier uint8
}

// DefaultOptions returns the configuration used for the paper's headline
// experiments: 24-issue machine, 4K pages, precise exceptions.
func DefaultOptions() Options {
	return Options{
		Config:            vliw.BigConfig,
		PageSize:          4096,
		Window:            96,
		MaxJoinVisits:     4,
		MaxLoopVisits:     4,
		LoopExitPenalty:   8,
		PreciseExceptions: true,
		SpeculateLoads:    true,
		StoreForwarding:   true,
		InlineReturns:     true,
	}
}

// Stats accumulates translation-cost and size counters across groups.
type Stats struct {
	Groups     uint64
	BaseInsts  uint64 // scheduling events (an address unrolled twice counts twice)
	Parcels    uint64
	VLIWs      uint64
	CodeBytes  uint64
	WorkUnits  uint64 // scheduler steps: the translation-cost proxy of §5.1
	PathClones uint64
	Nanos      uint64 // host wall-clock time spent translating
}

// Sub returns the field-wise difference s - o: the cost of the translation
// work done between two snapshots (telemetry's translate-burst accounting).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Groups:     s.Groups - o.Groups,
		BaseInsts:  s.BaseInsts - o.BaseInsts,
		Parcels:    s.Parcels - o.Parcels,
		VLIWs:      s.VLIWs - o.VLIWs,
		CodeBytes:  s.CodeBytes - o.CodeBytes,
		WorkUnits:  s.WorkUnits - o.WorkUnits,
		PathClones: s.PathClones - o.PathClones,
		Nanos:      s.Nanos - o.Nanos,
	}
}

// Add returns the field-wise sum s + o: used to merge the stats of a
// worker translator (the async pipeline translates pages on private
// Translator instances over page snapshots) into the machine's totals at
// publish time.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Groups:     s.Groups + o.Groups,
		BaseInsts:  s.BaseInsts + o.BaseInsts,
		Parcels:    s.Parcels + o.Parcels,
		VLIWs:      s.VLIWs + o.VLIWs,
		CodeBytes:  s.CodeBytes + o.CodeBytes,
		WorkUnits:  s.WorkUnits + o.WorkUnits,
		PathClones: s.PathClones + o.PathClones,
		Nanos:      s.Nanos + o.Nanos,
	}
}

// Translator converts base-architecture binary code to VLIW groups.
type Translator struct {
	Mem *mem.Memory
	Opt Options

	Stats Stats

	arena arena    // storage shared by every group this translator builds
	ctx   groupCtx // the open group's state, reset per group
}

// New returns a translator over the given memory image.
func New(m *mem.Memory, opt Options) *Translator {
	t := &Translator{Mem: m}
	t.SetOptions(opt)
	return t
}

// SetOptions replaces the translator's options, filling unset limits as
// New does. A translator kept across changes of options (the VMM's tier-2
// translator, set per promotion) keeps its arena: its groups depend on the
// options and the memory alone.
func (t *Translator) SetOptions(opt Options) {
	if opt.PageSize == 0 || opt.PageSize&(opt.PageSize-1) != 0 {
		opt.PageSize = 4096
	}
	if opt.Window <= 0 {
		opt.Window = 64
	}
	if opt.MaxJoinVisits <= 0 {
		opt.MaxJoinVisits = 3
	}
	if opt.MaxLoopVisits <= 0 {
		opt.MaxLoopVisits = 2
	}
	t.Opt = opt
}

// groupCtx is the per-group translation state (CreateVLIWGroupForEntry).
type groupCtx struct {
	t        *Translator
	*arena   // the translator's, shared by all its groups
	g        *vliw.Group
	pageBase uint32
	worklist []uint32 // same-page entry points discovered at path exits
}

// arena is a translator's storage, in two parts.
//
// Records a group keeps — tree nodes, VLIWs, branch conditions — are
// carved out of chunks shared by every group the translator builds, so a
// group that uses a few nodes keeps no whole chunk of its own alive.
// Chunks are never grown in place: when one fills, a fresh chunk is
// started, so pointers into earlier chunks stay valid.
//
// Everything else is scratch, live only while one group is open and
// reused by the next: the open paths and the free list of closed ones,
// their VLIW lists, rename records, deferred commit parcels, the parcel
// slots nodes fill while the group is scheduled, and the per-address
// schedule counts. A group owns none of it: TranslateGroup copies every
// node's parcels into one array of the group's own before resetting the
// scratch chunks (compact), and a closed path keeps no pointer into a
// group or page. A scratch chunk that fills mid-group is replaced by one
// twice its size, so a reused translator soon carves its largest group
// without allocating. A panic or an error leaves the scratch as it
// stands; the next group clears the lists and maps and carves on, and the
// VMM rebuilds a translator that panicked. A translator runs on one
// goroutine, so its arena needs no lock.
type arena struct {
	nodeChunk []vliw.Node
	vliwChunk []vliw.VLIW
	condChunk []vliw.Cond

	recChunk []renameRec
	parChunk []vliw.Parcel // deferred commit parcels
	opsChunk []vliw.Parcel // parcel slots of the open group's nodes

	vliws     []*vliw.VLIW // the open group's VLIWs, in ID order
	paths     []*path      // the open group's open paths
	freePaths []*path      // closed paths, pointers cleared, for reuse
	freeVS    [][]pvliw    // closed paths' VLIW lists, cleared, for reuse

	sched    map[uint32]int // times each base address was scheduled
	loopHead map[uint32]bool
	wlSeen   map[uint32]bool
}

func (a *arena) newRec(r renameRec) *renameRec {
	if len(a.recChunk) == cap(a.recChunk) {
		a.recChunk = make([]renameRec, 0, max(128, 2*cap(a.recChunk)))
	}
	a.recChunk = append(a.recChunk, r)
	return &a.recChunk[len(a.recChunk)-1]
}

func (a *arena) newCommit(par vliw.Parcel) *vliw.Parcel {
	if len(a.parChunk) == cap(a.parChunk) {
		a.parChunk = make([]vliw.Parcel, 0, max(128, 2*cap(a.parChunk)))
	}
	a.parChunk = append(a.parChunk, par)
	return &a.parChunk[len(a.parChunk)-1]
}

func (a *arena) newNode() *vliw.Node {
	if len(a.nodeChunk) == cap(a.nodeChunk) {
		a.nodeChunk = make([]vliw.Node, 0, 64)
	}
	a.nodeChunk = append(a.nodeChunk, vliw.Node{})
	return &a.nodeChunk[len(a.nodeChunk)-1]
}

func (a *arena) newCond(cd vliw.Cond) *vliw.Cond {
	if len(a.condChunk) == cap(a.condChunk) {
		a.condChunk = make([]vliw.Cond, 0, 32)
	}
	a.condChunk = append(a.condChunk, cd)
	return &a.condChunk[len(a.condChunk)-1]
}

// growOps returns a parcel slot for a node whose slot ops is full (nil
// before its first parcel), carved from the slot chunk: eight parcels
// for a node's first, twice the old capacity after that, holding ops'
// parcels. A node takes a slot only when it gets a parcel, so the many
// that stay empty take none. An outgrown slot is left in the chunk;
// compact copies the group's parcels out before it resets the chunk.
func (a *arena) growOps(ops []vliw.Parcel) []vliw.Parcel {
	n := max(8, 2*cap(ops))
	if cap(a.opsChunk)-len(a.opsChunk) < n {
		a.opsChunk = make([]vliw.Parcel, 0, max(max(64*8, n), 2*cap(a.opsChunk)))
	}
	i := len(a.opsChunk)
	a.opsChunk = a.opsChunk[:i+n]
	return append(a.opsChunk[i:i:i+n], ops...)
}

// newVLIW is vliw.NewVLIW backed by the arena.
func (a *arena) newVLIW(id int, entryBase uint32) *vliw.VLIW {
	if len(a.vliwChunk) == cap(a.vliwChunk) {
		a.vliwChunk = make([]vliw.VLIW, 0, 64)
	}
	a.vliwChunk = append(a.vliwChunk, vliw.VLIW{
		ID:        id,
		Root:      a.newNode(),
		EntryBase: entryBase,
		FreeGPR:   0xffffffff,
		FreeCRF:   0xff,
	})
	return &a.vliwChunk[len(a.vliwChunk)-1]
}

// takeVS returns an empty VLIW list for a new or cloned path, reusing a
// closed path's list when one is free.
func (a *arena) takeVS() []pvliw {
	n := len(a.freeVS)
	if n == 0 {
		return nil
	}
	vs := a.freeVS[n-1]
	a.freeVS = a.freeVS[:n-1]
	return vs
}

// putVS frees a closed path's VLIW list. It is cleared first, so the free
// list keeps no group's VLIWs or rename records alive.
func (a *arena) putVS(vs []pvliw) {
	clear(vs)
	a.freeVS = append(a.freeVS, vs[:0])
}

// takePath returns a path struct for a new or cloned path, reusing a
// closed one when one is free. The caller overwrites every field.
func (a *arena) takePath() *path {
	n := len(a.freePaths)
	if n == 0 {
		return new(path)
	}
	p := a.freePaths[n-1]
	a.freePaths = a.freePaths[:n-1]
	return p
}

// putPath frees a closed path. Its pointer fields are cleared, like putVS
// clears VLIW lists, so the free list keeps no group or page alive; it
// keeps the backing arrays of its scratch, deopt and pendVer lists, which
// hold no pointers, for the path that reuses it.
func (a *arena) putPath(p *path) {
	p.c, p.vs = nil, nil
	p.scratch, p.deopt, p.pendVer = p.scratch[:0], p.deopt[:0], p.pendVer[:0]
	a.freePaths = append(a.freePaths, p)
}

// begin readies the scratch for a new group: the VLIW list is emptied
// (it holds a group only after one failed) and the per-address maps are
// cleared, made on first use rather than per group.
func (a *arena) begin() {
	clear(a.vliws)
	a.vliws = a.vliws[:0]
	if a.sched == nil {
		a.sched = make(map[uint32]int)
		a.loopHead = make(map[uint32]bool)
		a.wlSeen = make(map[uint32]bool)
		return
	}
	clear(a.sched)
	clear(a.loopHead)
	clear(a.wlSeen)
}

// compact gives g what it keeps of the scratch: its VLIW list, and every
// parcel of its nodes copied into one array of exactly the group's parcel
// count, in tree order, each node's Ops a three-index slice of it (so no
// later append runs into a neighbour) and nil for an empty node. Only
// then does it reset the scratch chunks the parcels came from, and the
// rename records and commit parcels that died with the group's paths, for
// the next group to reuse.
func (a *arena) compact(g *vliw.Group) {
	g.VLIWs = append([]*vliw.VLIW(nil), a.vliws...)
	clear(a.vliws)
	a.vliws = a.vliws[:0]
	n := 0
	for _, v := range g.VLIWs {
		n += v.CountParcels()
	}
	ops := make([]vliw.Parcel, 0, n)
	for _, v := range g.VLIWs {
		v.Walk(func(nd *vliw.Node) {
			if len(nd.Ops) == 0 {
				nd.Ops = nil
				return
			}
			i := len(ops)
			ops = append(ops, nd.Ops...)
			nd.Ops = ops[i:len(ops):len(ops)]
		})
	}
	a.recChunk = a.recChunk[:0]
	a.parChunk = a.parChunk[:0]
	a.opsChunk = a.opsChunk[:0]
}

// TranslateGroup translates the group of base instructions reachable from
// entry, stopping paths per §A.1. It returns the group and the same-page
// entry addresses discovered at path exits (the outer Pathlist of
// Figure 2.1). The group owns its nodes, VLIWs, conditions, commit-record
// tables and one array of all its parcels; everything else it used is the
// arena's scratch, reset for the next group only once the group has been
// compacted out of it. The worklist is the caller's.
func (t *Translator) TranslateGroup(entry uint32) (*vliw.Group, []uint32, error) {
	g, work, _, err := t.translateGroup(entry)
	return g, work, err
}

// translateGroup is TranslateGroup, also returning the group's code size
// (codeSize), which it sizes once for Stats.CodeBytes and the layout.
func (t *Translator) translateGroup(entry uint32) (*vliw.Group, []uint32, int, error) {
	start := time.Now()
	defer func() { t.Stats.Nanos += uint64(time.Since(start)) }()
	t.arena.begin()
	c := &t.ctx
	*c = groupCtx{
		t:        t,
		arena:    &t.arena,
		g:        &vliw.Group{Entry: entry, Tier: t.Opt.Tier},
		pageBase: entry &^ (t.Opt.PageSize - 1),
	}
	p := newPath(c, entry)
	p.openVLIW(entry)
	c.paths = append(c.paths[:0], p)

	for len(c.paths) > 0 {
		// The most probable path is extended first, so VLIW resources are
		// preferentially spent on likely operations.
		best := 0
		for i, q := range c.paths {
			if q.prob > c.paths[best].prob {
				best = i
			}
		}
		if err := c.scheduleOne(c.paths[best]); err != nil {
			return nil, nil, 0, err
		}
	}
	c.compact(c.g)

	t.Stats.Groups++
	t.Stats.VLIWs += uint64(len(c.g.VLIWs))
	size, ok := codeSize(c.g)
	if ok {
		t.Stats.CodeBytes += uint64(size)
	}
	g, work := c.g, c.worklist
	*c = groupCtx{} // the translator keeps no pointer to the group
	return g, work, size, nil
}

func (c *groupCtx) removePath(p *path) {
	for i, q := range c.paths {
		if q == p {
			c.paths = append(c.paths[:i], c.paths[i+1:]...)
			return
		}
	}
}

func (c *groupCtx) addWork(addr uint32) {
	if !c.wlSeen[addr] {
		c.wlSeen[addr] = true
		c.worklist = append(c.worklist, addr)
	}
}

// samePage reports whether addr lies on the group's translation page.
func (c *groupCtx) samePage(addr uint32) bool {
	return c.t.Opt.CrossPage || addr&^(c.t.Opt.PageSize-1) == c.pageBase
}

// scheduleOne implements DecodeAndScheduleOneInstr (Figure A.2): check the
// stopping rules, then decode and schedule the instruction at the path's
// continuation.
func (c *groupCtx) scheduleOne(p *path) error {
	t := c.t
	addr := p.cont
	t.Stats.WorkUnits++

	// Stopping rules (§A.1).
	switch {
	case !c.samePage(addr):
		p.close(vliw.Exit{Kind: vliw.ExitOffpage, Target: addr})
		return nil
	case p.count >= t.Opt.Window,
		c.sched[addr] >= t.Opt.MaxJoinVisits,
		c.loopHead[addr] && c.sched[addr] >= t.Opt.MaxLoopVisits:
		p.closeToEntry(addr)
		return nil
	}

	w, err := t.Mem.Read32(addr)
	if err != nil {
		// Fetch past the end of memory: let the VMM interpret (and fault
		// precisely) if execution ever arrives here.
		p.close(vliw.Exit{Kind: vliw.ExitInterp, Target: addr})
		return nil
	}
	in := ppc.Decode(w)
	c.sched[addr]++
	p.count++
	t.Stats.BaseInsts++

	if err := c.scheduleInst(p, addr, in); err != nil {
		return fmt.Errorf("core: at %#x (%s): %w", addr, in, err)
	}
	if p.vs != nil { // still open: the instruction's scratch registers are free again
		p.scratch = p.scratch[:0]
		p.deopt = p.deopt[:0]
	}
	return nil
}
