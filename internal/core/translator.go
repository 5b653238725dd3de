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

const neverCommitted = 1 << 30

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

	encBuf []byte // reused encoding buffer for size accounting
}

// encodedSize returns the encoded size of g in bytes, reusing the
// translator's scratch buffer across calls.
func (t *Translator) encodedSize(g *vliw.Group) (int, error) {
	buf, err := vliw.AppendGroup(t.encBuf[:0], g)
	if buf != nil {
		t.encBuf = buf
	}
	return len(buf), err
}

// New returns a translator over the given memory image.
func New(m *mem.Memory, opt Options) *Translator {
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
	return &Translator{Mem: m, Opt: opt}
}

// groupCtx is the per-group translation state (CreateVLIWGroupForEntry).
type groupCtx struct {
	t        *Translator
	g        *vliw.Group
	pageBase uint32
	paths    []*path
	sched    map[uint32]int // times each base address was scheduled
	loopHead map[uint32]bool
	worklist []uint32 // same-page entry points discovered at path exits
	wlSeen   map[uint32]bool

	// Arena storage. The scheduler allocates small linked records —
	// rename records, deferred commit parcels, tree nodes — at a rate
	// that dominates the translator's heap traffic, so they are carved
	// out of chunks owned by the group context. Chunks are never grown
	// in place: when one fills, a fresh chunk is started, so pointers
	// into earlier chunks stay valid while the records keep being
	// mutated through them.
	recChunk  []renameRec
	parChunk  []vliw.Parcel // deferred commit parcels
	nodeChunk []vliw.Node
	vliwChunk []vliw.VLIW
	condChunk []vliw.Cond
	opsChunk  []vliw.Parcel // initial Ops backing for tree nodes

	memoOld []*renameRec // clone's rename-aliasing scratch
	memoNew []*renameRec
}

func (c *groupCtx) newRec(r renameRec) *renameRec {
	if len(c.recChunk) == cap(c.recChunk) {
		c.recChunk = make([]renameRec, 0, 128)
	}
	c.recChunk = append(c.recChunk, r)
	return &c.recChunk[len(c.recChunk)-1]
}

func (c *groupCtx) newCommit(par vliw.Parcel) *vliw.Parcel {
	if len(c.parChunk) == cap(c.parChunk) {
		c.parChunk = make([]vliw.Parcel, 0, 128)
	}
	c.parChunk = append(c.parChunk, par)
	return &c.parChunk[len(c.parChunk)-1]
}

func (c *groupCtx) newNode() *vliw.Node {
	if len(c.nodeChunk) == cap(c.nodeChunk) {
		c.nodeChunk = make([]vliw.Node, 0, 64)
	}
	c.nodeChunk = append(c.nodeChunk, vliw.Node{})
	n := &c.nodeChunk[len(c.nodeChunk)-1]
	n.Ops = c.newOps()
	return n
}

func (c *groupCtx) newCond(cd vliw.Cond) *vliw.Cond {
	if len(c.condChunk) == cap(c.condChunk) {
		c.condChunk = make([]vliw.Cond, 0, 32)
	}
	c.condChunk = append(c.condChunk, cd)
	return &c.condChunk[len(c.condChunk)-1]
}

// newOps returns an empty parcel slice with a small fixed capacity carved
// from the ops chunk. Nodes that outgrow it fall back to an ordinary heap
// append; most never do.
func (c *groupCtx) newOps() []vliw.Parcel {
	const opsCap = 8
	if cap(c.opsChunk)-len(c.opsChunk) < opsCap {
		c.opsChunk = make([]vliw.Parcel, 0, 64*opsCap)
	}
	n := len(c.opsChunk)
	c.opsChunk = c.opsChunk[:n+opsCap]
	return c.opsChunk[n : n : n+opsCap]
}

// newVLIW is vliw.NewVLIW backed by the group arena.
func (c *groupCtx) newVLIW(id int, entryBase uint32) *vliw.VLIW {
	if len(c.vliwChunk) == cap(c.vliwChunk) {
		c.vliwChunk = make([]vliw.VLIW, 0, 64)
	}
	c.vliwChunk = append(c.vliwChunk, vliw.VLIW{
		ID:        id,
		Root:      c.newNode(),
		EntryBase: entryBase,
		FreeGPR:   0xffffffff,
		FreeCRF:   0xff,
	})
	return &c.vliwChunk[len(c.vliwChunk)-1]
}

// TranslateGroup translates the group of base instructions reachable from
// entry, stopping paths per §A.1. It returns the group and the same-page
// entry addresses discovered at path exits (the outer Pathlist of
// Figure 2.1).
func (t *Translator) TranslateGroup(entry uint32) (*vliw.Group, []uint32, error) {
	start := time.Now()
	defer func() { t.Stats.Nanos += uint64(time.Since(start)) }()
	c := &groupCtx{
		t:        t,
		g:        &vliw.Group{Entry: entry, Tier: t.Opt.Tier},
		pageBase: entry &^ (t.Opt.PageSize - 1),
		sched:    make(map[uint32]int),
		loopHead: make(map[uint32]bool),
		wlSeen:   make(map[uint32]bool),
	}
	p := newPath(c, entry)
	p.openVLIW(entry)
	c.paths = []*path{p}

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
			return nil, nil, err
		}
	}

	t.Stats.Groups++
	t.Stats.VLIWs += uint64(len(c.g.VLIWs))
	if size, err := t.encodedSize(c.g); err == nil {
		t.Stats.CodeBytes += uint64(size)
	}
	return c.g, c.worklist, nil
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
	p.scratch = p.scratch[:0]
	p.deopt = p.deopt[:0]
	return nil
}
