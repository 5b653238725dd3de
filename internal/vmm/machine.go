// Package vmm implements DAISY's Virtual Machine Monitor: the software
// that lives in ROM on the real machine (Figure 3.1) and gives the base
// architecture 100% compatible execution on the VLIW.
//
// The VMM owns page translation and cast-out, valid entry points,
// self-modifying-code invalidation via the non-architected read-only bits
// (§3.2), cross-page branch resolution (§3.4), system-call emulation, and
// precise exception recovery: a faulting VLIW rolls back to its entry —
// always an exact base-instruction boundary — and the VMM interprets
// forward from there, reaching the faulting instruction with precise
// architected state (§3.5 and §3.6).
package vmm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/telemetry"
	"daisy/internal/tradcomp/sched"
	"daisy/internal/txcache"
	"daisy/internal/vliw"
)

// Options configure a Machine beyond the translator options.
type Options struct {
	Trans core.Options

	// MaxPages bounds the translated-page pool; the least recently used
	// page translation is cast out when it fills (0: unlimited).
	MaxPages int

	// InterpBudget is how many instructions the VMM interprets after a
	// fault or an untranslated-code exit before it forces a new entry
	// point (the paper's rule: leave interpretive mode quickly).
	InterpBudget int

	// GuestFaultVectors selects §3.3 exception delivery: data storage
	// faults fill SRR0/SRR1/DAR/DSISR and transfer to the base operating
	// system's handler at vector 0x300 instead of surfacing as Go errors.
	// Data effective addresses are translated through the guest page
	// table (Chapter 4) when MSR[DR] is on.
	GuestFaultVectors bool

	// AdaptiveSpeculation enables the remedy §5 sketches for alias-heavy
	// code: a page whose groups keep failing load-verify is retranslated
	// with loads kept in store order. The paper's own implementation
	// lacked this ("does not yet have this feature"), so it is off by
	// default; the traditional-compiler baseline turns it on.
	AdaptiveSpeculation bool

	// Interpretive selects Chapter 6's interpretive compilation: before
	// translating an entry, the VMM interprets ahead on a throwaway copy
	// of the machine, records the branch directions actually taken, and
	// compiles only that path. Cold branch sides stay untranslated until
	// execution reaches them.
	Interpretive bool

	// QuarantineThreshold enables graceful degradation: a page suffering
	// this many translation-trouble events (SMC invalidations, alias
	// recoveries, recovered exceptions) within QuarantineWindow completed
	// instructions is blacklisted to interpret-only mode instead of being
	// retranslated, so a thrashing page degrades to interpreter speed
	// rather than paying translation cost on every trip. 0 disables.
	QuarantineThreshold int

	// QuarantineWindow is the event-counting window, in completed base
	// instructions.
	QuarantineWindow uint64

	// QuarantineBackoff is the first quarantine span in completed base
	// instructions; each re-quarantine of the same page doubles it
	// (exponential backoff before translation is retried).
	QuarantineBackoff uint64

	// AsyncTranslate moves tier-1 page translation off the execution path:
	// hot pages are translated by a bounded worker pool while the machine
	// keeps interpreting, and finished translations are published at
	// precise boundaries (see async.go). Tier-2 promotion stays inline.
	// Off by default — the golden and
	// lockstep walls pin the synchronous machine. Ignored in Interpretive
	// mode, whose trace-guided translation is inherently inline.
	AsyncTranslate bool

	// AsyncWorkers is the translator pool size (0: 2).
	AsyncWorkers int

	// AsyncQueueDepth bounds the pending-translation queue; a full queue
	// pushes back (the page stays interpretive and retries later) rather
	// than growing without bound (0: 8).
	AsyncQueueDepth int

	// HotThreshold is how many dispatches into an untranslated page it
	// takes before the async pipeline spends translation effort on it
	// (0: 2). Only consulted when AsyncTranslate is on.
	HotThreshold int

	// AsyncDeadline is the wall-clock budget one in-flight translation may
	// spend before the worker watchdog abandons it: the job leaves the
	// inflight set (the page keeps interpreting and is rescheduled through
	// the retry backoff), a replacement worker is spawned for the
	// presumed-stuck one, and the late result — if it ever arrives — is
	// dropped (0: 2s). Only consulted when AsyncTranslate is on.
	AsyncDeadline time.Duration

	// Cache, if non-nil, is the persistent cross-run translation cache:
	// consulted (by page-content digest + options fingerprint) before any
	// page translation is scheduled, and written through after each one
	// completes. Works with both the synchronous and async machines.
	Cache *txcache.Store

	// Tier2 enables optimizing retranslation (tier2.go): a page that stays
	// hot and stable is retranslated at tier-2 effort — the traditional
	// compiler's scheduling recipe (sched.Tier2: a larger window, deeper
	// revisit budgets, deferred commits with dead-commit elimination) along
	// the measured hot path. A tier-2 fault deoptimizes to the retained
	// tier-1 translation of the same page; it never retranslates inline.
	// Requires precise tier-1 translation (Trans.PreciseExceptions).
	Tier2 bool

	// Tier2Threshold is how many dispatches into a tier-1-translated page
	// it takes before the page is considered hot enough to retranslate at
	// tier-2 effort (0: 8). Only consulted when Tier2 is on.
	Tier2Threshold int
}

// DefaultOptions mirrors the paper's headline setup.
func DefaultOptions() Options {
	return Options{Trans: core.DefaultOptions(), InterpBudget: 64}
}

// Stats collects the dynamic counters behind the paper's tables. A uint64
// field tagged `metric:"name"` is mirrored into attached telemetry as the
// counter of that name (telemetry.go); adding a field with a tag is all it
// takes to export a new counter. Untagged fields stay machine-local.
type Stats struct {
	Exec vliw.Stats // VLIWs, base instructions, loads/stores, aliases

	InterpInsts  uint64 `metric:"daisy_interp_insts"` // instructions executed interpretively by the VMM
	Syscalls     uint64
	PagesBuilt   uint64 `metric:"daisy_pages_built"` // "VLIW translation missing" exceptions serviced
	GroupsBuilt  uint64 `metric:"daisy_groups_built"`
	EntriesBuilt uint64 `metric:"daisy_entries_built"` // "invalid entry point" exceptions serviced
	CastOuts     uint64 `metric:"daisy_cast_outs"`

	CrossDirect uint64 // Table 5.6: direct cross-page branches
	CrossLR     uint64 // via the link register
	CrossCTR    uint64 // via the count register
	IntraEntry  uint64 // same-page entry-point transfers

	// Group chaining (a pure wall-clock optimization: neither counter
	// feeds any paper table, and IntraEntry above counts chained and
	// dispatched transfers identically).
	ChainPatches uint64 `metric:"daisy_chain_patches"` // exit edges patched with a direct group link, hop caches refilled included
	ChainFollows uint64 `metric:"daisy_chain_follows"` // group lookups bypassed by following a chain, hop cache hits included

	SMCInvalidations    uint64 `metric:"daisy_smc_invalidations"`
	Exceptions          uint64 `metric:"daisy_exceptions"` // precise exceptions recovered
	AliasRecoveries     uint64 // load-verify re-executions (Table 5.7)
	AliasRetranslations uint64 // entries rebuilt without load speculation
	TraceRecInsts       uint64 // instructions interpreted by the trace recorder

	Quarantines        uint64 `metric:"daisy_quarantines"`         // pages degraded to interpret-only mode
	QuarantineReleases uint64 `metric:"daisy_quarantine_releases"` // quarantines expired (translation retried)
	InjectedFaults     uint64 // chaos-harness injections observed
	TranslatorPanics   uint64 `metric:"daisy_translator_panics"` // translator panics recovered (every translation path)

	// Asynchronous translation pipeline (async.go).
	AsyncEnqueues            uint64 `metric:"daisy_async_enqueues"`      // pages handed to the worker pool
	AsyncPublishes           uint64 `metric:"daisy_async_publishes"`     // worker results installed
	AsyncQueueFull           uint64 `metric:"daisy_async_queue_full"`    // enqueues pushed back by a full queue
	StaleTranslationsDropped uint64 `metric:"daisy_async_stale_dropped"` // in-flight results discarded by epoch/digest

	// Async fault tolerance (worker watchdog and retry/backoff; async.go).
	AsyncRetries          uint64 `metric:"daisy_async_retries"`           // failed worker translations rescheduled with backoff
	AsyncRetriesExhausted uint64 `metric:"daisy_async_retries_exhausted"` // retry budgets spent; pages quarantined instead
	AsyncAbandons         uint64 `metric:"daisy_async_abandons"`          // in-flight jobs abandoned past AsyncDeadline
	AsyncLateDrops        uint64 `metric:"daisy_async_late_drops"`        // abandoned results that arrived late and were dropped
	AsyncRespawns         uint64 `metric:"daisy_async_respawns"`          // worker goroutines respawned by the watchdog

	// Persistent translation cache (per-machine view; the Store keeps its
	// own cross-machine counters). Misses are partitioned by reason:
	// CacheMisses == CacheMissAbsent + CacheMissCorrupt + CacheMissSkew +
	// CacheMissOptions.
	CacheHits        uint64 `metric:"daisy_txcache_hits"`
	CacheHotHits     uint64 `metric:"daisy_txcache_hot_hits"` // hits served from the store's decoded hot tier
	CacheMisses      uint64 `metric:"daisy_txcache_misses"`
	CacheMissAbsent  uint64 `metric:"daisy_txcache_miss_absent"`       // no entry under the content address
	CacheMissCorrupt uint64 `metric:"daisy_txcache_miss_corrupt"`      // entry damaged (checksum/decode failure)
	CacheMissSkew    uint64 `metric:"daisy_txcache_miss_version_skew"` // entry from another format version
	CacheMissOptions uint64 `metric:"daisy_txcache_miss_options"`      // entry's key echo disagreed with its address
	CacheStores      uint64 `metric:"daisy_txcache_stores"`
	CacheSaveErrors  uint64 `metric:"daisy_txcache_save_errors"` // cache writes that failed; translation unaffected

	// Optimizing retranslation tier (tier2.go).
	Tier2Promotions     uint64 `metric:"daisy_tier2_promotions"`      // pages retranslated at tier-2 effort
	Tier2Dispatches     uint64 `metric:"daisy_tier2_dispatches"`      // dispatches served by a tier-2 group
	Tier2Deopts         uint64 `metric:"daisy_tier2_deopts"`          // tier-2 faults deoptimized to tier-1
	Tier2PathDepartures uint64 `metric:"daisy_tier2_path_departures"` // dispatches that left the tier-2 hot path
	Tier2Demotions      uint64 `metric:"daisy_tier2_demotions"`       // tier-2 translations retired (deopt/departure storms)
	Tier2ProfileInsts   uint64 `metric:"daisy_tier2_profile_insts"`   // instructions interpreted by the promotion profiler

	Cycles      uint64 `metric:"daisy_cycles"` // VLIW issue cycles (one per attempted tree instruction)
	StallCycles uint64 // extra cycles from the attached cache model
}

// BaseInsts returns the total completed base instructions (translated +
// interpreted).
func (s *Stats) BaseInsts() uint64 { return s.Exec.BaseInsts + s.InterpInsts }

// ILP returns base instructions per cycle including cache stalls (the
// finite-cache ILP when a hierarchy is attached); interpreted instructions
// are charged one cycle each.
func (s *Stats) ILP() float64 {
	cyc := s.Cycles + s.StallCycles + s.InterpInsts
	if cyc == 0 {
		return 0
	}
	return float64(s.BaseInsts()) / float64(cyc)
}

// InfILP returns base instructions per VLIW issue cycle, ignoring cache
// stalls: the paper's infinite-cache pathlength reduction.
func (s *Stats) InfILP() float64 {
	cyc := s.Cycles + s.InterpInsts
	if cyc == 0 {
		return 0
	}
	return float64(s.BaseInsts()) / float64(cyc)
}

// Machine is a base architecture machine implemented by dynamic
// translation onto the VLIW.
type Machine struct {
	Mem   *mem.Memory
	Env   *interp.Env
	Trans *core.Translator
	Exec  *vliw.Executor
	Opt   Options
	Stats Stats

	// St holds PC and MSR; GPRs/CR/LR/CTR/XER live in Exec.RF while
	// translated code runs.
	St ppc.State

	// StallFn, if non-nil, returns extra stall cycles for a memory
	// access (wired to the cache simulator).
	StallFn func(addr uint32, size int, write bool, fetch bool) uint64

	// FaultTranslation, if non-nil, is consulted on the machine goroutine
	// once per translation attempt of the page at base, before the
	// translator runs (synchronous path and tier-2 promotion) or as the job
	// is built (async enqueue and Precompile, where the plan rides in the
	// job to the translating goroutine). Chaos injectors return a
	// TranslationFault to plant panics, hangs, and errors inside the
	// recover/watchdog barriers of guard.go and async.go; nil means
	// translate normally.
	FaultTranslation func(base uint32) *TranslationFault

	// obs is the observer slot (observer.go), attached telemetry included.
	obs []Observer

	// pages holds one record per guest page the VMM has met (page.go).
	// The records with a live tier-1 translation are linked in recency
	// order from lruHead (least recently used) to lruTail; livePages
	// counts them and quarPages counts the records in quarantine.
	pages            map[uint32]*page
	lruHead, lruTail *page
	livePages        int
	quarPages        int
	dirty            map[uint32]bool

	curGroup *vliw.Group
	maxInsts uint64

	// pipe is the asynchronous translation pipeline (async.go), nil on a
	// synchronous machine. optFP memoizes the translator-options
	// fingerprint for the persistent cache key.
	pipe  *txPipeline
	optFP uint64

	// Optimizing retranslation tier (tier2.go): t2sched derives the
	// optimizing translator options; t2journal is swapped into the
	// executor while a tier-2 (deferred-commit) group runs. Both zero
	// unless Opt.Tier2.
	t2sched   sched.Scheduler
	t2journal *vliw.StoreJournal

	// scanBuf is the reused node buffer for expanding the executor's step
	// log on the (rare) fault-scan path.
	scanBuf []*vliw.Node

	// Imprecise-mode checkpoint (the reproduction's stand-in for
	// Appendix B's resume_vliw): the register file and PC at the current
	// group's entry, plus a journal of the group's stores and the
	// completed-instruction count (rolled-back work must not be counted).
	ckptRF    vliw.RegFile
	ckptPC    uint32
	ckptInsts uint64

	// t2trans is the tier-2 translator (tier2.go), kept across promotions
	// as Trans is kept across tier-1 pages: nil until the first promotion,
	// while one runs, and unless Opt.Tier2. It sits last because inserting
	// it among the tier-2 fields above, which shifts every field after it,
	// read 6–8% slower on bench/'s fleet workload (0 of 12 pairs won)
	// with the CPU profile's shape unchanged.
	t2trans *core.Translator

	// commitHook is commitBoundary as the executor's OnCommit, made once
	// when the first observer attaches (a method value allocates).
	// cycleMark is the executor's attempted-VLIW count (VLIWs plus
	// rollbacks) that Stats.Cycles last took in (syncCycles).
	commitHook func() bool
	cycleMark  uint64

	// ip is the interpreter interpret runs, reset on every use.
	// interpretAhead keeps its own, over a scratch view of memory.
	ip interp.Interp
}

// New builds a machine over a loaded memory image.
func New(m *mem.Memory, env *interp.Env, opt Options) *Machine {
	if opt.InterpBudget <= 0 {
		opt.InterpBudget = 64
	}
	if opt.Interpretive {
		// Tracing compiles only executed paths, so the window and
		// unrolling budgets can grow without the static mode's code
		// explosion ("we can afford a larger window size", Chapter 6).
		opt.Trans.Window *= 4
		opt.Trans.MaxJoinVisits *= 2
		opt.Trans.MaxLoopVisits *= 2
	}
	ma := &Machine{
		Mem:   m,
		Env:   env,
		Trans: core.New(m, opt.Trans),
		Exec:  &vliw.Executor{Mem: m},
		Opt:   opt,
		pages: make(map[uint32]*page),
		dirty: make(map[uint32]bool),
	}
	m.OnProtectedStore = func(addr uint32, size int) {
		// A store can straddle two units and two pages: mark each page
		// its first or last byte lands in whose unit holds code.
		for _, a := range [2]uint32{addr, addr + uint32(size) - 1} {
			if m.ReadOnly(a) {
				ma.dirty[a&^(ma.Trans.Opt.PageSize-1)] = true
			}
		}
	}
	// The StallFn bridge hooks are installed by Start only when a cache
	// model is attached, so the common case pays no indirect call per
	// memory access or VLIW fetch.
	if !opt.Trans.PreciseExceptions {
		// Without per-instruction commits, faults recover by rolling the
		// whole group back: journal its stores.
		ma.Exec.Journal = &vliw.StoreJournal{}
	}
	if opt.GuestFaultVectors {
		ma.Exec.AddrXlate = func(vaddr uint32, write bool) (uint32, *mem.Fault) {
			return interp.DataTranslate(ma.Mem, &ma.St, vaddr, write)
		}
	}
	if opt.AsyncTranslate && !opt.Interpretive {
		ma.startPipeline()
	}
	if opt.Tier2 {
		ma.t2sched = sched.Tier2()
		ma.t2journal = &vliw.StoreJournal{}
	}
	return ma
}

// ErrBudget is returned when Run's instruction budget is exhausted.
var ErrBudget = errors.New("vmm: instruction budget exhausted")

// Run executes from entry until the program halts (returns nil), the
// instruction budget is exhausted, or an unrecoverable error occurs.
func (m *Machine) Run(entry uint32, maxInsts uint64) error {
	m.Start(entry, maxInsts)
	for {
		halted, err := m.StepGroup()
		if err != nil {
			return err
		}
		if halted {
			return nil
		}
	}
}

// Start prepares the machine to execute from entry with the given
// instruction budget (0: unlimited), without running anything. Callers
// then drive execution with StepGroup; Run is the Start+StepGroup loop.
func (m *Machine) Start(entry uint32, maxInsts uint64) {
	m.St.PC = entry
	m.maxInsts = maxInsts
	m.Exec.Limit = 0
	m.Exec.RF.FromState(&m.St)
	if m.StallFn != nil {
		m.Exec.OnMem = func(addr uint32, size int, write bool) {
			m.Stats.StallCycles += m.StallFn(addr, size, write, false)
		}
		m.Exec.OnFetch = func(v *vliw.VLIW) {
			m.Stats.StallCycles += m.StallFn(v.Addr, v.Bytes, false, true)
		}
	} else {
		m.Exec.OnMem = nil
		m.Exec.OnFetch = nil
	}
}

// StepGroup runs from the current PC until control leaves the page it is
// on, execution falls back to the interpreter, or the program halts; it
// does not stop at a serviced system call or a same-page indirect branch,
// which continue in the run loop (runGroupLoop). On return St holds the
// complete architected state, making every return a valid comparison
// point for a lockstep differential checker; the precise boundaries in
// between are reported to observers (Observer.Boundary). It reports
// halted=true on a clean program halt.
func (m *Machine) StepGroup() (halted bool, err error) {
	if err := m.checkBudget(); err != nil {
		return false, err
	}
	halt, err := m.runGroup()
	m.Exec.RF.ToState(&m.St)
	if errors.Is(err, errHaltFromInterp) {
		halt, err = true, nil
	}
	if halt {
		// Program done: write the deferred entry-extension rewrites through
		// to the persistent cache (Close catches runs that never halt).
		m.flushCacheStores()
	}
	return halt, err
}

// checkBudget reports ErrBudget once the instruction budget is spent, and
// otherwise hands what is left of it to the executor as its Limit, so a
// group run stops between two VLIWs exactly where this check would fail.
// Only interpretation, which leaves the run loop, moves the part of the
// clock (instClock) that the executor does not count. Without a budget the
// Limit stays the zero Start set.
func (m *Machine) checkBudget() error {
	if m.maxInsts == 0 {
		return nil
	}
	if m.instClock() >= m.maxInsts {
		return fmt.Errorf("%w (pc %#x)", ErrBudget, m.St.PC)
	}
	m.Exec.Limit = m.maxInsts - m.Stats.InterpInsts
	return nil
}

// pageFor returns (building if needed) the translation of page p, which
// holds addr — the "VLIW translation missing" service (§3.1).
func (m *Machine) pageFor(p *page, addr uint32) (*core.PageTranslation, error) {
	if p.pt != nil {
		m.touch(p)
		return p.pt, nil
	}
	// A persistent-cache hit installs the prior run's translation of these
	// exact bytes instead of rebuilding it (async machines consult the
	// cache in groupAsync before the page ever reaches here).
	if m.cacheUsable(p.base) && m.installCached(p) {
		return p.pt, nil
	}
	before := m.Trans.Stats
	var pt *core.PageTranslation
	var err error
	if m.Opt.Interpretive {
		pt = core.EmptyPage(addr, m.Trans.Opt.PageSize)
	} else {
		pt, err = m.safeTranslatePage(addr)
	}
	if err != nil {
		return nil, m.translatorFailed(p.base, err)
	}
	work := m.Trans.Stats.Sub(before)
	m.Stats.PagesBuilt++
	m.Stats.GroupsBuilt += work.Groups
	m.emit(telemetry.EvTranslate, addr, work.BaseInsts)
	m.translated(pt, work, AsyncLatency{})
	m.install(p, pt)
	m.cacheStore(pt)
	return pt, nil
}

// castOut invalidates least recently used pages while the pool holds more
// than MaxPages.
func (m *Machine) castOut() {
	if m.Opt.MaxPages <= 0 {
		return
	}
	for m.livePages > m.Opt.MaxPages {
		victim := m.lruHead.base
		m.invalidate(victim)
		m.Stats.CastOuts++
		m.emit(telemetry.EvCastOut, victim, 0)
	}
}

// invalidate destroys the translations of one page (§3.2). Every caller —
// SMC drain, LRU cast-out, quarantine engagement, adaptive retranslation —
// funnels through here, so the unchain walks below are the single point
// where group-chaining links die with the translation they point into.
func (m *Machine) invalidate(base uint32) {
	m.emit(telemetry.EvInvalidate, base, 0)
	p := m.pages[base]
	if p == nil {
		return // never met: nothing translated, nothing in flight
	}
	// A new epoch stales any worker result in flight, whether or not a
	// translation is live; the page's hotness and its retry history start
	// over, which is also what lets a quarantine release re-admit the page
	// through the hot threshold.
	p.epoch++
	p.hot = 0
	p.retry = retryState{}
	// The optimizing tier dies with the page: the tier-2 translation and
	// its promotion-policy state (the dispatch count restarts here).
	if p.t2 != nil {
		p.t2.Unchain()
		p.t2 = nil
	}
	p.t2st = t2State{}
	if p.pt == nil {
		return
	}
	p.pt.Unchain()
	p.pt = nil
	m.livePages--
	m.unlink(p)
	m.Mem.SetReadOnly(base, false)
}

// InvalidatePage destroys the translation of the page containing addr, if
// any (exported for the chaos harness's cast-out churn injector; a real
// VMM would do this on a TLB or page-table invalidation from the guest).
func (m *Machine) InvalidatePage(addr uint32) {
	m.invalidate(addr &^ (m.Trans.Opt.PageSize - 1))
}

// InjectSMC marks the page containing addr as modified, exactly as a
// guest store into protected code would: its translation is invalidated
// at the next precise boundary. Spurious events are harmless — that is
// the §3.2 safety property the chaos SMC-storm injector exercises.
func (m *Machine) InjectSMC(addr uint32) {
	m.dirty[addr&^(m.Trans.Opt.PageSize-1)] = true
}

// TranslatedPages returns the bases of currently translated pages in
// ascending order (deterministic, for seeded injectors and inspection).
func (m *Machine) TranslatedPages() []uint32 {
	return m.pagesWhere(func(p *page) bool { return p.pt != nil })
}

// sortedKeys returns a page-keyed map's keys in ascending order, so walks
// over the in-flight set and telemetry's spans are deterministic.
func sortedKeys[V any](pages map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(pages))
	for b := range pages {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// CurrentGroup returns the translated group most recently entered (nil
// before any translated execution), for divergence reporting.
func (m *Machine) CurrentGroup() *vliw.Group { return m.curGroup }

// groupAt resolves the base address to a translated group, servicing
// missing-translation and invalid-entry exceptions on the way.
func (m *Machine) groupAt(addr uint32) (*vliw.Group, error) {
	p := m.page(addr &^ (m.Trans.Opt.PageSize - 1))
	if p.inhibit {
		saved := m.Trans.Opt.SpeculateLoads
		m.Trans.Opt.SpeculateLoads = false
		defer func() { m.Trans.Opt.SpeculateLoads = saved }()
	}
	pt, err := m.pageFor(p, addr)
	if err != nil {
		return nil, err
	}
	if g, ok := pt.Groups[addr]; ok {
		return g, nil
	}
	before := m.Trans.Stats
	g, err := m.safeEnsureEntry(pt, addr, m.Opt.Interpretive)
	if err != nil {
		return nil, m.translatorFailed(p.base, err)
	}
	work := m.Trans.Stats.Sub(before)
	m.Stats.EntriesBuilt++
	m.Stats.GroupsBuilt += work.Groups
	m.emit(telemetry.EvTranslate, addr, work.BaseInsts)
	m.translated(pt, work, AsyncLatency{})
	// The page grew a new entry group: its cache entry needs a rewrite so
	// the next run reloads the extended translation. Deferred — a run
	// discovering N entry points on one page must pay one rewrite, not N
	// (each rewrite re-encodes and re-compresses the whole page).
	if m.cacheUsable(p.base) {
		p.pending = pt
	}
	return g, nil
}

// flushCacheStores writes every pending entry-extension rewrite. A page
// whose pending translation is no longer the live one was invalidated in
// between — its bytes may differ from the translation's input, so the
// rewrite is dropped (content addressing would make it unreachable at
// best, mis-keyed at worst).
func (m *Machine) flushCacheStores() {
	for _, base := range m.pagesWhere(func(p *page) bool { return p.pending != nil }) {
		p := m.pages[base]
		if p.pending == p.pt {
			m.cacheStore(p.pt)
		}
		p.pending = nil
	}
}

// recordTrace interprets ahead from entry and records the direction of
// every conditional branch (Chapter 6: "since we are decoding the base
// architecture instructions, interpreting them at that point adds only a
// small overhead"). It returns a guide the translator consumes in order.
func (m *Machine) recordTrace(entry uint32) func(pc uint32) (bool, bool) {
	type rec struct {
		pc    uint32
		taken bool
	}
	var recs []rec
	m.Stats.TraceRecInsts += m.interpretAhead(entry, uint64(4*m.Trans.Opt.Window), func(pc uint32, taken bool) {
		recs = append(recs, rec{pc, taken})
	})
	i := 0
	return func(pc uint32) (bool, bool) {
		if i >= len(recs) || recs[i].pc != pc {
			return false, false
		}
		t := recs[i].taken
		i++
		return t, true
	}
}

// interpretAhead runs the interpreter from entry, from the current
// register file, for up to budget instructions on a scratch view of memory
// and a copy of the I/O environment, calling onBranch at every conditional
// branch. It returns how many instructions ran; halt, fault and budget
// exhaustion all end the run. Trace recording and tier-2 promotion
// profiling both use it.
//
// The view stores into the live image and rolls its stores back on
// return, so the cost is the stores made, not a copy of guest memory. That
// is sound because interpreting ahead runs only on the machine goroutine
// and no other goroutine reads the live image: async workers and
// Precompile translate from private page snapshots (translateSnapshot).
// The view has no hooks, so its stores raise no code-modification
// interrupt, mark no page dirty and hit no injected fault.
func (m *Machine) interpretAhead(entry uint32, budget uint64, onBranch func(pc uint32, taken bool)) uint64 {
	scratch := m.Mem.Scratch()
	defer scratch.Rollback()
	ip := interp.New(scratch, m.Env.Clone(), entry)
	m.Exec.RF.ToState(&ip.St)
	ip.St.PC = entry
	ip.OnBranch = onBranch
	_ = ip.Run(budget)
	return ip.InstCount
}

// runGroup executes translated code from the current PC until control
// leaves the current page, execution falls back to the interpreter, or the
// program halts. It returns halt=true on SysHalt.
//
// The Stats.Exec mirror is synced here, once per StepGroup, and nowhere
// else: everything inside the run loop that needs the instruction count
// (the budget check, boundary observers, the quarantine, retry and tier-2
// policies) reads the live executor counter through instClock.
func (m *Machine) runGroup() (bool, error) {
	halt, err := m.runGroupLoop()
	m.Stats.Exec = m.Exec.Stats
	return halt, err
}

// runGroupLoop is the run loop: a dispatch resolves the PC to a group,
// and the group's exits decide whether execution continues in the loop.
// An ExitEntry jumps straight to its target group. A serviced system call
// and a same-page indirect exit hop instead: they go back through the
// dispatch below without returning from StepGroup, so observers and the
// invalidation drains see the same dispatch points as if they had. hop is
// then the exit's leaf, whose Exit.Chain caches the group the exit last
// resolved to; a hit skips the group lookup, a miss looks the group up
// and refills the cache.
func (m *Machine) runGroupLoop() (bool, error) {
	var hop *vliw.Node
dispatch:
	if hop != nil {
		// StepGroup's own first step, which a hop skips by not returning.
		if err := m.checkBudget(); err != nil {
			return false, err
		}
	}
	for _, o := range m.obs {
		o.DispatchStart(m.St.PC)
	}
	m.drainDirty()
	if m.pipe != nil {
		// Publish finished worker translations first, at this precise
		// boundary: drainDirty has just applied any pending invalidations,
		// so a published result is checked against final epochs.
		m.drainAsync()
	}
	if m.pageQuarantined(m.St.PC) {
		// Graceful degradation: the page keeps invalidating or faulting
		// its translations, so run it interpretively until the backoff
		// expires instead of translating it yet again.
		return false, m.interpret()
	}
	var g *vliw.Group
	var err error
	if hop != nil && hop.Exit.Chain != nil && hop.Exit.Chain.Entry == m.St.PC {
		// The hop's leaf caches this target. (An invalidation above
		// unchained the leaf if it destroyed the leaf's page.)
		g = hop.Exit.Chain
		m.Stats.ChainFollows++
		if m.Opt.MaxPages > 0 {
			// Refresh the page's recency as the lookup would: an async
			// publish above may have touched another page, and the next
			// cast-out must not pick the page this loop runs on.
			m.touch(m.liveAt(m.St.PC))
		}
	} else if m.pipe != nil {
		g, err = m.groupAsync(m.St.PC)
		if err == nil && g == nil {
			// Cold, queued, or in flight: keep executing interpretively.
			return false, m.interpret()
		}
	} else {
		g, err = m.groupAt(m.St.PC)
	}
	if errors.Is(err, errTranslationUnavailable) {
		// Panic isolation: the translator blew up on this page and the
		// page is now quarantined. Architected semantics are preserved by
		// interpreting; only speed is lost.
		return false, m.interpret()
	}
	if err != nil {
		return false, err
	}
	if hop != nil && hop.Exit.Chain != g && m.live(m.curGroup) {
		// A miss: refill the leaf's cache, unless the leaf's page was
		// invalidated since the exit (the group being left is still
		// current).
		hop.Exit.Chain = g
		m.Stats.ChainPatches++
	}
	if m.Opt.Tier2 {
		// Prefer a tier-2 translation of this PC when one exists, and feed
		// the promotion policy otherwise. The executor journals a tier-2
		// (deferred-commit) group's stores so a fault can deoptimize to the
		// group-entry checkpoint; tier-1 groups on this machine are precise
		// and need no journal.
		g = m.tier2Dispatch(g)
		if g.TierOf() >= 2 {
			m.Exec.Journal = m.t2journal
		} else {
			m.Exec.Journal = nil
		}
	}
	// A committed VLIW is a precise architected boundary (precise mode
	// only), which observers see through the executor's commit hook for
	// the VLIWs a group run continues past. Inside a tier-2 group only
	// path ends are precise — deferred commits flush there — so it runs
	// without the hook. The group's tier holds until the next dispatch: a
	// tier-2 machine neither chains nor hops.
	m.Exec.OnCommit = nil
	if len(m.obs) != 0 && m.Trans.Opt.PreciseExceptions && g.TierOf() < 2 {
		m.Exec.OnCommit = m.commitHook
	}
	v := m.enterGroup(g)

	for {
		if err := m.checkBudget(); err != nil {
			if m.Exec.Journal != nil {
				// Mid-group state of a deferred-commit group is not
				// architected; report budget exhaustion from the precise
				// group-entry checkpoint instead.
				m.rollbackToCheckpoint()
			}
			return false, err
		}
		leaf, fault := m.Exec.Exec(v)
		m.syncCycles()
		if fault != nil {
			return m.recover(fault)
		}

		// The run's last VLIW is a boundary too, unless the run stopped
		// between two VLIWs (an ExitNext leaf), where the commit hook has
		// reported it. Syscall exits defer the boundary until the service
		// routine has run, so the observed state includes its effects.
		exit := &leaf.Exit
		if len(m.obs) != 0 && m.Trans.Opt.PreciseExceptions &&
			exit.Kind != vliw.ExitNext && exit.Kind != vliw.ExitSyscall {
			m.boundary()
		}

		// Inside a group run only the commit hook can mark a page modified,
		// and it then stops the run (vliw.Executor). Drain here, after the
		// boundary observers, so that a page one of them marked is
		// invalidated before the next VLIW runs.
		smcHit := m.drainDirty()

		switch exit.Kind {
		case vliw.ExitNext:
			// The commit hook or the budget stopped the run.
			if smcHit {
				if m.Exec.Journal != nil {
					// A deferred-commit group's VLIW boundary is not a
					// precise state: roll back to the group entry before
					// handing control to the dispatcher.
					m.rollbackToCheckpoint()
					return false, nil
				}
				// The next VLIW may belong to an invalidated translation:
				// continue at its precise entry via a fresh lookup.
				m.St.PC = exit.Next.EntryBase
				return false, nil
			}
			v = exit.Next
			continue

		case vliw.ExitEntry:
			m.Stats.IntraEntry++
			m.St.PC = exit.Target
			if smcHit {
				return false, nil
			}
			if m.Opt.Tier2 {
				// Every transfer returns to the dispatcher so the tiering
				// policy sees it: promotion counting, tier-2 preference,
				// and the per-group journal switch all live there.
				return false, nil
			}
			// A chained exit edge already names the target group: jump to
			// it without touching the dispatch maps. (Skipping the LRU
			// touch is benign — the jump is intra-page and runs no drain,
			// so no other page's recency can interleave before the next
			// dispatch, which touches the page, a hop's included.)
			if exit.Chain != nil {
				m.Stats.ChainFollows++
				v = m.enterGroup(exit.Chain)
				continue
			}
			// Stay inside the page: jump to the target group directly.
			if m.liveAt(m.St.PC) == nil {
				return false, nil
			}
			ng, err := m.groupAt(m.St.PC)
			if errors.Is(err, errTranslationUnavailable) {
				return false, m.interpret()
			}
			if err != nil {
				return false, err
			}
			// Patch the exit edge that got us here so the next trip skips
			// the dispatch above.
			if exit.Chain == nil {
				exit.Chain = ng
				m.Stats.ChainPatches++
				m.emit(telemetry.EvChainPatch, ng.Entry, 0)
			}
			v = m.enterGroup(ng)
			continue

		case vliw.ExitOffpage:
			// Constant-propagated indirect branches keep their original
			// type for Table 5.6 (exit.Via records the origin).
			switch exit.Via.Kind {
			case vliw.RLR:
				m.Stats.CrossLR++
			case vliw.RCTR:
				m.Stats.CrossCTR++
			default:
				m.Stats.CrossDirect++
			}
			m.St.PC = exit.Target
			return false, nil

		case vliw.ExitIndirect:
			tgt, _, _ := m.Exec.RF.Read(exit.Via)
			tgt &^= 3
			counter := &m.Stats.CrossLR
			if exit.Via.Kind == vliw.RCTR {
				counter = &m.Stats.CrossCTR
			}
			samePage := m.crossIndirect(tgt, counter)
			m.St.PC = tgt
			// Hop unless StepGroup's caller must see the transfer: on a
			// tier-2 machine the dispatcher owns promotion and the journal
			// switch, and an SMC drain may have destroyed the group being
			// left.
			if samePage && !smcHit && !m.Opt.Tier2 {
				hop = leaf
				goto dispatch
			}
			return false, nil

		case vliw.ExitSyscall:
			m.Stats.Syscalls++
			samePage := m.samePage(exit.Target)
			m.St.PC = exit.Target
			if halt, err := m.syscall(); halt || err != nil {
				return halt, err
			}
			if len(m.obs) != 0 && m.Trans.Opt.PreciseExceptions {
				m.boundary()
			}
			if samePage && !smcHit && !m.Opt.Tier2 { // as for ExitIndirect
				hop = leaf
				goto dispatch
			}
			return false, nil

		case vliw.ExitInterp:
			m.St.PC = exit.Target
			return false, m.interpret()

		default:
			return false, fmt.Errorf("vmm: unexpected exit %v", *exit)
		}
	}
}

// crossIndirect counts an indirect transfer by type when it crosses a page
// boundary (Table 5.6 counts cross-page branches) and reports whether it
// stays on the page.
func (m *Machine) crossIndirect(tgt uint32, counter *uint64) bool {
	if !m.samePage(tgt) {
		*counter++
		return false
	}
	m.Stats.IntraEntry++
	return true
}

// samePage reports whether addr lies on the page of the group running
// (St.PC holds its entry until an exit sets the next PC).
func (m *Machine) samePage(addr uint32) bool {
	return addr&^(m.Trans.Opt.PageSize-1) == m.St.PC&^(m.Trans.Opt.PageSize-1)
}

// syscall services a system call on the register file in place. The ABI
// (interp.Env.Syscall) reads only r0, r3 and r4 and writes only r3, so the
// rest of the register file — rename registers and load-verify records
// included — carries across the call as it does across a chain follow.
func (m *Machine) syscall() (halt bool, err error) {
	rf := &m.Exec.RF
	st := ppc.State{PC: m.St.PC}
	st.GPR[0], st.GPR[3], st.GPR[4] = rf.GPR[0], rf.GPR[3], rf.GPR[4]
	err = m.Env.Syscall(&st, m.Mem)
	if errors.Is(err, interp.ErrHalt) {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	if st.GPR[3] != rf.GPR[3] {
		rf.Write(vliw.GPR(3), st.GPR[3])
	}
	return false, nil
}

// live reports whether g still belongs to its page's current translation:
// an invalidation destroys the translation, and a retranslation of the
// same page builds new groups.
func (m *Machine) live(g *vliw.Group) bool {
	p := m.liveAt(g.Entry)
	return p != nil && p.pt.Groups[g.Entry] == g
}

// recover services a VLIW fault: the executor has rolled the register
// file back to the VLIW's entry — a precise instruction boundary — and
// the VMM resumes interpretively from there. Aliases (load-verify
// mismatches) re-execute silently; true exceptions are also located
// precisely with the §3.5 scan for reporting.
func (m *Machine) recover(f *vliw.Fault) (bool, error) {
	if m.curGroup != nil && m.curGroup.TierOf() >= 2 {
		// A tier-2 fault deoptimizes to the retained tier-1 translation
		// (tier2.go); it never retranslates or interprets inline.
		return m.deoptimize(f)
	}
	if !m.Trans.Opt.PreciseExceptions {
		// Appendix B-style recovery: without per-instruction commits, a
		// VLIW entry is not a precise boundary — but the group entry is
		// (every path exit flushes its deferred commits). Undo the
		// group's stores, restore the checkpointed registers, and
		// re-execute interpretively from the group entry.
		if f.Alias {
			m.Stats.AliasRecoveries++
			m.noteAlias()
		} else if !f.CodeMod {
			m.Stats.Exceptions++
		}
		m.emit(telemetry.EvException, f.Resume, faultArg(f))
		m.rollbackToCheckpoint()
		return false, m.interpret()
	}
	if f.CodeMod {
		// interpret() will re-execute the store; the protected-store hook
		// then marks the page dirty and the next runGroup retranslates.
	} else if f.Alias {
		m.Stats.AliasRecoveries++
		m.noteAlias()
		m.noteGroupTrouble()
	} else {
		m.Stats.Exceptions++
		m.noteGroupTrouble()
		m.faulted(f)
	}
	m.emit(telemetry.EvException, f.Resume, faultArg(f))
	m.St.PC = f.Resume
	return false, m.interpret()
}

// faultArg encodes a fault's class for the trace event stream: 0 exception,
// 1 alias, 2 SMC.
func faultArg(f *vliw.Fault) uint64 {
	switch {
	case f.CodeMod:
		return 2
	case f.Alias:
		return 1
	default:
		return 0
	}
}

// noteGroupTrouble charges a recovery event against the current group's
// page for the quarantine policy.
func (m *Machine) noteGroupTrouble() {
	if m.curGroup != nil {
		m.noteTrouble(m.curGroup.Entry &^ (m.Trans.Opt.PageSize - 1))
	}
}

// aliasRetranslateThreshold is how many alias recoveries one group entry
// may cause before it is rebuilt without load speculation.
const aliasRetranslateThreshold = 4

// noteAlias implements the paper's adaptive remedy for alias-heavy code:
// after repeated load-verify failures, the offending entry point is
// retranslated with loads kept in store order.
func (m *Machine) noteAlias() {
	if !m.Opt.AdaptiveSpeculation || m.curGroup == nil {
		return
	}
	p := m.page(m.curGroup.Entry &^ (m.Trans.Opt.PageSize - 1))
	p.aliases++
	if p.aliases < aliasRetranslateThreshold || p.inhibit {
		return
	}
	p.inhibit = true
	m.Stats.AliasRetranslations++
	m.invalidate(p.base)
	m.Mem.SetReadOnly(p.base, true) // the code itself is unchanged
}

// interpret runs the base interpreter from the current PC until it
// reaches an existing translation entry or exhausts the budget (in which
// case a new entry is created at the stopping point). This is also how
// rfi-style re-entries avoid flooding pages with entry points (§3.4).
func (m *Machine) interpret() error {
	m.Exec.RF.ToState(&m.St)
	ip := &m.ip
	*ip = interp.Interp{St: m.St, Mem: m.Mem, Env: m.Env, DeliverDSI: m.Opt.GuestFaultVectors}
	startPage := m.St.PC &^ (m.Trans.Opt.PageSize - 1)
	for steps := 0; steps < m.Opt.InterpBudget; steps++ {
		if m.hasEntry(ip.St.PC) && steps > 0 {
			break
		}
		// With the async pipeline on, a page crossing returns to the
		// dispatcher: hotness is counted per dispatched page, so gliding
		// across pages interpretively would starve the tiering policy of
		// exactly the touches it is supposed to count.
		if m.pipe != nil && steps > 0 && ip.St.PC&^(m.Trans.Opt.PageSize-1) != startPage {
			break
		}
		if err := ip.Step(); err != nil {
			m.Stats.InterpInsts += ip.InstCount
			m.St = ip.St
			if errors.Is(err, interp.ErrHalt) {
				m.Exec.RF.FromState(&m.St)
				return errHaltFromInterp
			}
			// A precise interpreter fault: deliver to the base OS.
			m.Exec.RF.FromState(&m.St)
			return m.deliver(err)
		}
	}
	m.Stats.InterpInsts += ip.InstCount
	m.St = ip.St
	m.Exec.RF.FromState(&m.St)
	m.Exec.ClearSpec()
	return nil
}

var errHaltFromInterp = errors.New("vmm: halted during interpretation")

// checkpoint records the group-entry state for imprecise-mode recovery.
func (m *Machine) checkpoint(entry uint32) {
	if m.Exec.Journal == nil {
		return
	}
	m.ckptRF = m.Exec.RF
	m.ckptPC = entry
	m.ckptInsts = m.Exec.Stats.BaseInsts
	m.Exec.Journal.Reset()
}

// rollbackToCheckpoint rewinds a deferred-commit group to its entry: the
// journaled stores are undone, the register file and PC return to the
// checkpoint, and the rolled-back instructions are uncounted. The result
// is the precise architected state the group was entered with.
func (m *Machine) rollbackToCheckpoint() {
	m.Exec.Journal.Undo(m.Mem)
	m.Exec.RF = m.ckptRF
	m.St.PC = m.ckptPC
	m.Exec.Stats.BaseInsts = m.ckptInsts
	m.Exec.ClearSpec()
}

// drainDirty invalidates the translations of pages whose code was
// modified, reporting whether any invalidation happened.
func (m *Machine) drainDirty() bool {
	if len(m.dirty) == 0 {
		return false
	}
	m.drainPages()
	return true
}

// drainPages invalidates the modified pages lowest first. Go's map order
// is random, and identical runs must invalidate, trace and quarantine in
// one order.
func (m *Machine) drainPages() {
	for len(m.dirty) != 0 {
		b := uint32(math.MaxUint32)
		for d := range m.dirty {
			b = min(b, d)
		}
		delete(m.dirty, b)
		m.invalidate(b) // also bumps the page's in-flight epoch
		m.Stats.SMCInvalidations++
		m.emit(telemetry.EvSMCInvalidate, b, 0)
		m.noteTrouble(b)
	}
}

func (m *Machine) hasEntry(addr uint32) bool {
	p := m.liveAt(addr)
	if p == nil {
		return false
	}
	_, ok := p.pt.Groups[addr]
	return ok
}

// deliver reports an exception to the base architecture operating system
// (§3.3): SRR0/SRR1/DAR are filled and control transfers to the handler
// vector. Our reproduction has no resident OS, so when no handler is
// configured the error is surfaced to the caller with precise state.
func (m *Machine) deliver(err error) error {
	var f *mem.Fault
	if errors.As(err, &f) {
		m.St.SRR0 = m.St.PC
		m.St.SRR1 = m.St.MSR
		m.St.DAR = f.Addr
		if f.Write {
			m.St.DSISR = 0x0200_0000
		} else {
			m.St.DSISR = 0x0000_0000
		}
	}
	return err
}
