package vmm

// The asynchronous tiered translation pipeline. DAISY's dominant cost is
// translation itself — §4.4 measures ~4315 host instructions per base
// instruction, paid synchronously on first touch of every page. This file
// takes tier-1 demand translation off the critical path (tier-2 promotion
// stays inline on every machine, tier2.go):
//
//   - Tiering: a cold page is interpreted; only after it has been
//     dispatched HotThreshold times does the VMM spend translation effort
//     on it (the paper's "leave interpretive mode quickly" rule made
//     tunable, so effort follows the hot set).
//   - Async: a bounded pool of worker goroutines translates hot pages
//     from private snapshots of their bytes while the machine keeps
//     executing interpretively. A finished translation is published only
//     by the machine goroutine, at a precise boundary, so the handoff is
//     atomic with respect to architected state.
//   - Staleness: each page record carries an epoch, bumped by every
//     invalidation (SMC drain, cast-out, quarantine, adaptive
//     retranslation). A result
//     whose epoch — or whose page-byte digest — no longer matches is
//     dropped, never published (Stats.StaleTranslationsDropped).
//   - Backpressure: the job queue is bounded; when it is full the page
//     simply stays interpretive and the enqueue is retried at a later
//     dispatch (Stats.AsyncQueueFull), so the queue cannot grow without
//     bound and translation effort cannot outrun execution.
//
// On top of that sits the crash-safety layer, built on one principle:
// the interpreter can always carry any page, so no worker failure may
// become a guest-visible failure.
//
//   - Panic isolation: a worker runs the translator behind the same
//     recover barrier as the synchronous path (guard.go). A panicking
//     translation surfaces as an error result; the page is quarantined
//     interpret-only (a deterministic panic would just recur).
//   - Retry with backoff: a failed (non-panic) translation is retried at
//     a later dispatch after an exponentially growing, deterministically
//     jittered span of the instruction clock. When asyncMaxRetries is
//     spent, the page is quarantined instead (Stats.AsyncRetriesExhausted).
//   - Watchdog: every in-flight job carries a wall-clock deadline
//     (AsyncDeadline). A job past it is abandoned — removed from the
//     inflight set so the page can be rescheduled — and a replacement
//     worker is spawned for the presumed-stuck one (bounded by
//     respawnCap). If the abandoned result arrives late anyway, its job
//     sequence number identifies it and it is dropped
//     (Stats.AsyncLateDrops), never published.
//
// Workers never touch machine state: jobs carry a copy of the page bytes,
// results come back over a channel sized so a worker can never block on
// delivery, and the machine drains completions at dispatch boundaries.
// The static translator reads nothing outside its page (paths stop at the
// page boundary before fetching), which is what makes the snapshot a
// complete translation input.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"daisy/internal/core"
	"daisy/internal/telemetry"
	"daisy/internal/txcache"
	"daisy/internal/vliw"
)

// txJob asks a worker to translate the page at base, first touched at
// entry. The snapshot and digest pin the exact bytes being translated;
// the epoch pins the invalidation generation the result is valid for; the
// seq uniquely names this attempt so a watchdog-abandoned result can be
// recognized and dropped if it arrives late.
type txJob struct {
	base   uint32
	entry  uint32
	epoch  uint64
	seq    uint64
	digest [32]byte
	snap   []byte

	// plan is the chaos-planted fault for this attempt, drawn on the
	// machine goroutine at enqueue time (so seeded injectors stay
	// deterministic) and executed by the worker inside its barriers.
	plan *TranslationFault

	// enqueuedNs stamps the handoff for the pipeline latency histograms
	// (host clock; one stamp per page translation, never per instruction).
	enqueuedNs int64
}

// txResult is a finished (or failed) translation, pending publish.
type txResult struct {
	job   txJob
	pt    *core.PageTranslation
	stats core.Stats
	err   error

	// Worker stamps bracketing the translation, for the queue-wait and
	// translate latency histograms.
	startedNs int64
	doneNs    int64
}

// inflightJob is the machine-side record of one queued-or-translating job.
type inflightJob struct {
	seq        uint64
	deadlineNs int64 // wall clock past which the watchdog abandons it
}

// retryState tracks the failure history of one page's async translation
// (page.retry).
type retryState struct {
	attempts  int
	notBefore uint64 // instruction clock; no re-enqueue until then
}

// txPipeline owns the worker pool. Everything except the channels is
// touched only by the machine goroutine; the channels are the sole
// cross-goroutine seam.
type txPipeline struct {
	jobs chan txJob
	done chan txResult
	wg   sync.WaitGroup
	opt  core.Options // workers' private copy of the translator options

	// inflight marks pages queued or being translated, so a page is never
	// enqueued twice and never cache-installed while a worker owns it.
	inflight map[uint32]inflightJob

	// abandoned holds the seqs of watchdog-abandoned jobs whose results
	// have not yet come back (late arrivals are dropped on sight).
	abandoned map[uint64]bool

	nextSeq  uint64
	workers  int
	respawns int // replacement workers spawned so far (capped)

	// testHold, when non-nil, gates each worker between dequeue and
	// translation so tests can deterministically pile up the queue.
	testHold chan struct{}
}

// respawnCap bounds watchdog worker respawns to this many times the
// configured pool size: a systematically hanging translator degrades to
// interpret-only pages rather than a goroutine leak per page.
const respawnCap = 2

// startPipeline spins up the worker pool (New calls it when
// AsyncTranslate is set and the mode supports it).
func (m *Machine) startPipeline() {
	workers := m.Opt.AsyncWorkers
	if workers <= 0 {
		workers = 2
	}
	depth := m.Opt.AsyncQueueDepth
	if depth <= 0 {
		depth = 8
	}
	p := &txPipeline{
		jobs: make(chan txJob, depth),
		// One slot per possible outstanding job: depth queued + one in the
		// hands of each worker, including every respawn the watchdog could
		// ever add. A worker can therefore always deliver and exit, even
		// if the machine stops draining (Close relies on this, and it is
		// what lets a genuinely hung worker be leaked safely).
		done:      make(chan txResult, depth+workers*(1+respawnCap)),
		opt:       m.Opt.Trans,
		inflight:  make(map[uint32]inflightJob),
		abandoned: make(map[uint64]bool),
		workers:   workers,
	}
	for i := 0; i < workers; i++ {
		p.spawnWorker()
	}
	m.pipe = p
}

// spawnWorker adds one worker goroutine to the pool. The loop exits when
// the jobs channel is closed and drained.
func (p *txPipeline) spawnWorker() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for job := range p.jobs {
			if p.testHold != nil {
				<-p.testHold
			}
			if job.plan != nil && job.plan.Hang > 0 {
				time.Sleep(job.plan.Hang)
			}
			r := txResult{job: job, startedNs: time.Now().UnixNano()}
			r.pt, r.stats, r.err = translateSnapshot(job.base, job.entry, job.snap, job.plan, p.opt)
			r.doneNs = time.Now().UnixNano()
			p.done <- r
		}
	}()
}

// closeGrace is how long Close waits for workers to finish. A worker hung
// past it is leaked — its eventual result lands in the (capacity-proven)
// done buffer and is garbage collected with the pipeline — because
// blocking teardown on a stuck translation would turn a degraded service
// into a wedged one.
const closeGrace = 2 * time.Second

// Close stops the asynchronous translation workers and discards any
// unpublished results. It is a no-op on a synchronous machine. The
// machine must not be stepped after Close.
func (m *Machine) Close() {
	m.flushCacheStores()
	if m.pipe == nil {
		return
	}
	close(m.pipe.jobs)
	if m.pipe.testHold != nil {
		close(m.pipe.testHold)
	}
	finished := make(chan struct{})
	go func(p *txPipeline) {
		p.wg.Wait()
		close(finished)
	}(m.pipe)
	select {
	case <-finished:
	case <-time.After(closeGrace):
		// Hung worker(s): leak them rather than wedge teardown.
	}
	m.pipe = nil
}

// hotThreshold returns the dispatch count at which a cold page earns a
// translation (HotThreshold, defaulting to 2: interpret the first trip,
// translate on re-touch — pages executed once never pay for a schedule).
func (m *Machine) hotThreshold() int {
	if m.Opt.HotThreshold > 0 {
		return m.Opt.HotThreshold
	}
	return 2
}

// asyncDeadline returns the watchdog's per-job wall-clock budget.
func (m *Machine) asyncDeadline() time.Duration {
	if m.Opt.AsyncDeadline > 0 {
		return m.Opt.AsyncDeadline
	}
	return 2 * time.Second
}

// groupAsync is the non-blocking dispatch lookup: it returns the group at
// addr when one is available (published, cached, or an incremental entry
// extension of an already-published page), or nil when the page should
// keep running interpretively — still cold, queued, in flight, backing
// off after a failure, or pushed back by a full queue.
func (m *Machine) groupAsync(addr uint32) (*vliw.Group, error) {
	p := m.page(addr &^ (m.Trans.Opt.PageSize - 1))
	if p.pt != nil {
		// Page is live. A missing entry point is built synchronously:
		// entry extension is incremental (the page's groups already
		// exist), far cheaper than a page build, and keeping it inline
		// preserves the §3.4 invalid-entry semantics exactly.
		return m.groupAt(addr)
	}
	if _, ok := m.pipe.inflight[p.base]; ok {
		return nil, nil
	}
	if m.instClock() < p.retry.notBefore {
		// Failed recently: honor the backoff before translating again.
		return nil, nil
	}
	// Cold page: a persistent-cache hit skips both the hotness dues and
	// the queue — installing a finished translation is cheap.
	if m.cacheUsable(p.base) && m.installCached(p) {
		return m.groupAt(addr)
	}
	p.hot++
	if p.hot == 1 {
		m.emit(telemetry.EvAsyncWarmup, p.base, 0)
	}
	if p.hot < m.hotThreshold() {
		return nil, nil
	}
	m.enqueue(p.base, addr)
	return nil, nil
}

// enqueue offers the tier-1 translation of a hot, untranslated page to
// the worker pool. A full queue is backpressure, not an error: it counts
// AsyncQueueFull and the page retries at a later dispatch. It is checked
// first, so a full queue costs no snapshot, hash or chaos-plan draw that
// would only be thrown away. Fault plans are drawn here, on the machine
// goroutine, so a seeded injector's random draws happen in deterministic
// order regardless of worker scheduling.
func (m *Machine) enqueue(base, entry uint32) {
	if len(m.pipe.jobs) == cap(m.pipe.jobs) {
		m.Stats.AsyncQueueFull++
		return
	}
	src := m.Mem.Bytes(base, m.Trans.Opt.PageSize)
	if src == nil {
		// Page extends past physical memory; nothing translatable.
		return
	}
	m.pipe.nextSeq++
	job := txJob{
		base:       base,
		entry:      entry,
		epoch:      m.page(base).epoch,
		seq:        m.pipe.nextSeq,
		digest:     sha256.Sum256(src),
		snap:       src,
		plan:       m.plantedFault(base),
		enqueuedNs: time.Now().UnixNano(),
	}
	// Cannot block: the queue had room, and the machine goroutine is its
	// only sender.
	m.pipe.jobs <- job
	m.pipe.inflight[base] = inflightJob{
		seq:        job.seq,
		deadlineNs: job.enqueuedNs + int64(m.asyncDeadline()),
	}
	m.Stats.AsyncEnqueues++
	m.emit(telemetry.EvAsyncEnqueue, base, 0)
}

// drainAsync publishes every finished translation waiting on the done
// channel, then lets the watchdog abandon anything past its deadline. It
// runs on the machine goroutine at dispatch boundaries — precise
// architected states — which is what makes publication atomic. Nothing
// here can fail the guest: worker errors feed the retry/quarantine
// machinery and stale or late results are dropped.
func (m *Machine) drainAsync() {
	// Results can only be pending while a job is in flight or abandoned;
	// skipping the channel poll otherwise keeps the steady state
	// (everything published) as cheap as a synchronous machine's dispatch
	// loop.
	if len(m.pipe.inflight) == 0 && len(m.pipe.abandoned) == 0 {
		return
	}
	for {
		select {
		case r := <-m.pipe.done:
			if m.pipe.abandoned[r.job.seq] {
				// The watchdog gave up on this job; the page may already
				// be rescheduled (new seq) or quarantined. Drop it.
				delete(m.pipe.abandoned, r.job.seq)
				m.Stats.AsyncLateDrops++
				continue
			}
			delete(m.pipe.inflight, r.job.base)
			m.publish(r)
		default:
			m.watchdog()
			return
		}
	}
}

// watchdog abandons in-flight jobs past their wall-clock deadline: the
// job leaves the inflight set (so the page can be rescheduled through the
// retry backoff), its seq is remembered so a late result is dropped, and
// a replacement worker is spawned for the presumed-stuck one — bounded by
// respawnCap, so a systematically hanging translator cannot leak a
// goroutine per page.
func (m *Machine) watchdog() {
	if len(m.pipe.inflight) == 0 {
		return
	}
	now := time.Now().UnixNano()
	for base, inf := range m.pipe.inflight {
		if now < inf.deadlineNs {
			continue
		}
		delete(m.pipe.inflight, base)
		m.pipe.abandoned[inf.seq] = true
		m.Stats.AsyncAbandons++
		m.emit(telemetry.EvAsyncAbandon, base, 0)
		if m.pipe.respawns < m.pipe.workers*respawnCap {
			m.pipe.respawns++
			m.pipe.spawnWorker()
			m.Stats.AsyncRespawns++
		}
		m.noteAsyncFailure(base, nil)
	}
}

// publish installs one worker result, unless it went stale in flight: an
// epoch bump (SMC drain, cast-out, quarantine, adaptive retranslation) or
// changed page bytes (a store into a not-yet-protected page raises no
// code-modification interrupt, so the digest is re-checked here) discards
// the result. The next dispatch of the page re-triggers translation
// against its current contents. A failed result feeds the
// retry/quarantine machinery instead of erroring the guest.
func (m *Machine) publish(r txResult) {
	p := m.page(r.job.base)
	cur := m.Mem.Bytes(p.base, m.Trans.Opt.PageSize)
	if p.epoch != r.job.epoch || cur == nil || sha256.Sum256(cur) != r.job.digest {
		m.Stats.StaleTranslationsDropped++
		m.emit(telemetry.EvAsyncStale, p.base, 0)
		return
	}
	if r.err != nil {
		m.noteAsyncFailure(p.base, r.err)
		return
	}
	m.Trans.Stats = m.Trans.Stats.Add(r.stats)
	m.Stats.PagesBuilt++
	m.Stats.GroupsBuilt += r.stats.Groups
	m.Stats.AsyncPublishes++
	p.hot = 0
	p.retry = retryState{}
	m.emit(telemetry.EvTranslate, r.job.entry, r.stats.BaseInsts)
	m.emit(telemetry.EvAsyncPublish, p.base, 0)
	m.translated(r.pt, r.stats, AsyncLatency{
		QueueWait:    time.Duration(r.startedNs - r.job.enqueuedNs),
		Translate:    time.Duration(r.doneNs - r.startedNs),
		PublishDelay: time.Duration(time.Now().UnixNano() - r.doneNs),
	})
	m.install(p, r.pt)
	m.cacheStore(r.pt)
}

// noteAsyncFailure is the failure funnel for one page's async translation
// attempt: a worker error (err non-nil) or a watchdog abandonment (err
// nil). A recovered translator panic quarantines immediately — it is
// deterministic, so retrying would just panic again. Anything else is
// retried after an exponentially growing, deterministically jittered span
// of the instruction clock, until the retry budget is spent and the page
// is quarantined interpret-only.
func (m *Machine) noteAsyncFailure(base uint32, err error) {
	p := m.page(base)
	var pf *panicFault
	if errors.As(err, &pf) {
		m.notePanic(base)
		p.retry = retryState{}
		m.forceQuarantine(base)
		return
	}
	rs := &p.retry
	if rs.attempts >= asyncMaxRetries {
		m.Stats.AsyncRetriesExhausted++
		p.retry = retryState{}
		m.forceQuarantine(base)
		return
	}
	rs.attempts++
	rs.notBefore = m.instClock() + retryBackoff(base, rs.attempts)
	m.Stats.AsyncRetries++
	m.emit(telemetry.EvAsyncRetry, base, uint64(rs.attempts))
}

// asyncMaxRetries is how many times a failed worker translation (error,
// watchdog abandonment) is rescheduled before the page is quarantined
// interpret-only instead; asyncRetryBackoffBase is the first retry span in
// completed base instructions, and each further attempt doubles it.
const (
	asyncMaxRetries       = 3
	asyncRetryBackoffBase = 10_000
)

// retryBackoff returns the instruction-clock span before attempt may be
// retried: exponential in the attempt number, plus a deterministic jitter
// (an FNV hash of page and attempt) so many pages failing together do not
// re-enqueue in one burst — yet identical runs still replay identically.
func retryBackoff(base uint32, attempt int) uint64 {
	span := uint64(asyncRetryBackoffBase) << (attempt - 1)
	h := uint64(0xcbf29ce484222325)
	for _, w := range [2]uint64{uint64(base), uint64(attempt)} {
		h = (h ^ w) * 0x100000001b3
	}
	return span + h%(span/4+1)
}

// InflightPages returns the bases of pages currently queued or being
// translated by the worker pool, in ascending order (for tests and the
// chaos harness; empty on a synchronous machine).
func (m *Machine) InflightPages() []uint32 {
	if m.pipe == nil {
		return nil
	}
	return sortedKeys(m.pipe.inflight)
}

// ---- Persistent cross-run translation cache ----

// cacheUsable reports whether the persistent cache may serve the page at
// base. Translation must be a pure function of (page bytes, page base,
// options) for content addressing to be sound, so any machinery that
// feeds extra state into the schedule — trace guides, profile feedback,
// whole-program translation, a per-page speculation inhibit — bypasses
// the cache.
func (m *Machine) cacheUsable(base uint32) bool {
	p := m.pages[base]
	return m.Opt.Cache != nil && !m.Opt.Interpretive &&
		m.Opt.Trans.TraceGuide == nil && m.Opt.Trans.ProfileProb == nil &&
		!m.Opt.Trans.CrossPage && (p == nil || !p.inhibit)
}

// cacheKey builds the content address of the page at base from its
// current bytes (ok=false when the page extends past physical memory).
func (m *Machine) cacheKey(base uint32) (txcache.Key, bool) {
	b := m.Mem.Bytes(base, m.Trans.Opt.PageSize)
	if b == nil {
		return txcache.Key{}, false
	}
	if m.optFP == 0 {
		m.optFP = txcache.Fingerprint(optionsDesc(m.Trans.Opt))
	}
	return txcache.Key{PageBase: base, OptFP: m.optFP, Digest: sha256.Sum256(b)}, true
}

// optionsDesc spells out every translator option that shapes the emitted
// schedule. Anything listed here that changes between runs changes the
// cache key, so stale-option entries can never be replayed.
func optionsDesc(o core.Options) string {
	return fmt.Sprintf("cfg=%s/%d-%d-%d-%d ps=%d win=%d join=%d loop=%d pen=%d precise=%t spec=%t fwd=%t inline=%t",
		o.Config.Name, o.Config.Issue, o.Config.ALU, o.Config.Mem, o.Config.Branch,
		o.PageSize, o.Window, o.MaxJoinVisits, o.MaxLoopVisits, o.LoopExitPenalty,
		o.PreciseExceptions, o.SpeculateLoads, o.StoreForwarding, o.InlineReturns)
}

// installCached consults the persistent cache for the page containing
// addr and, on a hit, installs the decoded groups in their original
// layout order. Corrupt or version-skewed entries read as misses inside
// the store and fall through to fresh translation here; the miss reason
// is mirrored into the machine's per-reason counters.
func (m *Machine) installCached(p *page) bool {
	key, ok := m.cacheKey(p.base)
	if !ok {
		return false
	}
	groups, hot, reason := m.Opt.Cache.LoadReason(key)
	if reason != txcache.MissNone {
		m.Stats.CacheMisses++
		switch reason {
		case txcache.MissAbsent:
			m.Stats.CacheMissAbsent++
		case txcache.MissCorrupt:
			m.Stats.CacheMissCorrupt++
		case txcache.MissVersion:
			m.Stats.CacheMissSkew++
		case txcache.MissOptions:
			m.Stats.CacheMissOptions++
		}
		return false
	}
	if hot {
		m.Stats.CacheHotHits++
	}
	pt := core.EmptyPage(p.base, m.Trans.Opt.PageSize)
	for _, g := range groups {
		m.Trans.Adopt(pt, g)
	}
	m.Stats.CacheHits++
	m.Stats.PagesBuilt++ // a "translation missing" exception was serviced
	m.emit(telemetry.EvCacheHit, p.base, 0)
	m.translated(pt, core.Stats{}, AsyncLatency{})
	m.install(p, pt)
	return true
}

// cacheStore writes the page's current translation back to the
// persistent cache in layout order (write-through; a page that later
// gains entry points is simply rewritten with the larger set). A failed
// write never affects translation: the store degrades to bypass
// internally and the failure is only counted.
func (m *Machine) cacheStore(pt *core.PageTranslation) {
	if !m.cacheUsable(pt.Base) {
		return
	}
	key, ok := m.cacheKey(pt.Base)
	if !ok {
		return
	}
	if stored, err := m.Opt.Cache.Save(key, layoutGroups(pt)); err != nil {
		m.Stats.CacheSaveErrors++
	} else if stored {
		m.Stats.CacheStores++
	}
}

// layoutGroups lists the page's groups in layout order, the order a cache
// entry stores them in so installCached lays the page out the same way.
func layoutGroups(pt *core.PageTranslation) []*vliw.Group {
	groups := make([]*vliw.Group, 0, len(pt.Order))
	for _, e := range pt.Order {
		groups = append(groups, pt.Groups[e])
	}
	return groups
}
