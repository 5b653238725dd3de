package vmm

// The asynchronous tiered translation pipeline. DAISY's dominant cost is
// translation itself — §4.4 measures ~4315 host instructions per base
// instruction, paid synchronously on first touch of every page. This file
// takes translation off the critical path:
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
//   - Staleness: each page carries an epoch, bumped by every invalidation
//     (SMC drain, cast-out, quarantine, adaptive retranslation). A result
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
//     jittered span of the instruction clock. When AsyncMaxRetries is
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
	"daisy/internal/mem"
	"daisy/internal/tradcomp/sched"
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

	// tier2 marks an optimizing retranslation of an already-live page: the
	// worker derives the tier-2 recipe from profile (the promotion-time
	// branch counts, measured on the machine goroutine) and the result is
	// published through publishTier2 rather than publish. noSpec carries
	// the page's adaptive-speculation inhibit into the recipe.
	tier2   bool
	profile map[uint32][2]uint64
	noSpec  bool

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
	tier2      bool  // failure feeds tier-2 backoff, never the quarantine
}

// retryState tracks the failure history of one page's async translation.
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

	// retry tracks per-page failure counts and backoff horizons.
	retry map[uint32]retryState

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
		retry:     make(map[uint32]retryState),
		workers:   workers,
	}
	for i := 0; i < workers; i++ {
		p.spawnWorker()
	}
	m.pipe = p
	m.epoch = make(map[uint32]uint64)
	m.hot = make(map[uint32]int)
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
			started := time.Now().UnixNano()
			r := workerTranslate(job, p.opt)
			r.startedNs = started
			r.doneNs = time.Now().UnixNano()
			p.done <- r
		}
	}()
}

// workerTranslate runs one translation behind the recover barrier: a
// panicking translator (real or chaos-planted) becomes an error result,
// never a dead worker. Runs on a worker goroutine.
func workerTranslate(job txJob, opt core.Options) (r txResult) {
	r.job = job
	defer guardTranslate(&r.err)
	if job.plan != nil {
		if job.plan.Err != nil {
			r.err = job.plan.Err
			return r
		}
		if job.plan.Panic {
			panic("chaos: planted translator panic")
		}
	}
	return translateSnapshot(job, opt)
}

// translateSnapshot runs on a worker goroutine: it rebuilds the page's
// bytes in a private memory image and translates with a private
// Translator, so nothing it reads or writes is shared with the machine.
func translateSnapshot(job txJob, opt core.Options) txResult {
	mm := mem.New(job.base + uint32(len(job.snap)))
	if err := mm.LoadImage(job.base, job.snap); err != nil {
		return txResult{job: job, err: err}
	}
	if job.tier2 {
		// An optimizing retranslation: the recipe and the promotion-time
		// profile ride in the job, so the worker needs no machine state.
		opt = sched.Tier2().Derive(opt, profileProb(job.profile))
		if job.noSpec {
			opt.SpeculateLoads = false
		}
	}
	t := core.New(mm, opt)
	pt, err := t.TranslatePage(job.entry)
	return txResult{job: job, pt: pt, stats: t.Stats, err: err}
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

// asyncMaxRetries returns the per-page retry budget for failed jobs.
func (m *Machine) asyncMaxRetries() int {
	if m.Opt.AsyncMaxRetries > 0 {
		return m.Opt.AsyncMaxRetries
	}
	return 3
}

// bumpEpoch invalidates any in-flight translation of the page at base.
func (m *Machine) bumpEpoch(base uint32) {
	if m.pipe == nil {
		return
	}
	m.epoch[base]++
	delete(m.hot, base)
	// The page's bytes (or life) changed; prior translation failures no
	// longer predict anything. Forgetting the retry history here is also
	// what lets a quarantine release re-admit the page through the normal
	// hot-threshold path.
	delete(m.pipe.retry, base)
}

// groupAsync is the non-blocking dispatch lookup: it returns the group at
// addr when one is available (published, cached, or an incremental entry
// extension of an already-published page), or nil when the page should
// keep running interpretively — still cold, queued, in flight, backing
// off after a failure, or pushed back by a full queue.
func (m *Machine) groupAsync(addr uint32) (*vliw.Group, error) {
	base := addr &^ (m.Trans.Opt.PageSize - 1)
	if _, ok := m.pages[base]; ok {
		// Page is live. A missing entry point is built synchronously:
		// entry extension is incremental (the page's groups already
		// exist), far cheaper than a page build, and keeping it inline
		// preserves the §3.4 invalid-entry semantics exactly.
		return m.groupAt(addr)
	}
	if _, ok := m.pipe.inflight[base]; ok {
		return nil, nil
	}
	if rs, ok := m.pipe.retry[base]; ok && m.Stats.BaseInsts() < rs.notBefore {
		// Failed recently: honor the backoff before translating again.
		return nil, nil
	}
	// Cold page: a persistent-cache hit skips both the hotness dues and
	// the queue — installing a finished translation is cheap.
	if m.cacheUsable(base) && m.installCached(addr) {
		return m.groupAt(addr)
	}
	m.hot[base]++
	if m.tp != nil && m.hot[base] == 1 {
		m.tp.spanFirstTouch(m, base)
	}
	if m.hot[base] < m.hotThreshold() {
		return nil, nil
	}
	m.enqueue(base, addr)
	return nil, nil
}

// enqueue offers the tier-1 translation of a hot, untranslated page to
// the worker pool. Fault plans are drawn here, on the machine goroutine,
// so a seeded injector's random draws happen in deterministic order
// regardless of worker scheduling.
func (m *Machine) enqueue(base, entry uint32) {
	if !m.submit(base, entry, func(job *txJob) { job.plan = m.plantedFault(base) }) {
		return
	}
	m.Stats.AsyncEnqueues++
	if m.tp != nil {
		m.tp.asyncEnqueue(m, base)
	}
}

// enqueueTier2 offers an optimizing retranslation of a live page to the
// worker pool: the machine goroutine draws the chaos plan and measures the
// promotion-time branch profile (both deterministic), and the snapshot
// pins the bytes the tier-2 schedule is valid for. On a full queue the
// page keeps running its tier-1 translation and a later dispatch retries
// (the promotion gates are already met).
func (m *Machine) enqueueTier2(base, entry uint32, st *t2State) {
	if _, ok := m.pipe.inflight[base]; ok {
		// One attempt at a time: the promotion gates stay met, so every
		// dispatch while a job is in flight would otherwise re-enqueue it.
		return
	}
	m.submit(base, entry, func(job *txJob) {
		job.plan = m.plantedFault(base)
		job.profile = m.tier2Profile(entry)
		if job.plan != nil {
			m.applyTier2Plan(job.plan, job.profile, st)
		}
		job.tier2 = true
		job.noSpec = m.inhibit[base]
	})
}

// submit is the one way a job reaches the worker pool. A full queue is
// backpressure, not an error: it counts AsyncQueueFull and the page
// retries at a later dispatch. It is checked first, so a full queue costs
// no snapshot, hash, chaos-plan draw or profile that would only be thrown
// away. Otherwise fill adds the job's plan (and tier-2 profile), the page
// is snapshotted and the job sent. Reports whether the job was sent.
func (m *Machine) submit(base, entry uint32, fill func(*txJob)) bool {
	if len(m.pipe.jobs) == cap(m.pipe.jobs) {
		m.Stats.AsyncQueueFull++
		return false
	}
	src := m.Mem.Bytes(base, m.Trans.Opt.PageSize)
	if src == nil {
		// Page extends past physical memory; nothing translatable.
		return false
	}
	job := txJob{base: base, entry: entry}
	fill(&job)
	m.pipe.nextSeq++
	job.epoch = m.epoch[base]
	job.seq = m.pipe.nextSeq
	job.digest = sha256.Sum256(src)
	job.snap = append([]byte(nil), src...)
	job.enqueuedNs = time.Now().UnixNano()
	// Cannot block: the queue had room, and the machine goroutine is its
	// only sender.
	m.pipe.jobs <- job
	m.pipe.inflight[base] = inflightJob{
		seq:        job.seq,
		deadlineNs: job.enqueuedNs + int64(m.asyncDeadline()),
		tier2:      job.tier2,
	}
	return true
}

// publishTier2 installs one finished optimizing retranslation, unless the
// page changed underneath it (epoch bump or byte digest mismatch) — then
// the result is dropped and the restarted stability clock decides whether
// promotion is attempted again. A failed result backs the page's promotion
// off; it can never quarantine the page, whose tier-1 translation is fine.
func (m *Machine) publishTier2(r txResult) {
	base := r.job.base
	cur := m.Mem.Bytes(base, m.Trans.Opt.PageSize)
	if m.epoch[base] != r.job.epoch || cur == nil || sha256.Sum256(cur) != r.job.digest {
		m.Stats.StaleTranslationsDropped++
		return
	}
	if r.err != nil {
		var pf *panicFault
		if errors.As(r.err, &pf) {
			m.Stats.TranslatorPanics++
			if m.tp != nil {
				m.tp.translatorPanic(m, base)
			}
		}
		m.tier2Backoff(base)
		return
	}
	m.Trans.Stats = m.Trans.Stats.Add(r.stats)
	m.installTier2(base, r.pt)
	if m.tier2[base] == r.pt {
		m.Stats.Tier2Publishes++
		if m.tp != nil {
			m.tp.tier2Published(m, base)
		}
	}
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
			if r.job.tier2 {
				m.publishTier2(r)
			} else {
				m.publish(r)
			}
		default:
			m.watchdog()
			if m.tp != nil {
				m.tp.queueDepth(len(m.pipe.jobs), len(m.pipe.inflight))
			}
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
		if m.tp != nil {
			m.tp.asyncAbandon(m, base)
		}
		if m.pipe.respawns < m.pipe.workers*respawnCap {
			m.pipe.respawns++
			m.pipe.spawnWorker()
			m.Stats.AsyncRespawns++
		}
		if inf.tier2 {
			// A hung optimizing retranslation costs only the optimization:
			// back the promotion off. The page's tier-1 translation is live
			// and must not be quarantined by a tier-2 failure.
			m.tier2Backoff(base)
		} else {
			m.noteAsyncFailure(base, nil)
		}
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
	base := r.job.base
	cur := m.Mem.Bytes(base, m.Trans.Opt.PageSize)
	if m.epoch[base] != r.job.epoch || cur == nil || sha256.Sum256(cur) != r.job.digest {
		m.Stats.StaleTranslationsDropped++
		if m.tp != nil {
			m.tp.asyncStale(m, base)
		}
		return
	}
	if r.err != nil {
		m.noteAsyncFailure(base, r.err)
		return
	}
	before := m.Trans.Stats
	m.Trans.Stats = m.Trans.Stats.Add(r.stats)
	m.Stats.PagesBuilt++
	m.Stats.GroupsBuilt += r.stats.Groups
	m.Stats.AsyncPublishes++
	delete(m.hot, base)
	delete(m.pipe.retry, base)
	if m.tp != nil {
		m.tp.translated(m, r.job.entry, before)
		m.tp.asyncLatency(r)
		m.tp.asyncPublish(m, base)
	}
	if m.OnTranslate != nil {
		m.OnTranslate(r.pt)
	}
	m.pages[base] = r.pt
	m.touch(base)
	m.Mem.SetReadOnly(base, true)
	m.castOut()
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
	var pf *panicFault
	if errors.As(err, &pf) {
		m.Stats.TranslatorPanics++
		if m.tp != nil {
			m.tp.translatorPanic(m, base)
		}
		delete(m.pipe.retry, base)
		m.forceQuarantine(base)
		return
	}
	rs := m.pipe.retry[base]
	if rs.attempts >= m.asyncMaxRetries() {
		m.Stats.AsyncRetriesExhausted++
		delete(m.pipe.retry, base)
		m.forceQuarantine(base)
		return
	}
	rs.attempts++
	rs.notBefore = m.Stats.BaseInsts() + retryBackoff(base, rs.attempts)
	m.pipe.retry[base] = rs
	m.Stats.AsyncRetries++
	if m.tp != nil {
		m.tp.asyncRetry(m, base, rs.attempts)
	}
}

// asyncRetryBackoffBase is the first retry span in completed base
// instructions; each further attempt doubles it.
const asyncRetryBackoffBase = 10_000

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
	out := make([]uint32, 0, len(m.pipe.inflight))
	for b := range m.pipe.inflight {
		out = append(out, b)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ---- Persistent cross-run translation cache ----

// cacheUsable reports whether the persistent cache may serve the page at
// base. Translation must be a pure function of (page bytes, page base,
// options) for content addressing to be sound, so any machinery that
// feeds extra state into the schedule — trace guides, profile feedback,
// whole-program translation, a per-page speculation inhibit — bypasses
// the cache.
func (m *Machine) cacheUsable(base uint32) bool {
	return m.Opt.Cache != nil && !m.Opt.Interpretive &&
		m.Opt.Trans.TraceGuide == nil && m.Opt.Trans.ProfileProb == nil &&
		!m.Opt.Trans.CrossPage && !m.inhibit[base]
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
func (m *Machine) installCached(addr uint32) bool {
	base := addr &^ (m.Trans.Opt.PageSize - 1)
	key, ok := m.cacheKey(base)
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
	pt := core.EmptyPage(base, m.Trans.Opt.PageSize)
	for _, g := range groups {
		m.Trans.Adopt(pt, g)
	}
	m.Stats.CacheHits++
	m.Stats.PagesBuilt++ // a "translation missing" exception was serviced
	if m.tp != nil {
		m.tp.cacheHit(m, base)
	}
	if m.OnTranslate != nil {
		m.OnTranslate(pt)
	}
	m.pages[base] = pt
	m.touch(base)
	m.Mem.SetReadOnly(base, true)
	m.castOut()
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
	groups := make([]*vliw.Group, 0, len(pt.Order))
	for _, e := range pt.Order {
		groups = append(groups, pt.Groups[e])
	}
	if stored, err := m.Opt.Cache.Save(key, groups); err != nil {
		m.Stats.CacheSaveErrors++
	} else if stored {
		m.Stats.CacheStores++
	}
}
