package vmm

// Telemetry wiring. The Machine carries at most one telProbe; every
// instrumentation site in the hot path is a single `m.tp != nil` check, so
// an unattached machine pays one predictable branch and zero allocations.
//
// The probe is its own seam, separate from the OnGroupStart/OnBoundary/
// FaultHook/AliasHook hooks that the lockstep validator and the chaos
// injectors install. Like them it runs on the chained fast path, and
// telemetry must observe the machine without changing what it does. Rare
// events (translation, exceptions, SMC, cast-out, quarantine) are recorded
// unconditionally; per-dispatch and per-boundary instrumentation is
// sampled 1-in-N.

import (
	"sort"
	"time"

	"daisy/internal/core"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
)

// telProbe holds pre-resolved metric handles plus sampling countdowns, so
// the instrumented paths never take the registry lock.
type telProbe struct {
	tel         *telemetry.Telemetry
	sampleEvery uint64
	dispatchCD  uint64 // countdown to the next sampled dispatch
	boundaryCD  uint64 // countdown to the next sampled boundary event
	attached    time.Time

	hILP      *telemetry.Histogram
	hVLIWs    *telemetry.Histogram
	hTransNs  *telemetry.Histogram
	hChainRun *telemetry.Histogram
	hDwell    *telemetry.Histogram

	cDispatches *telemetry.Counter
	cTransNs    *telemetry.Counter
	cExecNs     *telemetry.Counter

	gAsyncQueue    *telemetry.Gauge
	gAsyncInflight *telemetry.Gauge

	// Guest attribution profiler (profile.go). prof is nil unless the
	// attached instance enables it; the scratch buffers accumulate one
	// sampled dispatch run's per-PC charges without reallocating.
	prof    *telemetry.Profile
	profRun bool // the dispatch run in progress is being attributed
	profT0  time.Time
	profBuf []telemetry.PCCharge
	profIdx map[uint32]int // PC -> index into profBuf

	// Page-lifecycle span tracing. spansOn caches Options.Spans; spans
	// holds each page's open-stage state, touched only on the (rare,
	// page-granular) lifecycle paths and only by the machine goroutine.
	spansOn       bool
	spans         map[uint32]*pageSpan
	hQueueWait    *telemetry.Histogram
	hTranslate    *telemetry.Histogram
	hPublishDelay *telemetry.Histogram

	// Mirrored Stats counters: prev holds the value already pushed, so a
	// sync adds only the delta (counters are monotonic).
	mirror []statMirror
}

// pageSpan is one page's position in its lifecycle journey. gen is the
// span generation: warmup -> translate -> live share one generation (they
// are one journey), and each fresh journey of the same page bumps it, so
// Chrome trace span IDs ("0x<page>.<gen>") never collide across
// retranslations.
type pageSpan struct {
	gen   uint64
	stage telemetry.SpanStage
	open  bool
}

// spanAnyStage makes spanEnd close whatever stage is open.
const spanAnyStage = telemetry.SpanStage(0xff)

type statMirror struct {
	c    *telemetry.Counter
	read func(*Machine) uint64
	prev uint64
}

// AttachTelemetry connects a telemetry instance to the machine. Call once,
// before Run/Start; attach nil to detach.
func (m *Machine) AttachTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		m.tp = nil
		return
	}
	n := uint64(tel.SampleEvery())
	// Sampling is 1-in-N with the FIRST occurrence observed: both countdowns
	// start at 1, then reload to N after each sample. Starting the boundary
	// countdown at N (as an earlier revision did) meant a run shorter than N
	// VLIW boundaries produced no boundary events at all and every histogram
	// missed its cold-start window — the first sample must not wait a full
	// period from attach.
	p := &telProbe{
		tel:         tel,
		sampleEvery: n,
		dispatchCD:  1,
		boundaryCD:  1,
		attached:    time.Now(),

		hILP:      tel.Histogram(telemetry.HILPPerGroup, telemetry.BoundsILP),
		hVLIWs:    tel.Histogram(telemetry.HVLIWsPerGroup, telemetry.BoundsVLIWs),
		hTransNs:  tel.TimeHistogram(telemetry.HTransNsPerInst, telemetry.BoundsNsPerInst),
		hChainRun: tel.Histogram(telemetry.HChainRunLen, telemetry.BoundsChainRun),
		hDwell:    tel.Histogram(telemetry.HQuarantineDwell, telemetry.BoundsDwell),

		cDispatches: tel.Counter(telemetry.MDispatchesSampled),
		cTransNs:    tel.TimeCounter(telemetry.MTranslateNs),
		cExecNs:     tel.TimeCounter(telemetry.MExecuteNs),

		gAsyncQueue:    tel.Gauge(telemetry.GAsyncQueue),
		gAsyncInflight: tel.Gauge(telemetry.GAsyncInflight),
	}
	if prof := tel.Profile(); prof != nil {
		p.prof = prof
		prof.SetPageSize(m.Trans.Opt.PageSize)
		p.profIdx = make(map[uint32]int)
	}
	if tel.SpansEnabled() {
		p.spansOn = true
		p.spans = make(map[uint32]*pageSpan)
		p.hQueueWait = tel.TimeHistogram(telemetry.HSpanQueueWaitNs, telemetry.BoundsSpanNs)
		p.hTranslate = tel.TimeHistogram(telemetry.HSpanTranslateNs, telemetry.BoundsSpanNs)
		p.hPublishDelay = tel.TimeHistogram(telemetry.HSpanPublishDelayNs, telemetry.BoundsSpanNs)
	}
	mk := func(name string, read func(*Machine) uint64) {
		p.mirror = append(p.mirror, statMirror{c: tel.Counter(name), read: read})
	}
	mk(telemetry.MBaseInsts, func(m *Machine) uint64 { return m.Exec.Stats.BaseInsts })
	mk(telemetry.MInterpInsts, func(m *Machine) uint64 { return m.Stats.InterpInsts })
	mk(telemetry.MVLIWs, func(m *Machine) uint64 { return m.Exec.Stats.VLIWs })
	mk(telemetry.MCycles, func(m *Machine) uint64 { return m.Stats.Cycles })
	mk(telemetry.MPagesBuilt, func(m *Machine) uint64 { return m.Stats.PagesBuilt })
	mk(telemetry.MGroupsBuilt, func(m *Machine) uint64 { return m.Stats.GroupsBuilt })
	mk(telemetry.MEntriesBuilt, func(m *Machine) uint64 { return m.Stats.EntriesBuilt })
	mk(telemetry.MChainPatches, func(m *Machine) uint64 { return m.Stats.ChainPatches })
	mk(telemetry.MChainFollows, func(m *Machine) uint64 { return m.Stats.ChainFollows })
	mk(telemetry.MExceptions, func(m *Machine) uint64 { return m.Stats.Exceptions })
	mk(telemetry.MSMCInvalidations, func(m *Machine) uint64 { return m.Stats.SMCInvalidations })
	mk(telemetry.MCastOuts, func(m *Machine) uint64 { return m.Stats.CastOuts })
	mk(telemetry.MQuarantines, func(m *Machine) uint64 { return m.Stats.Quarantines })
	mk(telemetry.MQuarantineReleases, func(m *Machine) uint64 { return m.Stats.QuarantineReleases })
	mk(telemetry.MTranslatorPanics, func(m *Machine) uint64 { return m.Stats.TranslatorPanics })
	mk(telemetry.MAsyncEnqueues, func(m *Machine) uint64 { return m.Stats.AsyncEnqueues })
	mk(telemetry.MAsyncPublishes, func(m *Machine) uint64 { return m.Stats.AsyncPublishes })
	mk(telemetry.MAsyncQueueFull, func(m *Machine) uint64 { return m.Stats.AsyncQueueFull })
	mk(telemetry.MAsyncStale, func(m *Machine) uint64 { return m.Stats.StaleTranslationsDropped })
	mk(telemetry.MAsyncRetries, func(m *Machine) uint64 { return m.Stats.AsyncRetries })
	mk(telemetry.MAsyncRetriesExhausted, func(m *Machine) uint64 { return m.Stats.AsyncRetriesExhausted })
	mk(telemetry.MAsyncAbandons, func(m *Machine) uint64 { return m.Stats.AsyncAbandons })
	mk(telemetry.MAsyncLateDrops, func(m *Machine) uint64 { return m.Stats.AsyncLateDrops })
	mk(telemetry.MAsyncRespawns, func(m *Machine) uint64 { return m.Stats.AsyncRespawns })
	mk(telemetry.MTier2Promotions, func(m *Machine) uint64 { return m.Stats.Tier2Promotions })
	mk(telemetry.MTier2Publishes, func(m *Machine) uint64 { return m.Stats.Tier2Publishes })
	mk(telemetry.MTier2Dispatches, func(m *Machine) uint64 { return m.Stats.Tier2Dispatches })
	mk(telemetry.MTier2Deopts, func(m *Machine) uint64 { return m.Stats.Tier2Deopts })
	mk(telemetry.MTier2PathDepartures, func(m *Machine) uint64 { return m.Stats.Tier2PathDepartures })
	mk(telemetry.MTier2Demotions, func(m *Machine) uint64 { return m.Stats.Tier2Demotions })
	mk(telemetry.MTier2ProfileInsts, func(m *Machine) uint64 { return m.Stats.Tier2ProfileInsts })
	mk(telemetry.MCacheHits, func(m *Machine) uint64 { return m.Stats.CacheHits })
	mk(telemetry.MCacheHotHits, func(m *Machine) uint64 { return m.Stats.CacheHotHits })
	mk(telemetry.MCacheMisses, func(m *Machine) uint64 { return m.Stats.CacheMisses })
	mk(telemetry.MCacheMissAbsent, func(m *Machine) uint64 { return m.Stats.CacheMissAbsent })
	mk(telemetry.MCacheMissCorrupt, func(m *Machine) uint64 { return m.Stats.CacheMissCorrupt })
	mk(telemetry.MCacheMissSkew, func(m *Machine) uint64 { return m.Stats.CacheMissSkew })
	mk(telemetry.MCacheMissOptions, func(m *Machine) uint64 { return m.Stats.CacheMissOptions })
	mk(telemetry.MCacheStores, func(m *Machine) uint64 { return m.Stats.CacheStores })
	mk(telemetry.MCacheSaveErrors, func(m *Machine) uint64 { return m.Stats.CacheSaveErrors })
	m.tp = p
}

// Telemetry returns the attached instance, or nil.
func (m *Machine) Telemetry() *telemetry.Telemetry {
	if m.tp == nil {
		return nil
	}
	return m.tp.tel
}

// SyncTelemetry pushes the machine's counters into the attached registry
// and updates the translate-vs-execute time split. The cmd tools call it
// after Run (and the periodic snapshotter's readers see whatever the last
// sampled dispatch pushed in between).
func (m *Machine) SyncTelemetry() {
	if m.tp == nil {
		return
	}
	m.tp.closeSpans(m)
	m.tp.syncStats(m)
	elapsed := uint64(time.Since(m.tp.attached).Nanoseconds())
	trans := m.tp.cTransNs.Value()
	exec := uint64(0)
	if elapsed > trans {
		exec = elapsed - trans
	}
	if cur := m.tp.cExecNs.Value(); exec > cur {
		m.tp.cExecNs.Add(exec - cur)
	}
}

// instClock is the machine's deterministic virtual clock: total completed
// base instructions. Trace events are stamped with it so identical runs
// produce identical traces.
func (m *Machine) instClock() uint64 {
	return m.Exec.Stats.BaseInsts + m.Stats.InterpInsts
}

func (p *telProbe) syncStats(m *Machine) {
	for i := range p.mirror {
		s := &p.mirror[i]
		if cur := s.read(m); cur > s.prev {
			s.c.Add(cur - s.prev)
			s.prev = cur
		}
	}
}

// sampleDispatch decides whether this dispatch is the 1-in-N observed one.
func (p *telProbe) sampleDispatch() bool {
	p.dispatchCD--
	if p.dispatchCD > 0 {
		return false
	}
	p.dispatchCD = p.sampleEvery
	return true
}

// dispatchRun records one sampled dispatch run: the group(s) executed
// between entering runGroupLoop and returning to the VMM. delta* are the
// executor-stat deltas across the run.
func (p *telProbe) dispatchRun(m *Machine, startPC uint32, dBase, dVLIWs, dFollows uint64) {
	p.cDispatches.Inc()
	base := startPC &^ (m.Trans.Opt.PageSize - 1)
	p.tel.NotePage(base)
	p.tel.NoteGroup(startPC)
	if dVLIWs > 0 {
		p.hILP.Observe(float64(dBase) / float64(dVLIWs))
		p.hVLIWs.Observe(float64(dVLIWs))
	}
	p.hChainRun.Observe(float64(1 + dFollows))
	p.tel.Event(telemetry.EvDispatch, m.instClock(), startPC, base, p.sampleEvery)
	if dFollows > 0 {
		p.tel.Event(telemetry.EvChainFollow, m.instClock(), startPC, base, dFollows)
	}
	p.syncStats(m)
}

// boundary records a sampled precise-boundary event from the per-VLIW loop.
// The countdown keeps the unsampled cost to one decrement.
func (p *telProbe) boundary(m *Machine, pc uint32, groupInsts uint64) {
	p.boundaryCD--
	if p.boundaryCD > 0 {
		return
	}
	p.boundaryCD = p.sampleEvery
	p.tel.Event(telemetry.EvBoundary, m.instClock(), pc, pc&^(m.Trans.Opt.PageSize-1), groupInsts)
}

// translated records one translation burst (a page build or an entry
// extension): dNanos host-nanoseconds spent translating dInsts base
// instructions into groups.
func (p *telProbe) translated(m *Machine, addr uint32, before core.Stats) {
	d := m.Trans.Stats.Sub(before)
	p.cTransNs.Add(uint64(d.Nanos))
	if d.BaseInsts > 0 {
		p.hTransNs.Observe(float64(d.Nanos) / float64(d.BaseInsts))
	}
	p.tel.Event(telemetry.EvTranslate, m.instClock(), addr, addr&^(m.Trans.Opt.PageSize-1), d.BaseInsts)
	p.syncStats(m)
}

// chainPatched records one exit-edge patch (each edge is patched at most
// once, so this path is rare and recorded unconditionally).
func (p *telProbe) chainPatched(m *Machine, target uint32) {
	p.tel.Event(telemetry.EvChainPatch, m.instClock(), target, target&^(m.Trans.Opt.PageSize-1), 0)
}

// exception records one recovered fault. arg: 0 exception, 1 alias, 2 SMC.
func (p *telProbe) exception(m *Machine, f *vliw.Fault, arg uint64) {
	p.tel.Event(telemetry.EvException, m.instClock(), f.Resume, f.Resume&^(m.Trans.Opt.PageSize-1), arg)
}

func (p *telProbe) smcInvalidate(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvSMCInvalidate, m.instClock(), base, base, 0)
}

func (p *telProbe) castOut(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvCastOut, m.instClock(), base, base, 0)
}

func (p *telProbe) quarantined(m *Machine, base uint32, backoff uint64) {
	p.tel.Event(telemetry.EvQuarantine, m.instClock(), base, base, backoff)
	// The engaging invalidate already closed the live span; quarantine is a
	// fresh journey on the page's track.
	p.spanBegin(m, base, telemetry.StageQuarantine, true)
}

func (p *telProbe) quarantineReleased(m *Machine, base uint32, dwell uint64) {
	p.hDwell.Observe(float64(dwell))
	p.tel.Event(telemetry.EvQuarantineOff, m.instClock(), base, base, dwell)
	p.spanEnd(m, base, telemetry.StageQuarantine, telemetry.OutcomeReleased)
}

// Async-pipeline events are rare (page-granular, not instruction-granular)
// and recorded unconditionally, like the robustness events above.

func (p *telProbe) asyncEnqueue(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvAsyncEnqueue, m.instClock(), base, base, 0)
	p.spanEnd(m, base, telemetry.StageWarmup, telemetry.OutcomeNone)
	p.spanBegin(m, base, telemetry.StageTranslate, false)
}

func (p *telProbe) asyncPublish(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvAsyncPublish, m.instClock(), base, base, 0)
	p.spanEnd(m, base, telemetry.StageTranslate, telemetry.OutcomePublished)
	p.spanBegin(m, base, telemetry.StageLive, false)
}

func (p *telProbe) asyncStale(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvAsyncStale, m.instClock(), base, base, 0)
	// No-op when the invalidation that staled the result already closed the
	// translate span.
	p.spanEnd(m, base, telemetry.StageTranslate, telemetry.OutcomeStale)
}

// Tier-2 events (tier2.go). Page-granular policy transitions — promotion,
// publish, deopt, demotion — so recorded unconditionally.

func (p *telProbe) tier2Promoted(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvTier2Promote, m.instClock(), base, base, 0)
}

func (p *telProbe) tier2Published(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvTier2Publish, m.instClock(), base, base, 0)
}

func (p *telProbe) tier2Deopt(m *Machine, pc uint32) {
	p.tel.Event(telemetry.EvTier2Deopt, m.instClock(), pc, pc&^(m.Trans.Opt.PageSize-1), 0)
}

func (p *telProbe) tier2Demoted(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvTier2Demote, m.instClock(), base, base, 0)
}

// Crash-safety events (guard.go, async.go watchdog). All page-granular
// and failure-path only, so recorded unconditionally.

func (p *telProbe) translatorPanic(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvTranslatorPanic, m.instClock(), base, base, 0)
}

func (p *telProbe) asyncAbandon(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvAsyncAbandon, m.instClock(), base, base, 0)
	// An abandoned job's translate span ends here; the retry (if any)
	// opens a fresh one at its re-enqueue.
	p.spanEnd(m, base, telemetry.StageTranslate, telemetry.OutcomeNone)
}

func (p *telProbe) asyncRetry(m *Machine, base uint32, attempt int) {
	p.tel.Event(telemetry.EvAsyncRetry, m.instClock(), base, base, uint64(attempt))
	// A failed worker result also leaves a dangling translate span.
	p.spanEnd(m, base, telemetry.StageTranslate, telemetry.OutcomeNone)
}

func (p *telProbe) cacheHit(m *Machine, base uint32) {
	p.tel.Event(telemetry.EvCacheHit, m.instClock(), base, base, 0)
	if !p.spansOn {
		return
	}
	// On the async path a warmup span is open and the hit cuts it short; a
	// synchronous machine's hit starts the page's journey directly at live.
	s := p.spans[base]
	cont := s != nil && s.open && s.stage == telemetry.StageWarmup
	if cont {
		p.spanEnd(m, base, telemetry.StageWarmup, telemetry.OutcomeCached)
	}
	p.spanBegin(m, base, telemetry.StageLive, !cont)
}

// asyncLatency feeds the per-stage pipeline histograms from one published
// result's host-clock stamps (time-based metrics, zeroed by Canonical).
func (p *telProbe) asyncLatency(r txResult) {
	if !p.spansOn {
		return
	}
	if r.startedNs >= r.job.enqueuedNs {
		p.hQueueWait.Observe(float64(r.startedNs - r.job.enqueuedNs))
	}
	if r.doneNs >= r.startedNs {
		p.hTranslate.Observe(float64(r.doneNs - r.startedNs))
	}
	if now := time.Now().UnixNano(); now >= r.doneNs {
		p.hPublishDelay.Observe(float64(now - r.doneNs))
	}
}

// queueDepth publishes the pipeline's current backlog after each drain:
// queued is the job channel's depth, inflight the pages a worker owns.
func (p *telProbe) queueDepth(queued, inflight int) {
	p.gAsyncQueue.Set(float64(queued))
	if inflight < queued {
		inflight = queued
	}
	p.gAsyncInflight.Set(float64(inflight - queued))
}

// ---- Page-lifecycle spans ----
//
// The span methods run only on the machine goroutine and only on the rare
// page-lifecycle paths; every one starts with the spansOn check, so a
// machine without -spans pays a single predictable branch.

// spanFirstTouch opens a warmup span when the tiering policy first counts
// a dispatch into a cold page (groupAsync, hot count 0 -> 1).
func (p *telProbe) spanFirstTouch(m *Machine, base uint32) {
	p.spanBegin(m, base, telemetry.StageWarmup, true)
}

// spanLiveSync opens a live span for a synchronously built page (pageFor);
// sync machines have no warmup or translate stages.
func (p *telProbe) spanLiveSync(m *Machine, base uint32) {
	p.spanBegin(m, base, telemetry.StageLive, true)
}

// spanInvalidate closes whatever stage is open when a page's translation
// dies: a live span (SMC, cast-out, quarantine engage, adaptive
// retranslation) or an in-flight translate span (the later stale drop then
// finds the span already closed).
func (p *telProbe) spanInvalidate(m *Machine, base uint32) {
	p.spanEnd(m, base, spanAnyStage, telemetry.OutcomeInvalidated)
}

// spanBegin opens a stage span on the page's track. newJourney bumps the
// page's span generation; stage transitions inside one journey
// (warmup -> translate -> live) keep it, so the three stages share a
// Chrome trace span ID and read as one flow.
func (p *telProbe) spanBegin(m *Machine, base uint32, stage telemetry.SpanStage, newJourney bool) {
	if !p.spansOn {
		return
	}
	s := p.spans[base]
	if s == nil {
		s = &pageSpan{}
		p.spans[base] = s
	}
	if s.open {
		// Defensive: never stack an unmatched begin on an open span.
		p.tel.Event(telemetry.EvSpanEnd, m.instClock(), base, base,
			telemetry.SpanArg(s.gen, s.stage, telemetry.OutcomeNone))
		s.open = false
	}
	if newJourney || s.gen == 0 {
		s.gen++
	}
	s.stage = stage
	s.open = true
	p.tel.Event(telemetry.EvSpanBegin, m.instClock(), base, base,
		telemetry.SpanArg(s.gen, stage, telemetry.OutcomeNone))
}

// spanEnd closes the page's open span when it is in wantStage (or
// unconditionally for spanAnyStage). Closing a closed span is a no-op, so
// the invalidate/stale and invalidate/invalidate orderings stay balanced.
func (p *telProbe) spanEnd(m *Machine, base uint32, wantStage telemetry.SpanStage, outcome telemetry.SpanOutcome) {
	if !p.spansOn {
		return
	}
	s := p.spans[base]
	if s == nil || !s.open {
		return
	}
	if wantStage != spanAnyStage && s.stage != wantStage {
		return
	}
	s.open = false
	p.tel.Event(telemetry.EvSpanEnd, m.instClock(), base, base,
		telemetry.SpanArg(s.gen, s.stage, outcome))
}

// closeSpans ends every still-open span with OutcomeOpen (in page order,
// for deterministic traces) so an exported trace never has an unmatched
// begin. SyncTelemetry calls it once the run is over.
func (p *telProbe) closeSpans(m *Machine) {
	if !p.spansOn {
		return
	}
	bases := make([]uint32, 0, len(p.spans))
	for b, s := range p.spans {
		if s.open {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		p.spanEnd(m, b, spanAnyStage, telemetry.OutcomeOpen)
	}
}
