package vmm

// Telemetry wiring. Attached telemetry is one Observer (observer.go) in the
// machine's observer slot, so a detached machine pays one length check per
// observation point and zero allocations, and telemetry sees exactly the
// precise points every other observer sees. It observes the machine without
// changing what it does.
//
// Hot-path instrumentation is sampled 1-in-N: group runs — a group's entry,
// by dispatch, chain follow or intra-page jump, to its exit — and precise
// VLIW boundaries. A run ends when the machine next enters a group or
// starts a dispatch, or at SyncTelemetry. Rare events (translation,
// exceptions, SMC, cast-out, quarantine, the async pipeline) are recorded
// unconditionally, and each page-lifecycle span transition is keyed on the
// event that marks it.
//
// Counters are declared once, as `metric:"name"` tags on Stats fields:
// AttachTelemetry resolves each tag to a pointer into the machine, and a
// sync pushes the deltas through those pointers.

import (
	"reflect"
	"slices"
	"time"

	"daisy/internal/core"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
)

// telObserver is the telemetry Observer: pre-resolved metric handles plus
// sampling countdowns, so the instrumented paths never take the registry
// lock.
type telObserver struct {
	NopObserver // Fault: the exception event is all telemetry records
	m           *Machine
	tel         *telemetry.Telemetry
	sampleEvery uint64
	runCD       uint64 // countdown to the next sampled group run
	boundaryCD  uint64 // countdown to the next sampled boundary event
	attached    time.Time

	// The group in progress: its entry, the executor's instruction count at
	// entry and its chain depth (groups entered since the last dispatch).
	// run marks it as a sampled group run, which also keeps the group, the
	// VLIW count at entry and, for the profiler, the host clock.
	entry      uint32
	entryInsts uint64
	depth      uint64
	run        bool
	runGroup   *vliw.Group
	runVLIWs   uint64
	runT0      time.Time

	hILP      *telemetry.Histogram
	hVLIWs    *telemetry.Histogram
	hTransNs  *telemetry.Histogram
	hDepth    *telemetry.Histogram
	hDwell    *telemetry.Histogram
	hQueue    *telemetry.Histogram
	hWorker   *telemetry.Histogram
	hPublish  *telemetry.Histogram
	cRuns     *telemetry.Counter
	cTransNs  *telemetry.Counter
	cExecNs   *telemetry.Counter
	gQueue    *telemetry.Gauge
	gInflight *telemetry.Gauge

	// Guest attribution profiler (profile.go). prof is nil unless the
	// attached instance enables it; the scratch buffers accumulate one
	// sampled group run's per-PC charges without reallocating.
	prof    *telemetry.Profile
	profBuf []telemetry.PCCharge
	profIdx map[uint32]int // PC -> index into profBuf

	// spans holds each page's open lifecycle stage.
	spans map[uint32]*pageSpan

	// Mirrored machine counters: the executor's two plus every tagged
	// Stats field, resolved once at attach.
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

// statMirror pushes one machine counter into its registry counter. prev
// holds the value already pushed, so a sync adds only the delta (counters
// are monotonic).
type statMirror struct {
	c    *telemetry.Counter
	v    *uint64
	prev uint64
}

// AttachTelemetry connects a telemetry instance to the machine, replacing
// any attached before. Call once, before Run/Start; attach nil to detach.
func (m *Machine) AttachTelemetry(tel *telemetry.Telemetry) {
	if old := m.telObs(); old != nil {
		m.obs = slices.DeleteFunc(m.obs, func(o Observer) bool { return o == Observer(old) })
	}
	if tel == nil {
		return
	}
	// Sampling is 1-in-N with the FIRST occurrence observed: both countdowns
	// start at 1, then reload to N after each sample, so a run shorter than
	// N still yields a sample and no histogram misses its cold start.
	o := &telObserver{
		m:           m,
		tel:         tel,
		sampleEvery: uint64(tel.SampleEvery()),
		runCD:       1,
		boundaryCD:  1,
		attached:    time.Now(),

		hILP:      tel.Histogram(telemetry.HILPPerGroup, telemetry.BoundsILP),
		hVLIWs:    tel.Histogram(telemetry.HVLIWsPerGroup, telemetry.BoundsVLIWs),
		hTransNs:  tel.TimeHistogram(telemetry.HTransNsPerInst, telemetry.BoundsNsPerInst),
		hDepth:    tel.Histogram(telemetry.HChainDepth, telemetry.BoundsChainDepth),
		hDwell:    tel.Histogram(telemetry.HQuarantineDwell, telemetry.BoundsDwell),
		hQueue:    tel.TimeHistogram(telemetry.HSpanQueueWaitNs, telemetry.BoundsSpanNs),
		hWorker:   tel.TimeHistogram(telemetry.HSpanTranslateNs, telemetry.BoundsSpanNs),
		hPublish:  tel.TimeHistogram(telemetry.HSpanPublishDelayNs, telemetry.BoundsSpanNs),
		cRuns:     tel.Counter(telemetry.MGroupRunsSampled),
		cTransNs:  tel.TimeCounter(telemetry.MTranslateNs),
		cExecNs:   tel.TimeCounter(telemetry.MExecuteNs),
		gQueue:    tel.Gauge(telemetry.GAsyncQueue),
		gInflight: tel.Gauge(telemetry.GAsyncInflight),

		spans: make(map[uint32]*pageSpan),
	}
	if prof := tel.Profile(); prof != nil {
		o.prof = prof
		prof.SetPageSize(m.Trans.Opt.PageSize)
		o.profIdx = make(map[uint32]int)
	}
	// The executor counters are read live (Machine.Stats.Exec is a copy
	// refreshed when StepGroup returns); every other counter is a tagged
	// field.
	o.mirror = []statMirror{
		{c: tel.Counter("daisy_base_insts"), v: &m.Exec.Stats.BaseInsts},
		{c: tel.Counter("daisy_vliws"), v: &m.Exec.Stats.VLIWs},
	}
	st := reflect.ValueOf(&m.Stats).Elem()
	for i := 0; i < st.NumField(); i++ {
		if name := st.Type().Field(i).Tag.Get("metric"); name != "" {
			v := st.Field(i).Addr().Interface().(*uint64)
			o.mirror = append(o.mirror, statMirror{c: tel.Counter(name), v: v})
		}
	}
	m.Observe(o)
}

// telObs returns the attached telemetry observer, or nil.
func (m *Machine) telObs() *telObserver {
	for _, o := range m.obs {
		if t, ok := o.(*telObserver); ok {
			return t
		}
	}
	return nil
}

// Telemetry returns the attached instance, or nil.
func (m *Machine) Telemetry() *telemetry.Telemetry {
	if o := m.telObs(); o != nil {
		return o.tel
	}
	return nil
}

// SyncTelemetry ends the group run in progress, closes open spans, pushes
// the machine's counters into the attached registry and updates the
// translate-vs-execute time split. The cmd tools call it after Run (and the
// periodic snapshotter's readers see whatever the last sampled group run
// pushed in between).
func (m *Machine) SyncTelemetry() {
	o := m.telObs()
	if o == nil {
		return
	}
	o.endRun()
	o.closeSpans()
	o.syncStats()
	elapsed := uint64(time.Since(o.attached).Nanoseconds())
	trans := o.cTransNs.Value()
	exec := uint64(0)
	if elapsed > trans {
		exec = elapsed - trans
	}
	if cur := o.cExecNs.Value(); exec > cur {
		o.cExecNs.Add(exec - cur)
	}
}

// instClock is the machine's deterministic virtual clock: total completed
// base instructions, read live from the executor. The budget check, the
// per-page policies (quarantine, async retry, tier-2 backoff) and the trace
// all read it, so identical runs make identical decisions and traces.
func (m *Machine) instClock() uint64 {
	return m.Exec.Stats.BaseInsts + m.Stats.InterpInsts
}

func (o *telObserver) syncStats() {
	for i := range o.mirror {
		s := &o.mirror[i]
		if cur := *s.v; cur > s.prev {
			s.c.Add(cur - s.prev)
			s.prev = cur
		}
	}
}

// trace appends one event at pc, on pc's page, stamped with the virtual
// instruction clock.
func (o *telObserver) trace(kind telemetry.EventKind, pc uint32, arg uint64) {
	o.tel.Event(kind, o.m.instClock(), pc, pc&^(o.m.Trans.Opt.PageSize-1), arg)
}

// DispatchStart ends the group run the machine has left and publishes the
// async pipeline's backlog: queued is the job channel's depth, inflight the
// pages a worker owns.
func (o *telObserver) DispatchStart(uint32) {
	o.endRun()
	o.depth = 0
	if p := o.m.pipe; p != nil {
		queued, inflight := len(p.jobs), len(p.inflight)
		o.gQueue.Set(float64(queued))
		o.gInflight.Set(float64(max(inflight, queued) - queued))
	}
}

// GroupEnter ends the run of the group being left and starts g's, sampled
// 1-in-N. The countdown keeps an unsampled entry to a few stores.
func (o *telObserver) GroupEnter(g *vliw.Group) {
	o.endRun()
	o.depth++
	o.entry, o.entryInsts = g.Entry, o.m.Exec.Stats.BaseInsts
	o.runCD--
	if o.runCD > 0 {
		return
	}
	o.runCD = o.sampleEvery
	o.run, o.runGroup, o.runVLIWs = true, g, o.m.Exec.Stats.VLIWs
	if o.prof != nil {
		o.runT0 = time.Now()
	}
}

// endRun records the sampled group run in progress, if any: its histograms,
// hot-page and hot-group counts, a trace event and, with the profiler on,
// its attribution.
func (o *telObserver) endRun() {
	if !o.run {
		return
	}
	o.run = false
	m := o.m
	dBase, dVLIWs := m.Exec.Stats.BaseInsts-o.entryInsts, m.Exec.Stats.VLIWs-o.runVLIWs
	o.cRuns.Inc()
	o.tel.NotePage(o.entry &^ (m.Trans.Opt.PageSize - 1))
	o.tel.NoteGroup(o.entry)
	if dVLIWs > 0 {
		o.hILP.Observe(float64(dBase) / float64(dVLIWs))
		o.hVLIWs.Observe(float64(dVLIWs))
	}
	o.hDepth.Observe(float64(o.depth))
	o.trace(telemetry.EvGroupRun, o.entry, o.depth)
	o.syncStats()
	if o.prof != nil {
		o.profileRun(o.runGroup)
	}
}

// Boundary records a sampled precise-boundary event.
func (o *telObserver) Boundary(uint64) {
	o.boundaryCD--
	if o.boundaryCD > 0 {
		return
	}
	o.boundaryCD = o.sampleEvery
	o.trace(telemetry.EvBoundary, o.entry, o.m.Exec.Stats.BaseInsts-o.entryInsts)
}

// Translated accounts one translation's host cost: work.Nanos spent
// translating work.BaseInsts base instructions, plus an async result's
// trip through the worker pool.
func (o *telObserver) Translated(_ *core.PageTranslation, work core.Stats, lat AsyncLatency) {
	o.cTransNs.Add(work.Nanos)
	if work.BaseInsts > 0 {
		o.hTransNs.Observe(float64(work.Nanos) / float64(work.BaseInsts))
	}
	if lat == (AsyncLatency{}) {
		return
	}
	for _, s := range [...]struct {
		h *telemetry.Histogram
		d time.Duration
	}{{o.hQueue, lat.QueueWait}, {o.hWorker, lat.Translate}, {o.hPublish, lat.PublishDelay}} {
		if s.d >= 0 {
			s.h.Observe(float64(s.d))
		}
	}
}

// Event traces one rare event and moves the page-lifecycle span the event
// marks.
func (o *telObserver) Event(kind telemetry.EventKind, pc uint32, arg uint64) {
	o.trace(kind, pc, arg)
	base := pc &^ (o.m.Trans.Opt.PageSize - 1)
	switch kind {
	case telemetry.EvTranslate:
		// A synchronous build opens the page's journey at live; entry
		// extensions and async publishes find a span already open.
		if s := o.spans[base]; s == nil || !s.open {
			o.spanBegin(base, telemetry.StageLive, true)
		}
		o.syncStats()
	case telemetry.EvAsyncWarmup:
		o.spanBegin(base, telemetry.StageWarmup, true)
	case telemetry.EvAsyncEnqueue:
		o.spanEnd(base, telemetry.StageWarmup, telemetry.OutcomeNone)
		o.spanBegin(base, telemetry.StageTranslate, false)
	case telemetry.EvAsyncPublish:
		o.spanEnd(base, telemetry.StageTranslate, telemetry.OutcomePublished)
		o.spanBegin(base, telemetry.StageLive, false)
	case telemetry.EvAsyncStale:
		// No-op when the invalidation that staled the result already
		// closed the translate span.
		o.spanEnd(base, telemetry.StageTranslate, telemetry.OutcomeStale)
	case telemetry.EvAsyncAbandon, telemetry.EvAsyncRetry:
		// The retry (if any) opens a fresh translate span at its re-enqueue.
		o.spanEnd(base, telemetry.StageTranslate, telemetry.OutcomeNone)
	case telemetry.EvCacheHit:
		// On the async path a warmup span is open and the hit cuts it short;
		// a synchronous machine's hit starts the page's journey at live.
		s := o.spans[base]
		cont := s != nil && s.open && s.stage == telemetry.StageWarmup
		if cont {
			o.spanEnd(base, telemetry.StageWarmup, telemetry.OutcomeCached)
		}
		o.spanBegin(base, telemetry.StageLive, !cont)
	case telemetry.EvInvalidate:
		// Closes a live span or an in-flight translate span (the later
		// stale drop then finds it closed).
		o.spanEnd(base, spanAnyStage, telemetry.OutcomeInvalidated)
	case telemetry.EvQuarantine:
		o.spanBegin(base, telemetry.StageQuarantine, true)
	case telemetry.EvQuarantineOff:
		o.hDwell.Observe(float64(arg))
		o.spanEnd(base, telemetry.StageQuarantine, telemetry.OutcomeReleased)
	}
}

// spanBegin opens a stage span on the page's track. newJourney bumps the
// page's span generation; stage transitions inside one journey
// (warmup -> translate -> live) keep it, so the three stages share a
// Chrome trace span ID and read as one flow.
func (o *telObserver) spanBegin(base uint32, stage telemetry.SpanStage, newJourney bool) {
	s := o.spans[base]
	if s == nil {
		s = &pageSpan{}
		o.spans[base] = s
	}
	if s.open {
		// Defensive: never stack an unmatched begin on an open span.
		o.trace(telemetry.EvSpanEnd, base, telemetry.SpanArg(s.gen, s.stage, telemetry.OutcomeNone))
		s.open = false
	}
	if newJourney || s.gen == 0 {
		s.gen++
	}
	s.stage = stage
	s.open = true
	o.trace(telemetry.EvSpanBegin, base, telemetry.SpanArg(s.gen, stage, telemetry.OutcomeNone))
}

// spanEnd closes the page's open span when it is in wantStage (or
// unconditionally for spanAnyStage). Closing a closed span is a no-op, so
// the invalidate/stale and invalidate/invalidate orderings stay balanced.
func (o *telObserver) spanEnd(base uint32, wantStage telemetry.SpanStage, outcome telemetry.SpanOutcome) {
	s := o.spans[base]
	if s == nil || !s.open {
		return
	}
	if wantStage != spanAnyStage && s.stage != wantStage {
		return
	}
	s.open = false
	o.trace(telemetry.EvSpanEnd, base, telemetry.SpanArg(s.gen, s.stage, outcome))
}

// closeSpans ends every still-open span with OutcomeOpen (in page order,
// for deterministic traces) so an exported trace never has an unmatched
// begin. SyncTelemetry calls it once the run is over.
func (o *telObserver) closeSpans() {
	for _, b := range sortedKeys(o.spans) {
		o.spanEnd(b, spanAnyStage, telemetry.OutcomeOpen) // no-op on a closed span
	}
}
