// Package telemetry is the observability layer of the DAISY reproduction:
// a metrics registry (counters, gauges, bounded histograms), a ring-buffer
// structured event tracer, and exporters (Prometheus text, expvar JSON,
// JSONL and Chrome trace_event dumps) threaded through the translator,
// executor and VMM.
//
// Design constraints, in order:
//
//   - Zero allocation and near-zero cost when disabled. A Machine without
//     an attached *Telemetry pays exactly one nil pointer check per
//     instrumentation site; no telemetry object is ever allocated.
//   - Cheap enough to stay on under load. Hot-path instrumentation is
//     sampled 1-in-N (Options.SampleEvery); only rare events (translation,
//     exception recovery, SMC, cast-out, quarantine) are recorded
//     unconditionally. Counters are atomic; histograms and the trace ring
//     take a mutex only on the sampled/rare paths.
//   - Deterministic where tests need it. Event timestamps are virtual —
//     completed base instructions, the machine's only deterministic clock —
//     so traces golden-compare across runs; host-clock quantities (the
//     translation-nanos metrics) are flagged time-based and zeroed by
//     Snapshot.Canonical for golden tests.
//
// The command-line front end is the shared observability flag set in
// cmd/internal/obs, on daisy-run and daisy-chaos: -telemetry, the
// exporters, -top (RenderTop, live with -snapshot-every) and -profile
// (the guest attribution profile, validated by ValidatePprof after it is
// written).
package telemetry

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a Telemetry instance.
type Options struct {
	// SampleEvery is the 1-in-N sampling rate for hot-path instrumentation
	// (dispatch events, per-group histograms, boundary events). 0 or 1
	// means every occurrence; the tools default to 64.
	SampleEvery int

	// TraceCap is the event ring capacity (rounded up to a power of two;
	// 0 disables tracing entirely, so metrics-only telemetry pays no ring).
	TraceCap int

	// Profile enables the guest-time attribution profiler (profile.go):
	// sampled dispatch runs are walked with the scan mapping and charged
	// to base-architecture PCs. Off by default — attribution walks the
	// executed path, which costs more than the flat counters.
	Profile bool

	// Spans enables page-lifecycle span tracing: the VMM probe emits
	// begin/end span events (EvSpanBegin/EvSpanEnd) for each page's
	// journey through the translation pipeline and feeds the per-stage
	// latency histograms. Off by default so span-free traces golden-
	// compare against the pre-span event streams.
	Spans bool
}

// DefaultOptions returns the configuration the cmd tools use: 1-in-64
// sampling with a 64K-event ring.
func DefaultOptions() Options { return Options{SampleEvery: 64, TraceCap: 1 << 16} }

// Telemetry is one registry + tracer instance. A Machine owns at most one;
// instances are independent, so parallel experiment runners can attach one
// per machine without contention.
type Telemetry struct {
	opt   Options
	start time.Time

	mu       sync.Mutex // guards the registry maps (creation only)
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	trace *Tracer  // nil when TraceCap == 0
	prof  *Profile // nil when Options.Profile is false

	hotMu     sync.Mutex
	hotPages  map[uint32]uint64 // sampled dispatch counts by page base
	hotGroups map[uint32]uint64 // sampled dispatch counts by group entry
}

// New builds a Telemetry instance.
func New(opt Options) *Telemetry {
	if opt.SampleEvery < 1 {
		opt.SampleEvery = 1
	}
	t := &Telemetry{
		opt:       opt,
		start:     time.Now(),
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		hotPages:  make(map[uint32]uint64),
		hotGroups: make(map[uint32]uint64),
	}
	if opt.TraceCap > 0 {
		t.trace = newTracer(opt.TraceCap)
	}
	if opt.Profile {
		t.prof = NewProfile(opt.SampleEvery)
	}
	return t
}

// SampleEvery returns the configured 1-in-N sampling rate (always >= 1).
func (t *Telemetry) SampleEvery() int { return t.opt.SampleEvery }

// Tracer returns the event tracer, or nil when tracing is disabled.
func (t *Telemetry) Tracer() *Tracer { return t.trace }

// Profile returns the guest attribution profile, or nil when disabled.
func (t *Telemetry) Profile() *Profile { return t.prof }

// SpansEnabled reports whether page-lifecycle span tracing is on.
func (t *Telemetry) SpansEnabled() bool { return t.opt.Spans }

// Counter is a monotonically increasing uint64 metric. Safe for concurrent
// use; Inc/Add are a single atomic add.
type Counter struct {
	v        atomic.Uint64
	name     string
	timeBase bool
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value float64 metric.
type Gauge struct {
	bits atomic.Uint64
	name string
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the last value set.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Histogram is a bounded histogram with fixed upper bounds (the last
// bucket is implicit +Inf). Observe takes a mutex: histograms are only
// updated on sampled or rare paths, never per VLIW.
type Histogram struct {
	name     string
	timeBase bool
	bounds   []float64

	mu     sync.Mutex
	counts []uint64
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Counter returns (creating if needed) the named counter.
func (t *Telemetry) Counter(name string) *Counter { return t.counter(name, false) }

// TimeCounter returns a counter flagged as host-clock-derived: its value is
// zeroed by Snapshot.Canonical so golden tests stay deterministic.
func (t *Telemetry) TimeCounter(name string) *Counter { return t.counter(name, true) }

func (t *Telemetry) counter(name string, timeBase bool) *Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, timeBase: timeBase}
	t.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (t *Telemetry) Gauge(name string) *Gauge {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g, ok := t.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	t.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the named histogram with the given
// upper bounds (sorted ascending; +Inf is implicit).
func (t *Telemetry) Histogram(name string, bounds []float64) *Histogram {
	return t.histogram(name, bounds, false)
}

// TimeHistogram is Histogram with the host-clock flag (see TimeCounter).
func (t *Telemetry) TimeHistogram(name string, bounds []float64) *Histogram {
	return t.histogram(name, bounds, true)
}

func (t *Telemetry) histogram(name string, bounds []float64, timeBase bool) *Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.hists[name]; ok {
		return h
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{name: name, timeBase: timeBase, bounds: b, counts: make([]uint64, len(b)+1)}
	t.hists[name] = h
	return h
}

// NotePage charges one sampled dispatch to the page at base (hot-page
// accounting for the top screen).
func (t *Telemetry) NotePage(base uint32) {
	t.hotMu.Lock()
	t.hotPages[base]++
	t.hotMu.Unlock()
}

// NoteGroup charges one sampled dispatch to the group entered at pc.
func (t *Telemetry) NoteGroup(pc uint32) {
	t.hotMu.Lock()
	t.hotGroups[pc]++
	t.hotMu.Unlock()
}

// Event appends one event to the trace ring, if tracing is enabled.
func (t *Telemetry) Event(kind EventKind, insts uint64, pc, page uint32, arg uint64) {
	if t.trace == nil {
		return
	}
	t.trace.Append(Event{Kind: kind, Insts: insts, PC: pc, Page: page, Arg: arg})
}

// Publish registers the instance with the expvar registry under name, so
// an embedding process's /debug/vars endpoint exposes the live snapshot.
// Publishing twice under one name panics (an expvar property), so the cmd
// tools publish once at startup.
func (t *Telemetry) Publish(name string) { expvar.Publish(name, t) }

// String renders the current snapshot as JSON; it makes Telemetry an
// expvar.Var so the registry is expvar-compatible.
func (t *Telemetry) String() string { return t.Snapshot().JSON() }

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// hotCounts copies one hot map into a sorted slice, largest count first,
// ties broken by address for determinism.
func hotCounts(m map[uint32]uint64) []HotCount {
	out := make([]HotCount, 0, len(m))
	for a, c := range m {
		out = append(out, HotCount{Addr: a, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// HotCount is one (address, sampled dispatch count) pair.
type HotCount struct {
	Addr  uint32 `json:"addr"`
	Count uint64 `json:"count"`
}

func (h HotCount) String() string { return fmt.Sprintf("%#x:%d", h.Addr, h.Count) }
