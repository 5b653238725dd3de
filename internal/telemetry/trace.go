package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	EvTranslate       EventKind = iota // page translated; Arg = base insts in page's groups
	EvDispatch                         // sampled group dispatch; Arg = sample stride
	EvChainPatch                       // ExitEntry edge patched; PC = target entry
	EvChainFollow                      // chain run ended; Arg = groups followed without VMM round-trip
	EvBoundary                         // sampled VLIW boundary; Arg = base insts completed in the dispatch run so far
	EvException                        // exception recovered; Arg = fault cause
	EvSMCInvalidate                    // page invalidated by guest store
	EvCastOut                          // page evicted by LRU cast-out
	EvQuarantine                       // page entered interpret-only quarantine; Arg = backoff window
	EvQuarantineOff                    // page released from quarantine; Arg = dwell (base insts)
	EvAsyncEnqueue                     // page handed to the async translator pool
	EvAsyncPublish                     // async translation published at a precise boundary
	EvAsyncStale                       // in-flight result dropped by epoch/digest check
	EvCacheHit                         // page installed from the persistent translation cache
	EvSpanBegin                        // page-lifecycle stage begins; Arg = SpanArg(gen, stage, 0)
	EvSpanEnd                          // page-lifecycle stage ends; Arg = SpanArg(gen, stage, outcome)
	EvTranslatorPanic                  // translator panic recovered; page quarantined interpret-only
	EvAsyncAbandon                     // in-flight translation abandoned by the worker watchdog
	EvAsyncRetry                       // failed worker translation rescheduled; Arg = retry attempt
	EvTier2Promote                     // page retranslated at tier-2 effort (sync promotion or async publish)
	EvTier2Publish                     // async tier-2 result installed at a precise boundary
	EvTier2Deopt                       // tier-2 fault deoptimized to the retained tier-1 translation
	EvTier2Demote                      // tier-2 translation retired (deopt/departure storm); backoff engaged
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"translate", "dispatch", "chain-patch", "chain-follow", "boundary",
	"exception", "smc-invalidate", "cast-out", "quarantine", "quarantine-release",
	"async-enqueue", "async-publish", "async-stale", "cache-hit",
	"span-begin", "span-end",
	"translator-panic", "async-abandon", "async-retry",
	"tier2-promote", "tier2-publish", "tier2-deopt", "tier2-demote",
}

// SpanStage is one stage of a page's lifecycle through the translation
// pipeline. Every stage renders as one duration slice on the page's async
// track in the Chrome trace; consecutive stages share the page's span ID,
// so the whole journey (first touch → translate → live → gone) reads as
// one flow.
type SpanStage uint8

const (
	StageWarmup     SpanStage = iota // first touch → translation scheduled (hot-threshold dues)
	StageTranslate                   // enqueued → published, dropped stale, or invalidated in flight
	StageLive                        // translation installed → invalidated (SMC/cast-out/quarantine)
	StageQuarantine                  // interpret-only quarantine engaged → released
	numSpanStages
)

var spanStageNames = [numSpanStages]string{"page-warmup", "page-translate", "page-live", "page-quarantine"}

func (s SpanStage) String() string {
	if int(s) < len(spanStageNames) {
		return spanStageNames[s]
	}
	return fmt.Sprintf("stage%d", int(s))
}

// SpanOutcome says how a stage ended.
type SpanOutcome uint8

const (
	OutcomeNone        SpanOutcome = iota // begin events, or no specific cause
	OutcomePublished                      // translate stage ended by a publish
	OutcomeStale                          // in-flight result dropped by the epoch/digest check
	OutcomeCached                         // warmup cut short by a persistent-cache install
	OutcomeInvalidated                    // stage ended by a translation invalidation
	OutcomeReleased                       // quarantine backoff expired
	OutcomeOpen                           // still open when the trace was finalized
	numSpanOutcomes
)

var spanOutcomeNames = [numSpanOutcomes]string{
	"", "published", "stale", "cached", "invalidated", "released", "open",
}

func (o SpanOutcome) String() string {
	if int(o) < len(spanOutcomeNames) {
		return spanOutcomeNames[o]
	}
	return fmt.Sprintf("outcome%d", int(o))
}

// SpanArg packs a span event's Arg: the page-keyed span generation (so a
// retranslated page gets a fresh span ID), the stage, and — for end
// events — the outcome.
func SpanArg(gen uint64, stage SpanStage, outcome SpanOutcome) uint64 {
	return gen<<16 | uint64(stage)<<8 | uint64(outcome)
}

// SplitSpanArg unpacks SpanArg.
func SplitSpanArg(arg uint64) (gen uint64, stage SpanStage, outcome SpanOutcome) {
	return arg >> 16, SpanStage(arg >> 8 & 0xff), SpanOutcome(arg & 0xff)
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Event is one structured trace record. Insts is the machine's virtual
// clock — completed base instructions at the time of the event — so equal
// runs produce byte-equal traces.
type Event struct {
	Seq   uint64    `json:"seq"`
	Insts uint64    `json:"insts"`
	Kind  EventKind `json:"-"`
	PC    uint32    `json:"pc"`
	Page  uint32    `json:"page"`
	Arg   uint64    `json:"arg"`
}

// Tracer is a bounded ring of Events. Appends beyond capacity overwrite the
// oldest events, but the per-kind counts and the rolling digest cover every
// event ever appended, so goldens remain exact even after wrap-around.
type Tracer struct {
	mu     sync.Mutex
	ring   []Event
	mask   uint64
	seq    uint64 // total events appended
	byKind [numEventKinds]uint64
	digest uint64 // rolling FNV-1a over all appended events
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func newTracer(capacity int) *Tracer {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{ring: make([]Event, n), mask: uint64(n - 1), digest: fnvOffset}
}

// Append records one event.
func (t *Tracer) Append(e Event) {
	t.mu.Lock()
	e.Seq = t.seq
	t.ring[t.seq&t.mask] = e
	t.seq++
	if int(e.Kind) < len(t.byKind) {
		t.byKind[e.Kind]++
	}
	d := t.digest
	for _, w := range [5]uint64{e.Insts, uint64(e.Kind), uint64(e.PC), uint64(e.Page), e.Arg} {
		for i := 0; i < 8; i++ {
			d = (d ^ (w & 0xff)) * fnvPrime
			w >>= 8
		}
	}
	t.digest = d
	t.mu.Unlock()
}

// Len returns the total number of events appended (not just retained).
func (t *Tracer) Len() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Digest returns the rolling FNV-1a digest over every appended event.
func (t *Tracer) Digest() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.digest
}

// CountByKind returns per-kind totals keyed by EventKind name.
func (t *Tracer) CountByKind() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, numEventKinds)
	for k, n := range t.byKind {
		if n > 0 {
			out[EventKind(k).String()] = n
		}
	}
	return out
}

// Events returns the retained window, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq
	cap64 := uint64(len(t.ring))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, t.ring[i&t.mask])
	}
	return out
}

// WriteJSONL streams the retained events as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, e := range t.Events() {
		_, err := fmt.Fprintf(w,
			"{\"seq\":%d,\"insts\":%d,\"kind\":%q,\"pc\":\"0x%x\",\"page\":\"0x%x\",\"arg\":%d}\n",
			e.Seq, e.Insts, e.Kind.String(), e.PC, e.Page, e.Arg)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON
// array format (load via chrome://tracing or Perfetto). The virtual
// instruction clock maps to microseconds: 1 base inst = 1us, which renders
// dispatch density and translation bursts on a meaningful shared axis.
// Translate events become duration ("X") slices sized by the page's base
// instruction count; everything else is an instant ("i") event on a
// per-kind track.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	for _, e := range t.Events() {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		var err error
		if e.Kind == EvTranslate {
			_, err = fmt.Fprintf(w,
				"{\"name\":\"translate 0x%x\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":1,\"tid\":1,\"args\":{\"page\":\"0x%x\",\"insts\":%d}}",
				e.Page, e.Insts, max64(e.Arg, 1), e.Page, e.Arg)
		} else if e.Kind == EvSpanBegin || e.Kind == EvSpanEnd {
			// Async begin/end pairs keyed by (cat, id, name): one id per
			// page journey, so warmup/translate/live stack on one track.
			gen, stage, outcome := SplitSpanArg(e.Arg)
			ph := "b"
			if e.Kind == EvSpanEnd {
				ph = "e"
			}
			_, err = fmt.Fprintf(w,
				"{\"name\":%q,\"cat\":\"page\",\"ph\":%q,\"id\":\"0x%x.%d\",\"ts\":%d,\"pid\":1,\"tid\":1,\"args\":{\"page\":\"0x%x\",\"outcome\":%q}}",
				stage.String(), ph, e.Page, gen, e.Insts, e.Page, outcome.String())
		} else {
			_, err = fmt.Fprintf(w,
				"{\"name\":%q,\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":1,\"tid\":%d,\"args\":{\"pc\":\"0x%x\",\"page\":\"0x%x\",\"arg\":%d}}",
				e.Kind.String(), e.Insts, 2+int(e.Kind), e.PC, e.Page, e.Arg)
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
