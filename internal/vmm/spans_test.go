package vmm

// Tests for page-lifecycle span tracing (the telemetry observer keys each
// span transition on the event that marks it): the
// begin/end pairing invariant across the async pipeline's happy path and
// its three unhappy ones (SMC stale drop, explicit invalidation,
// quarantine), plus the per-stage latency histograms.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/workload"
)

// spanKey identifies one open span: Chrome pairs by (cat, id, name) which
// maps onto (page, gen, stage) here.
type spanKey struct {
	page  uint32
	gen   uint64
	stage telemetry.SpanStage
}

// checkSpanPairing scans a trace and asserts the span protocol: every
// begin is eventually matched by exactly one end with the same key, ends
// never appear without a begin, and nothing is left open at the end of
// the trace. Returns per-stage end-outcome counts for further assertions.
func checkSpanPairing(t *testing.T, tr *telemetry.Tracer) map[telemetry.SpanStage]map[telemetry.SpanOutcome]int {
	t.Helper()
	open := make(map[spanKey]bool)
	outcomes := make(map[telemetry.SpanStage]map[telemetry.SpanOutcome]int)
	var begins, ends int
	for _, e := range tr.Events() {
		if e.Kind != telemetry.EvSpanBegin && e.Kind != telemetry.EvSpanEnd {
			continue
		}
		gen, stage, outcome := telemetry.SplitSpanArg(e.Arg)
		k := spanKey{e.Page, gen, stage}
		if e.Kind == telemetry.EvSpanBegin {
			begins++
			if open[k] {
				t.Errorf("seq %d: begin for already-open span %+v", e.Seq, k)
			}
			if outcome != telemetry.OutcomeNone {
				t.Errorf("seq %d: begin carries outcome %v", e.Seq, outcome)
			}
			open[k] = true
		} else {
			ends++
			if !open[k] {
				t.Errorf("seq %d: end without begin for span %+v (outcome %v)", e.Seq, k, outcome)
			}
			delete(open, k)
			m := outcomes[stage]
			if m == nil {
				m = make(map[telemetry.SpanOutcome]int)
				outcomes[stage] = m
			}
			m[outcome]++
		}
	}
	for k := range open {
		t.Errorf("span left open at end of trace: %+v", k)
	}
	if begins != ends {
		t.Errorf("unbalanced span events: %d begins, %d ends", begins, ends)
	}
	return outcomes
}

// spanTel builds a telemetry instance with a trace ring big enough to keep
// every span event.
func spanTel() *telemetry.Telemetry {
	return telemetry.New(telemetry.Options{SampleEvery: 8, TraceCap: 1 << 14})
}

// TestSpanPairingAsyncWorkload runs a real workload through the async
// pipeline and asserts the full-journey protocol: warmup spans open and
// close, translate spans end published or open, and the trace balances.
func TestSpanPairingAsyncWorkload(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.HotThreshold = 1
	m := New(mm, &interp.Env{In: w.Input(4)}, opt)
	defer m.Close()
	tel := spanTel()
	m.AttachTelemetry(tel)
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	m.SyncTelemetry()

	outcomes := checkSpanPairing(t, tel.Tracer())
	if len(outcomes[telemetry.StageWarmup]) == 0 {
		t.Error("no warmup spans closed; first-touch hook never fired")
	}
	if len(outcomes[telemetry.StageTranslate]) == 0 {
		t.Error("no translate spans closed; enqueue hook never fired")
	}
	// A published translation must feed all three latency histograms.
	if m.Stats.AsyncPublishes > 0 {
		snap := tel.Snapshot()
		for _, name := range []string{
			telemetry.HSpanQueueWaitNs, telemetry.HSpanTranslateNs, telemetry.HSpanPublishDelayNs,
		} {
			found := false
			for _, h := range snap.Histograms {
				if h.Name == name && h.Count > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("histogram %s empty after %d publishes", name, m.Stats.AsyncPublishes)
			}
		}
	}
}

// TestSpanPairingSyncWorkload covers the synchronous machine: pages jump
// straight to live spans (no warmup/translate stages) and the final sync
// closes them with OutcomeOpen.
func TestSpanPairingSyncWorkload(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	m := New(mm, &interp.Env{In: w.Input(1)}, DefaultOptions())
	defer m.Close()
	tel := spanTel()
	m.AttachTelemetry(tel)
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	m.SyncTelemetry()
	outcomes := checkSpanPairing(t, tel.Tracer())
	live := outcomes[telemetry.StageLive]
	if live[telemetry.OutcomeOpen] == 0 {
		t.Errorf("no live span closed OutcomeOpen at run end; outcomes: %v", outcomes)
	}
}

// spanLoopMachine is asyncLoopMachine with telemetry attached before the
// first step.
func spanLoopMachine(t *testing.T) (*Machine, *telemetry.Telemetry, uint32) {
	t.Helper()
	m, entry := asyncLoopMachineTel(t, spanTel())
	return m, m.Telemetry(), entry
}

// TestSpanStaleDropOnSMC pins the unhappy path the protocol was designed
// for: an in-flight translate span whose result is dropped stale must end
// (stale or invalidated, depending on which check fires first), never
// dangle.
func TestSpanStaleDropOnSMC(t *testing.T) {
	m, tel, entry := spanLoopMachine(t)
	defer m.Close()
	m.InjectSMC(entry)
	if _, err := m.StepGroup(); err != nil {
		t.Fatal(err)
	}
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	m.SyncTelemetry()
	outcomes := checkSpanPairing(t, tel.Tracer())
	tr := outcomes[telemetry.StageTranslate]
	if tr[telemetry.OutcomeStale]+tr[telemetry.OutcomeInvalidated] == 0 {
		t.Errorf("translate span did not end stale/invalidated: %v", outcomes)
	}
	if outcomes[telemetry.StageLive][telemetry.OutcomePublished] != 0 {
		t.Errorf("live span opened despite the stale drop: %v", outcomes)
	}
}

// TestSpanStaleDropOnInvalidate covers the explicit-invalidation ordering:
// the invalidate event closes the translate span first and the later
// stale-drop event must be a no-op, not a second end event.
func TestSpanStaleDropOnInvalidate(t *testing.T) {
	m, tel, entry := spanLoopMachine(t)
	defer m.Close()
	m.InvalidatePage(entry)
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	m.SyncTelemetry()
	checkSpanPairing(t, tel.Tracer())
}

// TestSpanQuarantine drives the quarantine policy directly and asserts the
// quarantine stage appears as a properly paired span with the release
// outcome.
func TestSpanQuarantine(t *testing.T) {
	opt := DefaultOptions()
	opt.QuarantineThreshold = 2
	opt.QuarantineWindow = 1000
	opt.QuarantineBackoff = 100
	m := New(mem.New(1<<16), &interp.Env{}, opt)
	tel := spanTel()
	m.AttachTelemetry(tel)

	const page = 0x3000
	m.noteTrouble(page)
	m.noteTrouble(page)
	if !m.pageQuarantined(page) {
		t.Fatal("not quarantined at threshold")
	}
	m.Stats.InterpInsts += opt.QuarantineBackoff + 1
	if m.pageQuarantined(page) {
		t.Fatal("still quarantined after backoff")
	}
	m.SyncTelemetry()
	outcomes := checkSpanPairing(t, tel.Tracer())
	q := outcomes[telemetry.StageQuarantine]
	if q[telemetry.OutcomeReleased] != 1 {
		t.Errorf("quarantine span outcomes = %v, want one release", outcomes)
	}
}

// TestSpanChromeExport renders a span-bearing trace as Chrome trace_event
// JSON and asserts the async begin/end records carry matching ids. The
// loop is finite (bdnz): a published self-looping group would chain-follow
// forever inside one StepGroup, so the infinite asyncLoopMachine cannot be
// stepped past its own publish.
func TestSpanChromeExport(t *testing.T) {
	// 16384 iterations: long enough for the held worker's publish to land
	// mid-loop, short enough that the sampled boundary events do not evict
	// the span begins from the trace ring.
	prog, err := asm.Assemble("_start:\tli r4, 16384\n\tmtctr r4\nloop:\taddi r1, r1, 1\n\tbdnz loop\n\tli r0, 0\n\tsc\n")
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 16)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 1
	opt.HotThreshold = 1
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	tel := spanTel()
	m.AttachTelemetry(tel)
	m.pipe.testHold = make(chan struct{}, 16)
	m.Start(prog.Entry(), 0)
	entry := prog.Entry()
	stepUntil(t, m, "loop page enqueued", func() bool {
		return m.Stats.AsyncEnqueues > 0
	})
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "translation published", func() bool {
		return m.Stats.AsyncPublishes > 0
	})
	m.SyncTelemetry()
	var buf bytes.Buffer
	if err := tel.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	base := entry &^ (m.Trans.Opt.PageSize - 1)
	id := fmt.Sprintf("\"id\":\"0x%x.1\"", base)
	for _, want := range []string{
		`"ph":"b"`, `"ph":"e"`, `"cat":"page"`, id,
		`"name":"page-translate"`, `"outcome":"published"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome trace missing %s in:\n%s", want, out)
		}
	}
}
