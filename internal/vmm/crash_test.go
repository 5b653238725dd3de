package vmm

// Tests for the crash-safety layer (guard.go, the watchdog/retry half of
// async.go, and option validation): a panicking translator must degrade
// to interpret-only quarantine with the guest output byte-identical, a
// hung or failing worker must be absorbed by the watchdog and retry
// machinery, and a page quarantined while its translation is in flight
// must drop the result and re-admit through the hot-threshold path after
// release.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/workload"
)

// TestSyncPanicQuarantinesAndCompletes is the headline isolation claim: a
// translator that panics on every page build still yields a run whose
// output is byte-identical to the oracle model — the machine quarantines
// each page interpret-only and carries the whole program on the
// interpreter.
func TestSyncPanicQuarantinesAndCompletes(t *testing.T) {
	w, err := workload.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := w.Input(1)
	want := w.Model(in)

	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	env := &interp.Env{In: in}
	m := New(mm, env, DefaultOptions())
	m.FaultTranslation = func(base uint32) *TranslationFault {
		return &TranslationFault{Panic: true}
	}
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatalf("run with panicking translator failed: %v", err)
	}
	if string(env.Out) != string(want) {
		t.Fatalf("output differs from oracle model (%d vs %d bytes)", len(env.Out), len(want))
	}
	if m.Stats.TranslatorPanics == 0 {
		t.Fatal("no translator panic was counted")
	}
	if m.Stats.Quarantines == 0 {
		t.Fatal("panicking page was never quarantined")
	}
	if m.Stats.PagesBuilt != 0 {
		t.Fatalf("%d pages built despite a translator that always panics", m.Stats.PagesBuilt)
	}
}

// TestTier2SyncPanicTraced pins the panic funnel on the synchronous tier-2
// promotion path: a planted panic is counted and traced exactly once, like
// a panic on every other translation path, and costs only the promotion —
// the page keeps its tier-1 translation and is not quarantined.
func TestTier2SyncPanicTraced(t *testing.T) {
	prog, err := asm.Assemble("_start:\taddi r1, r1, 1\n\tb _start\n")
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 16)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Tier2 = true
	opt.Tier2Threshold = 2
	m := New(mm, &interp.Env{}, opt)
	tel := telemetry.New(telemetry.DefaultOptions())
	m.AttachTelemetry(tel)
	m.Start(prog.Entry(), spinBudget)
	if _, err := m.StepGroup(); err != nil { // builds tier 1, first dispatch
		t.Fatal(err)
	}
	// Armed only now, so the plan hits the promotion, not the tier-1 build.
	m.FaultTranslation = func(uint32) *TranslationFault { return &TranslationFault{Panic: true} }
	for i := 0; i < 16 && m.Stats.TranslatorPanics == 0; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.TranslatorPanics != 1 {
		t.Fatalf("TranslatorPanics = %d, want 1", m.Stats.TranslatorPanics)
	}
	events := 0
	for _, e := range tel.Tracer().Events() {
		if e.Kind == telemetry.EvTranslatorPanic {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("%d translator-panic events, want 1", events)
	}
	base := prog.Entry() &^ (m.Trans.Opt.PageSize - 1)
	if m.Stats.Tier2Promotions != 0 || !pageLive(m, base) || len(m.QuarantinedPages()) != 0 {
		t.Fatalf("a tier-2 panic must cost only the promotion (promotions %d, tier-1 live %v, quarantined %v)",
			m.Stats.Tier2Promotions, pageLive(m, base), m.QuarantinedPages())
	}
}

// crashLoopMachine builds an async machine over an infinite counting loop
// that calls into a second page every iteration — the page crossing makes
// every StepGroup return even after the loop page is translated, so tests
// can keep observing the machine past a publish. The fault plan applies
// only to the entry (loop) page; the callee page translates normally.
// With hold set, the single worker is gated on testHold; tweak (optional)
// adjusts the options before construction. Returns the machine and the
// entry page's base.
func crashLoopMachine(t *testing.T, hold bool, fault func(uint32) *TranslationFault, tweak func(*Options)) (*Machine, uint32) {
	t.Helper()
	src := "_start:\taddi r1, r1, 1\n\tbl f\n\tb _start\n" +
		"\t.org 0x11000\nf:\tblr\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 17)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 2
	opt.HotThreshold = 1
	if tweak != nil {
		tweak(&opt)
	}
	m := New(mm, &interp.Env{}, opt)
	base := prog.Entry() &^ (m.Trans.Opt.PageSize - 1)
	if fault != nil {
		m.FaultTranslation = func(b uint32) *TranslationFault {
			if b != base {
				return nil
			}
			return fault(b)
		}
	}
	if hold {
		m.pipe.testHold = make(chan struct{}, 16)
	}
	m.Start(prog.Entry(), spinBudget)
	for i := 0; i < 100 && m.Stats.AsyncEnqueues == 0; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.AsyncEnqueues == 0 {
		t.Fatal("loop page never enqueued")
	}
	return m, base
}

// pageLive reports whether the page at base has a published translation.
func pageLive(m *Machine, base uint32) bool {
	return m.liveAt(base) != nil
}

// stepSpin is stepUntil without the per-step sleep: conditions gated on
// the instruction clock (retry backoffs, quarantine releases) need tens
// of thousands of instructions, and the interpreter only advances a
// handful per StepGroup here — sleeping between steps would turn an
// instruction-clock wait into seconds of wall time. An occasional yield
// still lets worker goroutines deliver.
func stepSpin(t *testing.T, m *Machine, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if cond() {
			return
		}
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 1023 {
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatalf("condition never reached: %s", what)
}

// TestAsyncWorkerPanicQuarantines pins the async half of panic isolation:
// a worker whose translation panics surfaces as a counted panic and an
// interpret-only quarantine, never a publish and never a dead machine.
func TestAsyncWorkerPanicQuarantines(t *testing.T) {
	m, base := crashLoopMachine(t, false, func(uint32) *TranslationFault {
		return &TranslationFault{Panic: true}
	}, nil)
	defer m.Close()
	stepUntil(t, m, "panic counted and page quarantined", func() bool {
		return m.Stats.TranslatorPanics > 0 && len(m.QuarantinedPages()) > 0
	})
	if pageLive(m, base) {
		t.Fatal("panicked translation was published")
	}
	if m.St.GPR[1] == 0 {
		t.Fatal("machine stopped making interpretive progress")
	}
}

// TestAsyncErrRetriesThenQuarantines pins the retry ladder: a worker
// translation that keeps failing is retried asyncMaxRetries times with
// instruction-clock backoff, then the page is quarantined instead of
// retrying forever. An invalidation restarts the ladder: the page's bytes
// may have changed, so its failures predict nothing.
func TestAsyncErrRetriesThenQuarantines(t *testing.T) {
	planted := errors.New("planted translation failure")
	m, base := crashLoopMachine(t, false, func(uint32) *TranslationFault {
		return &TranslationFault{Err: planted}
	}, nil)
	defer m.Close()
	stepSpin(t, m, "first retry", func() bool {
		return m.Stats.AsyncRetries > 0
	})
	m.InvalidatePage(base)
	stepSpin(t, m, "retries exhausted", func() bool {
		return m.Stats.AsyncRetriesExhausted > 0
	})
	if m.Stats.AsyncRetries != 1+asyncMaxRetries {
		t.Fatalf("AsyncRetries = %d, want %d (one, then the whole retry budget)", m.Stats.AsyncRetries, 1+asyncMaxRetries)
	}
	if len(m.QuarantinedPages()) == 0 {
		t.Fatal("retry-exhausted page was not quarantined")
	}
	if pageLive(m, base) {
		t.Fatal("failing translation was published")
	}
	if m.Stats.TranslatorPanics != 0 {
		t.Fatalf("unexpected translator panics: %d", m.Stats.TranslatorPanics)
	}
}

// TestAsyncWatchdogAbandonsHungWorker pins the watchdog: a translation
// hung past AsyncDeadline is abandoned, a replacement worker is spawned,
// the page is rescheduled through the retry backoff and eventually
// published by the replacement — and the hung attempt's late result is
// dropped by its sequence number, not published over the fresh one.
func TestAsyncWatchdogAbandonsHungWorker(t *testing.T) {
	hung := false
	m, base := crashLoopMachine(t, false, func(uint32) *TranslationFault {
		if hung {
			return nil
		}
		hung = true
		return &TranslationFault{Hang: 250 * time.Millisecond}
	}, func(o *Options) {
		o.AsyncDeadline = 2 * time.Millisecond
	})
	defer m.Close()
	stepUntil(t, m, "hung job abandoned and worker respawned", func() bool {
		return m.Stats.AsyncAbandons > 0 && m.Stats.AsyncRespawns > 0
	})
	stepSpin(t, m, "late-result drop and replacement publish", func() bool {
		return m.Stats.AsyncLateDrops > 0 && pageLive(m, base)
	})
	if len(m.QuarantinedPages()) != 0 {
		t.Fatal("a single hang must retry, not quarantine")
	}
}

// TestQuarantineWhileInflightDropsAndReadmits is the quarantine × async
// interaction: quarantining a page whose translation is in flight must
// poison that result (epoch bump → stale drop), and releasing the
// quarantine must re-admit the page through the normal hot-threshold
// path, warming up from zero, ending in a successful publish.
func TestQuarantineWhileInflightDropsAndReadmits(t *testing.T) {
	m, base := crashLoopMachine(t, true, nil, func(o *Options) {
		o.QuarantineBackoff = 2_000
	})
	defer m.Close()
	log := &eventLog{}
	m.Observe(log)

	// Quarantine the loop page while the (held) translation is in flight.
	m.forceQuarantine(base)
	if len(m.QuarantinedPages()) != 1 {
		t.Fatal("page not quarantined")
	}
	for i := 0; i < 4; i++ {
		m.pipe.testHold <- struct{}{} // let the worker finish the poisoned job
	}
	stepUntil(t, m, "in-flight result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if pageLive(m, base) {
		t.Fatal("poisoned translation was published")
	}

	// Release: the backoff expires on the instruction clock, the page is
	// re-counted hot, re-enqueued, and this time publishes.
	for i := 0; i < 8; i++ {
		m.pipe.testHold <- struct{}{}
	}
	stepUntil(t, m, "re-admitted page published", func() bool {
		return pageLive(m, base)
	})
	if m.Stats.QuarantineReleases == 0 {
		t.Fatal("quarantine was never released")
	}
	if len(m.QuarantinedPages()) != 0 {
		t.Fatal("page still quarantined after publish")
	}
	released := slices.IndexFunc(log.events, func(e string) bool {
		return strings.HasPrefix(e, telemetry.EvQuarantineOff.String()+" ")
	})
	warmup := fmt.Sprintf("%v %#x 0", telemetry.EvAsyncWarmup, base)
	if released < 0 || !slices.Contains(log.events[released:], warmup) {
		t.Fatalf("the released page never warmed up again from zero dispatches: %q", log.events)
	}
}

// TestOptionsValidate pins the validation table: explicit nonsense and
// inconsistent combinations are rejected with descriptive errors, while
// zero values (the documented defaults) pass.
func TestOptionsValidate(t *testing.T) {
	def := DefaultOptions()
	if err := def.Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Options)
		want string // substring of the error
	}{
		{"negative MaxPages", func(o *Options) { o.MaxPages = -1 }, "MaxPages"},
		{"negative InterpBudget", func(o *Options) { o.InterpBudget = -5 }, "InterpBudget"},
		{"negative AsyncWorkers", func(o *Options) { o.AsyncTranslate = true; o.AsyncWorkers = -1 }, "AsyncWorkers"},
		{"negative AsyncQueueDepth", func(o *Options) { o.AsyncTranslate = true; o.AsyncQueueDepth = -1 }, "AsyncQueueDepth"},
		{"negative HotThreshold", func(o *Options) { o.AsyncTranslate = true; o.HotThreshold = -1 }, "HotThreshold"},
		{"negative AsyncDeadline", func(o *Options) { o.AsyncTranslate = true; o.AsyncDeadline = -time.Second }, "AsyncDeadline"},
		{"negative QuarantineThreshold", func(o *Options) { o.QuarantineThreshold = -1 }, "QuarantineThreshold"},
		{"threshold without window", func(o *Options) { o.QuarantineThreshold = 4 }, "QuarantineWindow"},
		{"async with interpretive", func(o *Options) { o.AsyncTranslate = true; o.Interpretive = true }, "Interpretive"},
		{"async knobs without pipeline", func(o *Options) { o.AsyncWorkers = 2 }, "require AsyncTranslate"},
		{"hot threshold without pipeline", func(o *Options) { o.HotThreshold = 2 }, "HotThreshold"},
		{"sub-millisecond deadline", func(o *Options) { o.AsyncTranslate = true; o.AsyncDeadline = time.Microsecond }, "below 1ms"},
		{"tier-2 threshold without tier 2", func(o *Options) { o.Tier2Threshold = 4 }, "requires Tier2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := DefaultOptions()
			c.mod(&opt)
			err := opt.Validate()
			if err == nil {
				t.Fatal("invalid options accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestNewMachineValidates pins the validated constructor: bad options
// yield a nil machine and the validation error; good options a machine.
func TestNewMachineValidates(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxPages = -1
	if m, err := NewMachine(mem.New(1<<16), &interp.Env{}, opt); err == nil || m != nil {
		t.Fatalf("NewMachine(-1 MaxPages) = %v, %v; want nil, error", m, err)
	}
	m, err := NewMachine(mem.New(1<<16), &interp.Env{}, DefaultOptions())
	if err != nil || m == nil {
		t.Fatalf("NewMachine(defaults) = %v, %v; want machine, nil", m, err)
	}
}
