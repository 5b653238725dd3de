package vmm

// Tests for the asynchronous translation pipeline (async.go): the -race
// soak asserting async execution is observably identical to synchronous
// translation, the staleness protocol (SMC, explicit invalidation, and
// silent byte changes must all suppress an in-flight publish), and queue
// backpressure. `make ci` runs this file's soak under -race.

import (
	"slices"
	"testing"
	"time"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/workload"
)

// runWorkloadVMM executes one workload to completion and returns the
// machine (closed) and its output.
func runWorkloadVMM(t *testing.T, w workload.Workload, scale int, opt Options) (*Machine, []byte) {
	t.Helper()
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	env := &interp.Env{In: w.Input(scale)}
	m := New(mm, env, opt)
	defer m.Close()
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return m, env.Out
}

// TestAsyncSoak runs every workload synchronously and then under several
// async pipeline shapes, asserting the output stream and the final
// architected state are identical no matter when (or whether) worker
// translations land. The golden wall pins the synchronous machine; this
// soak pins async against it. Run under -race it is also the data-race
// check on the machine/worker seam.
func TestAsyncSoak(t *testing.T) {
	type shape struct {
		name                string
		workers, depth, hot int
	}
	shapes := []shape{
		{"w1d1h1", 1, 1, 1}, // maximal contention: everything queues
		{"w2d8h2", 2, 8, 2}, // defaults
		{"w4d2h3", 4, 2, 3}, // wide pool, tight queue, late tiering
	}
	var published uint64
	for _, w := range workload.All() {
		sync, syncOut := runWorkloadVMM(t, w, 4, DefaultOptions())
		for _, s := range shapes {
			opt := DefaultOptions()
			opt.AsyncTranslate = true
			opt.AsyncWorkers = s.workers
			opt.AsyncQueueDepth = s.depth
			opt.HotThreshold = s.hot
			as, asyncOut := runWorkloadVMM(t, w, 4, opt)
			if string(asyncOut) != string(syncOut) {
				t.Errorf("%s/%s: async output differs from sync (%d vs %d bytes)",
					w.Name, s.name, len(asyncOut), len(syncOut))
			}
			if as.St != sync.St {
				t.Errorf("%s/%s: final architected state differs\nasync %+v\nsync  %+v",
					w.Name, s.name, as.St, sync.St)
			}
			if as.Stats.BaseInsts() != sync.Stats.BaseInsts() {
				t.Errorf("%s/%s: completed insts differ: async %d sync %d",
					w.Name, s.name, as.Stats.BaseInsts(), sync.Stats.BaseInsts())
			}
			published += as.Stats.AsyncPublishes
		}
	}
	if published == 0 {
		t.Fatal("no async publish happened across the whole soak; pipeline never engaged")
	}
}

// asyncLoopMachine builds a machine over an infinite counting loop with a
// single held worker, steps it until the loop page has been enqueued, and
// returns it with the translation still in flight.
func asyncLoopMachine(t *testing.T) (*Machine, uint32) {
	t.Helper()
	return asyncLoopMachineTel(t, nil)
}

// asyncLoopMachineTel is asyncLoopMachine with an optional telemetry
// instance attached before the first step (the span tests need the hooks
// live from the very first dispatch).
func asyncLoopMachineTel(t *testing.T, tel *telemetry.Telemetry) (*Machine, uint32) {
	t.Helper()
	prog, err := asm.Assemble("_start:\taddi r1, r1, 1\n\tb _start\n")
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
	if tel != nil {
		m.AttachTelemetry(tel)
	}
	// Installed before the first enqueue: the job-channel send orders this
	// write before the worker's read.
	m.pipe.testHold = make(chan struct{}, 16)
	m.Start(prog.Entry(), spinBudget)
	for i := 0; i < 100 && m.Stats.AsyncEnqueues == 0; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.AsyncEnqueues == 0 {
		t.Fatal("loop page never enqueued")
	}
	return m, prog.Entry()
}

// spinBudget is the instruction budget of every test that steps a guest
// that never halts. No correct run of such a test gets near it, so a run
// loop that stops returning from StepGroup fails the test with ErrBudget
// within seconds instead of hanging it and every test after it.
const spinBudget = 20_000_000

// stepUntil steps the machine until cond holds (or fails the test). The
// short sleep between steps gives a released worker time to deliver its
// result; the condition itself is always checked on the machine side.
func stepUntil(t *testing.T, m *Machine, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	t.Fatalf("condition never reached: %s", what)
}

// TestAsyncStaleDropOnSMC pins the epoch protocol: a store into the page
// while its translation is in flight must drop the result, never publish
// it (ISSUE 4's race/invalidate guarantee).
func TestAsyncStaleDropOnSMC(t *testing.T) {
	m, entry := asyncLoopMachine(t)
	defer m.Close()
	m.InjectSMC(entry)
	if _, err := m.StepGroup(); err != nil { // drain the dirty page: epoch bump
		t.Fatal(err)
	}
	m.pipe.testHold <- struct{}{} // let the worker finish the stale job
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if m.Stats.AsyncPublishes != 0 {
		t.Fatalf("stale translation was published (publishes=%d)", m.Stats.AsyncPublishes)
	}
	if m.St.GPR[1] == 0 {
		t.Fatal("machine stopped making interpretive progress")
	}
}

// TestAsyncStaleDropOnInvalidate covers the cast-out/TLB-invalidate form
// of the same race: an explicit InvalidatePage of a page with no published
// translation must still poison the in-flight result.
func TestAsyncStaleDropOnInvalidate(t *testing.T) {
	m, entry := asyncLoopMachine(t)
	defer m.Close()
	m.InvalidatePage(entry)
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if m.Stats.AsyncPublishes != 0 {
		t.Fatalf("stale translation was published (publishes=%d)", m.Stats.AsyncPublishes)
	}
}

// TestAsyncStaleDropOnSilentRewrite covers the hole epochs alone cannot
// see: a write into a page that was never translated raises no
// code-modification interrupt (the page is not protected yet), so only
// the publish-time digest check can catch it.
func TestAsyncStaleDropOnSilentRewrite(t *testing.T) {
	m, _ := asyncLoopMachine(t)
	defer m.Close()
	// Rewrite the loop body behind the VMM's back: same shape, different
	// increment. LoadImage bypasses the protected-store hook, so no dirty
	// bit and no epoch bump — exactly a DMA-style silent change.
	patched, err := asm.Assemble("_start:\taddi r1, r1, 2\n\tb _start\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := patched.Load(m.Mem); err != nil {
		t.Fatal(err)
	}
	m.pipe.testHold <- struct{}{}
	stepUntil(t, m, "stale result dropped", func() bool {
		return m.Stats.StaleTranslationsDropped > 0
	})
	if m.Stats.AsyncPublishes != 0 {
		t.Fatalf("digest-stale translation was published (publishes=%d)", m.Stats.AsyncPublishes)
	}
}

// TestAsyncBackpressure pins the bounded-queue property: with one held
// worker and a depth-1 queue, a third hot page must be pushed back
// (AsyncQueueFull), not block the machine or grow the queue; once the
// worker is released everything still gets translated and published.
func TestAsyncBackpressure(t *testing.T) {
	src := "_start:\tbl f1\n\tbl f2\n\tbl f3\n\taddi r1, r1, 1\n\tb _start\n" +
		"\t.org 0x11000\nf1:\tblr\n" +
		"\t.org 0x12000\nf2:\tblr\n" +
		"\t.org 0x13000\nf3:\tblr\n"
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
	opt.AsyncQueueDepth = 1
	opt.HotThreshold = 1
	// The loop body is 8 instructions; a budget coprime with it makes the
	// interpreter stop (and dispatch) at a different loop position each
	// StepGroup, so every page gets counted hot while the worker is held.
	opt.InterpBudget = 3
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	m.pipe.testHold = make(chan struct{}, 64)
	m.Start(prog.Entry(), spinBudget)
	stepUntil(t, m, "queue pushed back", func() bool {
		return m.Stats.AsyncQueueFull > 0
	})
	if got := len(m.pipe.jobs); got > 1 {
		t.Fatalf("queue grew past its bound: %d jobs", got)
	}
	// Release the worker and let the backlog drain: the pushed-back pages
	// retry on later dispatches and everything publishes.
	for i := 0; i < 64; i++ {
		m.pipe.testHold <- struct{}{}
	}
	stepUntil(t, m, "all four pages published", func() bool {
		return m.Stats.AsyncPublishes >= 4
	})
	if m.Stats.StaleTranslationsDropped != 0 {
		t.Fatalf("unexpected stale drops: %d", m.Stats.StaleTranslationsDropped)
	}
}

// TestAsyncQueueFullSkipsPlan pins the order in enqueue: with the worker
// held and the queue full, a hot page must be pushed back on every
// dispatch before it is snapshotted or a chaos plan is drawn for it, and
// must still be enqueued, plan and all, once the queue drains.
func TestAsyncQueueFullSkipsPlan(t *testing.T) {
	prog, err := asm.Assemble("_start:\taddi r1, r1, 1\n\tb _start\n")
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
	m.pipe.testHold = make(chan struct{}, 16)

	// Fill the pipeline: the worker takes one job and waits on testHold,
	// the second sits in the depth-1 queue.
	m.enqueue(0x8000, 0x8000)
	deadline := time.Now().Add(10 * time.Second)
	for len(m.pipe.jobs) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first filler job")
		}
		time.Sleep(50 * time.Microsecond)
	}
	m.enqueue(0x9000, 0x9000)
	if len(m.pipe.jobs) != cap(m.pipe.jobs) {
		t.Fatalf("queue not full: %d of %d", len(m.pipe.jobs), cap(m.pipe.jobs))
	}

	draws := 0
	m.FaultTranslation = func(uint32) *TranslationFault { draws++; return nil }
	seq := m.pipe.nextSeq
	m.Start(prog.Entry(), spinBudget)
	for i := 0; i < 20; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.AsyncQueueFull < 20 {
		t.Fatalf("only %d of 20 dispatches were pushed back", m.Stats.AsyncQueueFull)
	}
	if draws != 0 {
		t.Fatalf("a full queue still drew %d chaos plans", draws)
	}
	if m.pipe.nextSeq != seq {
		t.Fatalf("a full queue still built %d jobs", m.pipe.nextSeq-seq)
	}

	for i := 0; i < 16; i++ {
		m.pipe.testHold <- struct{}{}
	}
	stepUntil(t, m, "loop page enqueued after the queue drained", func() bool {
		return m.Stats.AsyncEnqueues == 3
	})
	if draws != 1 {
		t.Fatalf("the loop page's enqueue drew %d chaos plans, want 1", draws)
	}
}

// TestAsyncOffByDefault pins the determinism guard: the default machine —
// the one the golden and lockstep walls run — has no pipeline.
func TestAsyncOffByDefault(t *testing.T) {
	m := New(mem.New(1<<16), &interp.Env{}, DefaultOptions())
	if m.pipe != nil {
		t.Fatal("default machine has an async pipeline")
	}
	// Interpretive (trace-guided) mode is inherently inline: asking for
	// async there must be ignored, not half-engaged.
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.Interpretive = true
	if m2 := New(mem.New(1<<16), &interp.Env{}, opt); m2.pipe != nil {
		t.Fatal("interpretive machine built an async pipeline")
	}
}

// TestAsyncCastOutSparesHoppingPage pins the cast-out order across hops.
// With a pool of two pages, pages B and C publish while page A loops on
// system calls that stay in the run loop. Each hop refreshes A's recency
// as a dispatch that returned would, so C's publish casts out B, never A
// in the middle of its loop.
func TestAsyncCastOutSparesHoppingPage(t *testing.T) {
	prog, err := asm.Assemble(`
_start:	bl fb            # dispatch pages B and C once each: both queue
	bl fc            # behind page A on the held worker
	li r5, 100
	mtctr r5
loop:	li r0, 1         # putc: a same-page system call hops
	li r3, 46
	sc
	bdnz loop
	li r0, 0
	sc

	.org 0x12000
fb:	blr

	.org 0x13000
fc:	blr
`)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.AsyncTranslate = true
	opt.AsyncWorkers = 1
	opt.AsyncQueueDepth = 4
	opt.AsyncDeadline = time.Minute // held jobs must not be abandoned
	opt.HotThreshold = 1
	opt.MaxPages = 2
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	m.pipe.testHold = make(chan struct{}, 16)

	// publishNext lets the worker translate the oldest queued page and
	// waits for the result, which the next dispatch's drain publishes.
	publishNext := func() {
		m.pipe.testHold <- struct{}{}
		deadline := time.Now().Add(10 * time.Second)
		for len(m.pipe.done) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("worker result never arrived")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	m.Start(prog.Entry(), 0)
	for i := 0; i < 10 && m.Stats.AsyncEnqueues < 3; i++ {
		if _, err := m.StepGroup(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats.AsyncEnqueues != 3 {
		t.Fatalf("%d pages queued before the loop, want 3", m.Stats.AsyncEnqueues)
	}
	publishNext() // page A
	dispatches := 0
	m.Observe(hookObserver{dispatch: func(uint32) {
		dispatches++
		if dispatches == 10 || dispatches == 20 {
			publishNext() // page B, then page C, mid-loop
		}
	}})
	returns := 0
	for halted := false; !halted; returns++ {
		if halted, err = m.StepGroup(); err != nil {
			t.Fatal(err)
		}
		if returns > 1000 {
			t.Fatal("no halt")
		}
	}
	want := []uint32{prog.Entry() &^ (opt.Trans.PageSize - 1), 0x13000}
	if got := m.TranslatedPages(); !slices.Equal(got, want) || m.Stats.CastOuts != 1 {
		t.Fatalf("translated pages %#x after %d cast-outs, want %#x after 1", got, m.Stats.CastOuts, want)
	}
	if returns > 10 || dispatches < 100 {
		t.Fatalf("the loop did not hop: %d dispatches, %d StepGroup returns", dispatches, returns)
	}
}
