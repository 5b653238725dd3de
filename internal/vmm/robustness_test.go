package vmm

import (
	"errors"
	"reflect"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
)

// TestBudgetExactBoundary pins Run's budget semantics: the budget is the
// number of completed base instructions the machine may reach, not
// exceed. An earlier version compared with > and let an extra group
// start at exactly maxInsts.
func TestBudgetExactBoundary(t *testing.T) {
	// White-box: at exactly the budget the next group must not start.
	m := New(mem.New(1<<16), &interp.Env{}, DefaultOptions())
	m.maxInsts = 10
	m.Stats.InterpInsts = 10
	if err := m.checkBudget(); !errors.Is(err, ErrBudget) {
		t.Fatalf("checkBudget at budget = %v, want ErrBudget", err)
	}
	m.Stats.InterpInsts = 9
	if err := m.checkBudget(); err != nil {
		t.Fatalf("checkBudget below budget = %v, want nil", err)
	}

	// End to end: an infinite loop must stop with ErrBudget at (or within
	// one committed VLIW of) the budget, never run away past it.
	prog, err := asm.Assemble("_start:\taddi r1, r1, 1\n\tb _start\n")
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 16)
	_ = prog.Load(mm)
	ma := New(mm, &interp.Env{}, DefaultOptions())
	const budget = 100
	if err := ma.Run(prog.Entry(), budget); !errors.Is(err, ErrBudget) {
		t.Fatalf("infinite loop: %v, want ErrBudget", err)
	}
	got := ma.Stats.BaseInsts()
	if got < budget || got > budget+8 {
		t.Fatalf("stopped at %d insts, want within one VLIW of %d", got, budget)
	}

	// A program that halts at exactly the budget must halt cleanly, not
	// report exhaustion.
	prog2, err := asm.Assemble("_start:\tli r1, 7\n\tli r0, 0\n\tsc\n")
	if err != nil {
		t.Fatal(err)
	}
	count := func() uint64 {
		m := mem.New(1 << 16)
		_ = prog2.Load(m)
		ip := interp.New(m, &interp.Env{}, prog2.Entry())
		if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
			t.Fatalf("interp: %v", err)
		}
		return ip.InstCount
	}()
	mm2 := mem.New(1 << 16)
	_ = prog2.Load(mm2)
	ma2 := New(mm2, &interp.Env{}, DefaultOptions())
	if err := ma2.Run(prog2.Entry(), count); err != nil {
		t.Fatalf("halting program with exact budget %d: %v", count, err)
	}
}

// TestPageLRU pins the order semantics of the O(1) recency list that
// replaced the VMM's linear page slice.
func TestPageLRU(t *testing.T) {
	l := newPageLRU()
	if _, ok := l.victim(); ok {
		t.Fatal("empty LRU has a victim")
	}
	l.touch(1)
	l.touch(2)
	l.touch(3)
	if v, ok := l.victim(); !ok || v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	l.touch(1) // 1 becomes most recent; 2 is now LRU
	if v, _ := l.victim(); v != 2 {
		t.Fatalf("victim after touch(1) = %d, want 2", v)
	}
	l.remove(2)
	if v, _ := l.victim(); v != 3 {
		t.Fatalf("victim after remove(2) = %d, want 3", v)
	}
	l.remove(2) // removing an absent base is a no-op
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}
	l.remove(3)
	l.remove(1)
	if _, ok := l.victim(); ok || l.len() != 0 {
		t.Fatal("LRU not empty after removing everything")
	}
}

// TestQuarantineBackoff drives the graceful-degradation policy directly:
// enough trouble events within the window engage the quarantine, the
// backoff releases it, and a re-engagement doubles the span.
func TestQuarantineBackoff(t *testing.T) {
	opt := DefaultOptions()
	opt.QuarantineThreshold = 3
	opt.QuarantineWindow = 1000
	opt.QuarantineBackoff = 100
	m := New(mem.New(1<<16), &interp.Env{}, opt)

	const page = 0x3000
	m.noteTrouble(page)
	m.noteTrouble(page)
	if m.pageQuarantined(page) {
		t.Fatal("quarantined below threshold")
	}
	m.noteTrouble(page)
	if !m.pageQuarantined(page) {
		t.Fatal("not quarantined at threshold")
	}
	if m.Stats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", m.Stats.Quarantines)
	}
	if got := m.QuarantinedPages(); len(got) != 1 || got[0] != page {
		t.Fatalf("QuarantinedPages = %v", got)
	}

	// Advance the clock past the backoff: the page is released.
	m.Stats.InterpInsts += opt.QuarantineBackoff + 1
	if m.pageQuarantined(page) {
		t.Fatal("still quarantined after backoff expired")
	}
	if m.Stats.QuarantineReleases != 1 {
		t.Fatalf("QuarantineReleases = %d, want 1", m.Stats.QuarantineReleases)
	}

	// Re-engage: the backoff doubles.
	m.noteTrouble(page)
	m.noteTrouble(page)
	m.noteTrouble(page)
	if !m.pageQuarantined(page) {
		t.Fatal("not re-quarantined")
	}
	m.Stats.InterpInsts += opt.QuarantineBackoff + 1 // old span: not enough now
	if !m.pageQuarantined(page) {
		t.Fatal("doubled backoff released after the original span")
	}
	m.Stats.InterpInsts += opt.QuarantineBackoff + 1
	if m.pageQuarantined(page) {
		t.Fatal("still quarantined after doubled backoff expired")
	}

	// Events outside the window do not accumulate.
	other := uint32(0x5000)
	m.noteTrouble(other)
	m.Stats.InterpInsts += opt.QuarantineWindow + 1
	m.noteTrouble(other)
	m.Stats.InterpInsts += opt.QuarantineWindow + 1
	m.noteTrouble(other)
	if m.pageQuarantined(other) {
		t.Fatal("stale events engaged a quarantine")
	}
}

// chainLoopSrc is a counted loop confined to one translation page; its
// back edge targets an existing group entry, so the exit edge is
// chainable and the loop iterations follow the chain.
const chainLoopSrc = `
_start:	li r1, 0
	li r2, 200
loop:	addi r1, r1, 1
	slwi r3, r1, 2
	srwi r3, r3, 2
	subi r2, r2, 1
	cmpwi r2, 0
	bgt loop
	li r0, 0
	sc
`

// runChainLoop assembles chainLoopSrc and runs it under the VMM with the
// given options, returning the machine and the loop page's base.
func runChainLoop(t *testing.T, opt Options) (*Machine, uint32) {
	t.Helper()
	prog, err := asm.Assemble(chainLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 20)
	_ = prog.Load(mm)
	ma := New(mm, &interp.Env{}, opt)
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatalf("vmm: %v", err)
	}
	if ma.St.GPR[1] != 200 {
		t.Fatalf("r1 = %d, want 200", ma.St.GPR[1])
	}
	return ma, prog.Entry() &^ (ma.Trans.Opt.PageSize - 1)
}

// TestChainPatchAndFollow proves the happy path: a hot intra-page loop
// gets its exit edge patched once and then bypasses VMM dispatch on
// every iteration, without changing the architected result.
func TestChainPatchAndFollow(t *testing.T) {
	ma, base := runChainLoop(t, DefaultOptions())
	if ma.Stats.ChainPatches == 0 {
		t.Fatal("no exit edges were chained")
	}
	if ma.Stats.ChainFollows == 0 {
		t.Fatal("chained edges were never followed")
	}
	pt := ma.pages[base]
	if pt == nil {
		t.Fatal("loop page not translated")
	}
	if pt.ChainCount() == 0 {
		t.Fatal("translated page reports no live chains")
	}
	// Explicit invalidation (the path shared by SMC, cast-out, quarantine
	// and adaptive retranslation) severs every link on the page.
	ma.InvalidatePage(base)
	if got := pt.ChainCount(); got != 0 {
		t.Fatalf("ChainCount after invalidate = %d, want 0", got)
	}
}

// TestChainTeardownSMC stores into a chained page mid-run: the SMC drain
// must sever the chains and retranslate, with output identical to the
// reference interpreter.
func TestChainTeardownSMC(t *testing.T) {
	src := `
_start:	li r1, 0
	li r2, 20
loop:	bl work
	subi r2, r2, 1
	cmpwi r2, 0
	bgt loop
	li r0, 0
	sc

	.org 0x12000     # the patched page: a chainable loop + self-patch
work:	li r4, 30
inner:	addi r1, r1, 1   # hot intra-page loop: its exit edge chains
	subi r4, r4, 1
	cmpwi r4, 0
	bgt inner
	lis r5, tgt@ha
	addi r5, r5, tgt@l
	lwz r6, 0(r5)
	addi r6, r6, 1   # bump the addi immediate: self-modifies this page
	stw r6, 0(r5)
tgt:	addi r1, r1, 10
	blr
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	m1 := mem.New(1 << 20)
	_ = prog.Load(m1)
	ip := interp.New(m1, &interp.Env{}, prog.Entry())
	if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
		t.Fatalf("interp: %v", err)
	}

	m2 := mem.New(1 << 20)
	_ = prog.Load(m2)
	ma := New(m2, &interp.Env{}, DefaultOptions())
	ma.Start(prog.Entry(), 0)

	// Step to a precise boundary where the patched page is translated and
	// chained, and hold on to its translation object.
	var pt *core.PageTranslation
	const patchedBase = 0x12000
	for i := 0; i < 10_000; i++ {
		halted, err := ma.StepGroup()
		if err != nil {
			t.Fatalf("vmm: %v", err)
		}
		if pt == nil && ma.Stats.ChainPatches > 0 {
			pt = ma.pages[patchedBase]
		}
		if halted {
			break
		}
	}
	if ip.St.GPR[1] != ma.St.GPR[1] {
		t.Fatalf("r1: vmm=%d interp=%d (stale chain followed?)", ma.St.GPR[1], ip.St.GPR[1])
	}
	if !m1.EqualData(m2) {
		t.Fatal("memory images differ")
	}
	if ma.Stats.BaseInsts() != ip.InstCount {
		t.Fatalf("instruction counts differ: vmm=%d interp=%d", ma.Stats.BaseInsts(), ip.InstCount)
	}
	if ma.Stats.ChainPatches == 0 || ma.Stats.ChainFollows == 0 {
		t.Fatalf("chaining never engaged (patches=%d follows=%d)",
			ma.Stats.ChainPatches, ma.Stats.ChainFollows)
	}
	if ma.Stats.SMCInvalidations == 0 {
		t.Fatal("expected code-modification invalidations")
	}
	if pt != nil && pt.ChainCount() != 0 {
		t.Fatalf("invalidated translation still holds %d chains", pt.ChainCount())
	}
}

// TestChainTeardownCastOut runs chained loops on two pages with a
// one-page translation pool: translating the second page casts out the
// first, which must sever its links while the program still reaches the
// right answer through plain VMM dispatch.
func TestChainTeardownCastOut(t *testing.T) {
	src := `
_start:	li r1, 0
	li r2, 200
loop:	addi r1, r1, 1
	slwi r3, r1, 2
	srwi r3, r3, 2
	subi r2, r2, 1
	cmpwi r2, 0
	bgt loop
	b page2

	.org 0x12000
page2:	li r4, 100
loop2:	addi r1, r1, 2
	subi r4, r4, 1
	cmpwi r4, 0
	bgt loop2
	li r0, 0
	sc
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 20)
	_ = prog.Load(mm)
	opt := DefaultOptions()
	opt.MaxPages = 1
	ma := New(mm, &interp.Env{}, opt)
	ma.Start(prog.Entry(), 0)

	// Step until the first page is translated and chained, holding on to
	// its translation, then run to completion.
	var pt *core.PageTranslation
	base := prog.Entry() &^ (opt.Trans.PageSize - 1)
	for i := 0; i < 10_000; i++ {
		halted, err := ma.StepGroup()
		if err != nil {
			t.Fatalf("vmm: %v", err)
		}
		if pt == nil && ma.Stats.ChainPatches > 0 {
			pt = ma.pages[base]
		}
		if halted {
			break
		}
	}
	if ma.St.GPR[1] != 400 {
		t.Fatalf("r1 = %d, want 400", ma.St.GPR[1])
	}
	if pt == nil || ma.Stats.ChainPatches == 0 {
		t.Fatal("first page never chained")
	}
	if ma.Stats.CastOuts == 0 {
		t.Fatal("expected a cast-out with MaxPages=1")
	}
	if got := pt.ChainCount(); got != 0 {
		t.Fatalf("ChainCount after cast-out = %d, want 0", got)
	}
}

// TestChainTeardownQuarantine engages the quarantine on a chained page
// and checks the invalidation severed its links.
func TestChainTeardownQuarantine(t *testing.T) {
	opt := DefaultOptions()
	opt.QuarantineThreshold = 3
	opt.QuarantineWindow = 1 << 30
	opt.QuarantineBackoff = 1000
	ma, base := runChainLoop(t, opt)
	pt := ma.pages[base]
	if pt == nil || pt.ChainCount() == 0 {
		t.Fatal("precondition: chained translation present")
	}
	for i := 0; i < opt.QuarantineThreshold; i++ {
		ma.noteTrouble(base)
	}
	if ma.Stats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", ma.Stats.Quarantines)
	}
	if got := pt.ChainCount(); got != 0 {
		t.Fatalf("ChainCount after quarantine = %d, want 0", got)
	}
}

// chainHookSrc is chainLoopSrc with a store and a load in the loop body,
// so an executor fault hook is consulted on every iteration.
const chainHookSrc = `
_start:	li r1, 0
	li r2, 200
	lis r4, 8
loop:	addi r1, r1, 1
	stw r1, 0(r4)
	lwz r3, 0(r4)
	subi r2, r2, 1
	cmpwi r2, 0
	bgt loop
	li r0, 0
	sc
`

// TestChainingWithHooks: installing an observation hook leaves chaining
// on and changes nothing the machine does. Each hook must see calls, and
// the run must end with the Stats (chain patches and follows included)
// and the architected state of a run with no hook.
func TestChainingWithHooks(t *testing.T) {
	prog, err := asm.Assemble(chainHookSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(install func(*Machine)) *Machine {
		mm := mem.New(1 << 20)
		if err := prog.Load(mm); err != nil {
			t.Fatal(err)
		}
		ma := New(mm, &interp.Env{}, DefaultOptions())
		install(ma)
		if err := ma.Run(prog.Entry(), 0); err != nil {
			t.Fatal(err)
		}
		return ma
	}
	bare := run(func(*Machine) {})
	if bare.Stats.ChainFollows == 0 || bare.St.GPR[3] != 200 {
		t.Fatalf("unhooked run: follows=%d r3=%d, want follows > 0 and r3 = 200",
			bare.Stats.ChainFollows, bare.St.GPR[3])
	}
	calls := 0
	hooks := []struct {
		name    string
		install func(*Machine)
	}{
		{"OnBoundary", func(m *Machine) { m.OnBoundary = func(uint64) { calls++ } }},
		{"OnGroupStart", func(m *Machine) { m.OnGroupStart = func(uint32) { calls++ } }},
		{"FaultHook", func(m *Machine) {
			m.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault { calls++; return nil }
		}},
	}
	for _, h := range hooks {
		calls = 0
		ma := run(h.install)
		if calls == 0 {
			t.Errorf("%s: hook never called", h.name)
		}
		if !reflect.DeepEqual(ma.Stats, bare.Stats) {
			t.Errorf("%s: stats differ from the unhooked run\nhooked   %+v\nunhooked %+v", h.name, ma.Stats, bare.Stats)
		}
		if !reflect.DeepEqual(ma.St, bare.St) {
			t.Errorf("%s: final state differs from the unhooked run", h.name)
		}
	}
}

// TestSMCThrashWithCastOut is the pathological interplay case: a loop on
// one page repeatedly patches code on another page while the translated
// page pool holds just one page, so every iteration both casts out a
// translation and invalidates the patched one. The machine must (a)
// never execute a stale group — the accumulated result proves it — and
// (b) degrade the thrashing page to interpret-only quarantine instead of
// retranslating it forever, then release it again.
func TestSMCThrashWithCastOut(t *testing.T) {
	src := `
_start:	li r31, 0
	li r30, 30        # call the self-patching function 30 times
again:	bl dopatch
	subi r30, r30, 1
	cmpwi r30, 0
	bgt again
	li r0, 0
	sc

	.org 0x12000      # a different 4K translation page
dopatch:
	lis r5, patch@ha
	addi r5, r5, patch@l
	lwz r6, 0(r5)     # current instruction word
	addi r6, r6, 1    # bump the addi immediate
	stw r6, 0(r5)     # self-modify this very page while it executes
patch:	addi r31, r31, 100   # immediate grows 101, 102, ...
	blr
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	m1 := mem.New(1 << 20)
	_ = prog.Load(m1)
	ip := interp.New(m1, &interp.Env{}, prog.Entry())
	if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
		t.Fatalf("interp: %v", err)
	}

	opt := DefaultOptions()
	opt.MaxPages = 1
	opt.QuarantineThreshold = 3
	opt.QuarantineWindow = 10_000
	opt.QuarantineBackoff = 50
	m2 := mem.New(1 << 20)
	_ = prog.Load(m2)
	ma := New(m2, &interp.Env{}, opt)
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatalf("vmm: %v", err)
	}

	// Oracle: sum of 101..130.
	const want = 30*100 + 30*31/2
	if ip.St.GPR[31] != want {
		t.Fatalf("interp r31 = %d, want %d", ip.St.GPR[31], want)
	}
	if ma.St.GPR[31] != want {
		t.Fatalf("vmm r31 = %d, want %d (stale translation executed?)", ma.St.GPR[31], want)
	}
	if !m1.EqualData(m2) {
		t.Fatal("memory images differ")
	}
	if got, w := ma.Stats.BaseInsts(), ip.InstCount; got != w {
		t.Fatalf("instruction counts differ: vmm=%d interp=%d", got, w)
	}
	if ma.Stats.CastOuts == 0 {
		t.Fatal("expected cast-outs with MaxPages=1")
	}
	if ma.Stats.SMCInvalidations == 0 {
		t.Fatal("expected code-modification invalidations")
	}
	if ma.Stats.Quarantines == 0 {
		t.Fatal("thrashing page never quarantined")
	}
	if ma.Stats.QuarantineReleases == 0 {
		t.Fatal("quarantine never released")
	}
}
