package vmm

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/workload"
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

// livePT returns the live tier-1 translation of the page at base (nil:
// none).
func livePT(m *Machine, base uint32) *core.PageTranslation {
	if p := m.liveAt(base); p != nil {
		return p.pt
	}
	return nil
}

// recency lists the machine's recency order, least recently used first,
// and fails the test if the back links or lruTail disagree with it.
func recency(t *testing.T, m *Machine) []uint32 {
	t.Helper()
	var order []uint32
	var prev *page
	for p := m.lruHead; p != nil; p = p.next {
		if p.prev != prev {
			t.Fatalf("page %#x: back link disagrees with the order %v", p.base, order)
		}
		order = append(order, p.base)
		prev = p
	}
	if m.lruTail != prev {
		t.Fatalf("lruTail is not the last page of the order %v", order)
	}
	return order
}

// TestPageLRU pins the order semantics of the machine's recency list, the
// links on the page records that cast-out takes its victim from.
func TestPageLRU(t *testing.T) {
	m := New(mem.New(1<<16), &interp.Env{}, DefaultOptions())
	want := func(what string, order ...uint32) {
		t.Helper()
		if got := recency(t, m); !slices.Equal(got, order) {
			t.Fatalf("%s: order %v, want %v", what, got, order)
		}
	}
	want("new machine")
	if m.lruHead != nil {
		t.Fatal("empty order has a victim")
	}
	m.touch(m.page(0x1000))
	m.touch(m.page(0x2000))
	m.touch(m.page(0x3000))
	want("touch 1, 2, 3", 0x1000, 0x2000, 0x3000)
	m.touch(m.page(0x1000)) // 1 becomes most recent; 2 is now the victim
	want("touch 1", 0x2000, 0x3000, 0x1000)
	m.touch(m.page(0x1000)) // touching the most recent page changes nothing
	want("touch 1 again", 0x2000, 0x3000, 0x1000)
	m.unlink(m.page(0x2000))
	want("unlink 2", 0x3000, 0x1000)
	m.unlink(m.page(0x2000)) // unlinking an absent page is a no-op
	want("unlink 2 again", 0x3000, 0x1000)
	m.unlink(m.page(0x1000))
	want("unlink the most recent", 0x3000)
	m.unlink(m.page(0x3000))
	want("unlink everything")
	if m.lruHead != nil || m.lruTail != nil {
		t.Fatal("order not empty after unlinking everything")
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
	pt := livePT(ma, base)
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
	// It also gives the page up: out of the recency order cast-out picks
	// victims from, and no longer write-protected.
	if order := recency(t, ma); slices.Contains(order, base) {
		t.Fatalf("invalidated page %#x still in the recency order %v", base, order)
	}
	if ma.Mem.ReadOnly(base) {
		t.Fatal("invalidated page is still write-protected")
	}
}

// hopLoopSrc is a counted loop on one page whose body makes a system
// call (getc with no input, so r3 = -1) and an indirect call and return
// through a table word the translator cannot fold, so every iteration
// takes three same-page exits that hop: the sc's continuation, the bctrl
// to callee and callee's blr. It ends with r1 = 1200.
const hopLoopSrc = `
_start:	li r1, 0
	li r2, 400
	lis r8, tab@ha
	addi r8, r8, tab@l
loop:	addi r1, r1, 1
	li r0, 2
	sc
	lwz r7, 0(r8)
	mtctr r7
	bctrl
	subi r2, r2, 1
	cmpwi r2, 0
	bgt loop
	li r0, 0
	sc
callee:	addi r1, r1, 2
	blr

	.org 0x14000
tab:	.word callee
`

// deadChains checks the invalidated translations in pts, every one but
// the page's live translation: no leaf of a destroyed translation may keep
// a Chain, the system-call and indirect leaves included.
func deadChains(t *testing.T, ma *Machine, pts []*core.PageTranslation) {
	t.Helper()
	for _, pt := range pts {
		if livePT(ma, pt.Base) == pt {
			continue
		}
		if got := pt.ChainCount(); got != 0 {
			t.Errorf("invalidated translation of %#x still holds %d chains", pt.Base, got)
		}
	}
}

// TestChainTeardownSMC stores into a chained page mid-run: the SMC drain
// must sever the chains, the cached groups of the page's system-call and
// indirect leaves included, and retranslate, with output identical to the
// reference interpreter. Each retranslation's leaves look their groups up
// afresh and cache them again.
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

	.org 0x12000     # the patched page: chainable loops + self-patch
work:	li r4, 30
inner:	addi r1, r1, 1   # hot intra-page loop: its exit edge chains
	subi r4, r4, 1
	cmpwi r4, 0
	bgt inner
	li r4, 10
	lis r8, tab@ha
	addi r8, r8, tab@l
	mflr r9
calls:	li r0, 2         # getc: a same-page system call hops
	sc
	lwz r7, 0(r8)    # an indirect call and return within the page hop too
	mtctr r7
	bctrl
	subi r4, r4, 1
	cmpwi r4, 0
	bgt calls
	mtlr r9
	lis r5, tgt@ha
	addi r5, r5, tgt@l
	lwz r6, 0(r5)
	addi r6, r6, 1   # bump the addi immediate: self-modifies this page
	stw r6, 0(r5)
tgt:	addi r1, r1, 10
	blr
callee:	addi r1, r1, 2
	blr

	.org 0x14000
tab:	.word callee
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

	// At every StepGroup return, note the patched page's translation if
	// both its entry exits and its system-call and indirect leaves are
	// chained: each call of work runs on a fresh translation, invalidated
	// by the previous call's store.
	var pts []*core.PageTranslation
	const patchedBase = 0x12000
	for i := 0; i < 10_000; i++ {
		halted, err := ma.StepGroup()
		if err != nil {
			t.Fatalf("vmm: %v", err)
		}
		if pt := livePT(ma, patchedBase); bothChained(pt) && !slices.Contains(pts, pt) {
			pts = append(pts, pt)
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
	if len(pts) < 2 {
		t.Fatalf("%d translations of the patched page were chained, want one per retranslation", len(pts))
	}
	deadChains(t, ma, pts)
}

// bothChained reports whether pt holds chained entry exits as well as
// system-call or indirect leaves that cache a group.
func bothChained(pt *core.PageTranslation) bool {
	hops := hopChains(pt)
	return hops > 0 && pt.ChainCount() > hops
}

// TestChainTeardownCastOut runs chained loops on two pages with a
// one-page translation pool: translating either page casts out the other,
// which must sever its links, the system-call and indirect leaves' cached
// groups included, while the program still reaches the right answer
// through plain VMM dispatch. A page translated again looks its groups up
// afresh. A second run invalidates the page under a hop, at the in-loop
// dispatch itself: the lookup then builds a new translation, and the
// dead leaf the hop left from must not be refilled.
func TestChainTeardownCastOut(t *testing.T) {
	src := `
_start:	li r1, 0
	li r2, 4         # four rounds, each casting the other page out
	lis r8, tab@ha
	addi r8, r8, tab@l
round:	li r5, 50
spin:	addi r1, r1, 1   # a loop whose entry exit chains
	subi r5, r5, 1
	cmpwi r5, 0
	bgt spin
	li r5, 50
loop:	addi r1, r1, 1
	li r0, 2         # getc: a same-page system call hops
	sc
	lwz r7, 0(r8)    # an indirect call and return within the page hop too
	mtctr r7
	bctrl
	subi r5, r5, 1
	cmpwi r5, 0
	bgt loop
	bl page2
	subi r2, r2, 1
	cmpwi r2, 0
	bgt round
	li r0, 0
	sc
callee:	addi r1, r1, 2
	blr

	.org 0x12000
page2:	li r4, 100
loop2:	addi r1, r1, 2
	subi r4, r4, 1
	cmpwi r4, 0
	bgt loop2
	blr

	.org 0x14000
tab:	.word callee
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

	// Step to the halt, noting each translation of the first page whose
	// entry exits and system-call and indirect leaves are chained.
	var pts []*core.PageTranslation
	base := prog.Entry() &^ (opt.Trans.PageSize - 1)
	for i := 0; i < 10_000; i++ {
		halted, err := ma.StepGroup()
		if err != nil {
			t.Fatalf("vmm: %v", err)
		}
		if pt := livePT(ma, base); bothChained(pt) && !slices.Contains(pts, pt) {
			pts = append(pts, pt)
		}
		if halted {
			break
		}
	}
	if ma.St.GPR[1] != 1600 {
		t.Fatalf("r1 = %d, want 1600", ma.St.GPR[1])
	}
	if ma.Stats.ChainPatches == 0 {
		t.Fatal("first page never chained")
	}
	if ma.Stats.CastOuts == 0 {
		t.Fatal("expected a cast-out with MaxPages=1")
	}
	if len(pts) < 2 {
		t.Fatalf("%d translations of the first page were chained, want one per round", len(pts))
	}
	deadChains(t, ma, pts)

	// Invalidate the dispatch's page at every third dispatch, in-loop ones
	// included, and keep every translation the machine installs.
	prog, err = asm.Assemble(hopLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	mm = mem.New(1 << 20)
	_ = prog.Load(mm)
	ma = New(mm, &interp.Env{}, DefaultOptions())
	pts = pts[:0]
	dispatches := 0
	ma.Observe(hookObserver{
		dispatch: func(pc uint32) {
			if dispatches++; dispatches%3 == 0 {
				ma.InvalidatePage(pc)
			}
		},
		translated: func(pt *core.PageTranslation) { pts = append(pts, pt) },
	})
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatal(err)
	}
	if ma.St.GPR[1] != 1200 {
		t.Fatalf("under churn: r1 = %d, want 1200", ma.St.GPR[1])
	}
	if len(pts) < 10 {
		t.Fatalf("under churn: %d translations, want the page rebuilt again and again", len(pts))
	}
	deadChains(t, ma, pts)
}

// hookObserver runs its functions at dispatch starts and installed
// translations (nil: not observed).
type hookObserver struct {
	NopObserver
	dispatch   func(pc uint32)
	translated func(pt *core.PageTranslation)
}

func (o hookObserver) DispatchStart(pc uint32) {
	if o.dispatch != nil {
		o.dispatch(pc)
	}
}

func (o hookObserver) Translated(pt *core.PageTranslation, _ core.Stats, _ AsyncLatency) {
	if o.translated != nil {
		o.translated(pt)
	}
}

// TestChainTeardownQuarantine engages the quarantine on a chained page
// and checks the invalidation severed its links. A second run engages it
// at a hop's dispatch, once the page's system-call and indirect leaves
// cache groups: the dead translation keeps none, and when the quarantine
// is released the page is translated again and its leaves look their
// groups up afresh.
func TestChainTeardownQuarantine(t *testing.T) {
	opt := DefaultOptions()
	opt.QuarantineThreshold = 3
	opt.QuarantineWindow = 1 << 30
	opt.QuarantineBackoff = 1000
	ma, base := runChainLoop(t, opt)
	pt := livePT(ma, base)
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

	prog, err := asm.Assemble(hopLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 20)
	_ = prog.Load(mm)
	ma = New(mm, &interp.Env{}, opt)
	base = prog.Entry() &^ (opt.Trans.PageSize - 1)
	var quarantined *core.PageTranslation
	ma.Observe(hookObserver{dispatch: func(uint32) {
		if pt := livePT(ma, base); quarantined == nil && hopChains(pt) > 0 {
			quarantined = pt
			for i := 0; i < opt.QuarantineThreshold; i++ {
				ma.noteTrouble(base)
			}
		}
	}})
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatal(err)
	}
	if ma.St.GPR[1] != 1200 {
		t.Fatalf("r1 = %d, want 1200", ma.St.GPR[1])
	}
	if quarantined == nil || ma.Stats.Quarantines != 1 || ma.Stats.QuarantineReleases != 1 {
		t.Fatalf("quarantine never engaged and released at a hop (quarantines %d, releases %d)",
			ma.Stats.Quarantines, ma.Stats.QuarantineReleases)
	}
	if got := quarantined.ChainCount(); got != 0 {
		t.Fatalf("quarantined translation still holds %d chains", got)
	}
	if live := livePT(ma, base); live == quarantined || hopChains(live) == 0 {
		t.Fatal("the page's translation after the release caches no hop targets")
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

// countObserver counts precise boundaries and dispatch starts.
type countObserver struct {
	NopObserver
	boundaries, dispatches *int
}

func (o countObserver) Boundary(uint64)      { *o.boundaries++ }
func (o countObserver) DispatchStart(uint32) { *o.dispatches++ }

// hopChains counts the system-call and indirect leaves of pt (nil: none)
// that cache a group in Exit.Chain: the hints hops read.
func hopChains(pt *core.PageTranslation) int {
	n := 0
	if pt == nil {
		return n
	}
	for _, g := range pt.Groups {
		for _, v := range g.VLIWs {
			v.Walk(func(nd *vliw.Node) {
				if k := nd.Exit.Kind; nd.Exit.Chain != nil && (k == vliw.ExitSyscall || k == vliw.ExitIndirect) {
					n++
				}
			})
		}
	}
	return n
}

// TestChainingWithHooks: installing an observer or an injection hook
// leaves chaining and hops on and changes nothing the machine does. Each
// hook must see calls, and the run must end with the Stats (chain patches
// and follows included) and the architected state of a run with neither.
// Besides a chained loop it runs wc, one system call per input byte, and
// gcc, the suite's most indirect-branch-heavy program: in both, most
// dispatches stay in the run loop (hops), and system-call and indirect
// leaves end the run holding the groups they hop to.
func TestChainingWithHooks(t *testing.T) {
	loop, err := asm.Assemble(chainHookSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		prog *asm.Program
		in   []byte
	}{{name: "loop", prog: loop}}
	for _, name := range []string{"wc", "gcc"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			prog *asm.Program
			in   []byte
		}{name, prog, w.Input(1)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// run returns the halted machine and how often StepGroup
			// returned on the way.
			run := func(install func(*Machine)) (*Machine, int) {
				mm := mem.New(8 << 20)
				if err := c.prog.Load(mm); err != nil {
					t.Fatal(err)
				}
				ma := New(mm, &interp.Env{In: c.in}, DefaultOptions())
				install(ma)
				ma.Start(c.prog.Entry(), 0)
				for returns := 1; ; returns++ {
					halted, err := ma.StepGroup()
					if err != nil {
						t.Fatal(err)
					}
					if halted {
						return ma, returns
					}
				}
			}
			bare, returns := run(func(*Machine) {})
			if bare.Stats.ChainFollows == 0 {
				t.Fatal("unhooked run followed no chains")
			}
			if c.name == "loop" && bare.St.GPR[3] != 200 {
				t.Fatalf("unhooked run: r3 = %d, want 200", bare.St.GPR[3])
			}
			var boundaries, dispatches, faultCalls int
			hooks := []struct {
				name    string
				install func(*Machine)
				calls   *int
			}{
				{"Observer", func(m *Machine) {
					m.Observe(countObserver{boundaries: &boundaries, dispatches: &dispatches})
				}, &boundaries},
				{"FaultHook", func(m *Machine) {
					m.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault { faultCalls++; return nil }
				}, &faultCalls},
			}
			for _, h := range hooks {
				ma, _ := run(h.install)
				if *h.calls == 0 {
					t.Errorf("%s: hook never called", h.name)
				}
				if !reflect.DeepEqual(ma.Stats, bare.Stats) {
					t.Errorf("%s: stats differ from the unhooked run\nhooked   %+v\nunhooked %+v", h.name, ma.Stats, bare.Stats)
				}
				if !reflect.DeepEqual(ma.St, bare.St) {
					t.Errorf("%s: final state differs from the unhooked run", h.name)
				}
			}
			if c.name == "loop" {
				return
			}
			// Hops are followed: every dispatch beyond one per StepGroup
			// return stayed in the run loop, and the leaves they left from
			// cache the groups they went to.
			if hops := dispatches - returns; hops <= returns {
				t.Errorf("%d dispatches for %d StepGroup returns: %d hops, want more hops than returns", dispatches, returns, hops)
			}
			chains := 0
			for _, base := range bare.TranslatedPages() {
				chains += hopChains(livePT(bare, base))
			}
			if chains == 0 {
				t.Error("no system-call or indirect leaf caches a group")
			}
			t.Logf("%d dispatches, %d returns, %d syscalls, chain patches %d, follows %d, %d cached hop targets",
				dispatches, returns, bare.Stats.Syscalls, bare.Stats.ChainPatches, bare.Stats.ChainFollows, chains)
		})
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

// TestStepGroupReturnsPerKinst pins how seldom StepGroup returns to its
// caller under DefaultOptions. A serviced system call and a same-page
// indirect exit continue in the run loop, so over the eight workloads at
// scale 4 the machine returns fewer than once per 1,000 completed base
// instructions; before they did, it returned 40.5 times (cmp 93.8, gcc
// 111.3). Only cross-page transfers, interpretation and the halt remain.
func TestStepGroupReturnsPerKinst(t *testing.T) {
	var returns, insts uint64
	for _, w := range workload.All() {
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		mm := mem.New(8 << 20)
		if err := prog.Load(mm); err != nil {
			t.Fatal(err)
		}
		ma := New(mm, &interp.Env{In: w.Input(4)}, DefaultOptions())
		ma.Start(prog.Entry(), 0)
		n := uint64(0)
		for {
			halted, err := ma.StepGroup()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			n++
			if halted {
				break
			}
		}
		t.Logf("%-8s %6.2f returns per 1,000 base instructions", w.Name, 1000*float64(n)/float64(ma.Stats.BaseInsts()))
		returns += n
		insts += ma.Stats.BaseInsts()
	}
	if per := 1000 * float64(returns) / float64(insts); per >= 1 {
		t.Errorf("StepGroup returned %.2f times per 1,000 base instructions, want under 1", per)
	} else {
		t.Logf("all      %6.2f returns per 1,000 base instructions", per)
	}
}
