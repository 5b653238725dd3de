package vmm

// Regression tests for the tier-2 policy machinery interacting with the
// rest of the VMM's page-lifecycle management: quarantine races (the
// retained tier-1 translation must never leak when quarantine fires
// around a tier-2 promotion) and the §3.5 commit-record reconstruction
// handed to fault observers at deoptimization time.

import (
	"bytes"
	"errors"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/vliw"
)

// tier2PoolInvariant asserts Tier2Pages ⊆ TranslatedPages: every page
// holding an optimizing translation (a page record's t2) must also hold
// the retained tier-1 translation it deoptimizes to (its pt).
func tier2PoolInvariant(t *testing.T, ma *Machine) {
	t.Helper()
	t1 := make(map[uint32]struct{})
	for _, b := range ma.TranslatedPages() {
		t1[b] = struct{}{}
	}
	for _, b := range ma.Tier2Pages() {
		if _, ok := t1[b]; !ok {
			t.Fatalf("tier-2 translation for page %#x has no retained tier-1 translation (pool %v)", b, ma.TranslatedPages())
		}
	}
}

// TestTier2QuarantinePoolConsistency races SMC-driven quarantine cycles
// against tier-2 promotions on the same hot page and checks, at every
// group boundary, that the translation pool stays consistent: tier-2
// translations are always shadowed by a retained tier-1 translation, and
// the pool never accumulates leaked pages across repeated
// engage/release/repromote cycles. This is the regression test for the
// invalidate() path forgetting the tier-2 shadow when quarantine fires
// mid-retranslation.
func TestTier2QuarantinePoolConsistency(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	li r5, 7
	li r6, 0
	li r12, 400
	mtctr r12
hot:	stw r5, 0(r1)
	addi r5, r5, 3
	add r6, r6, r5
	lwz r7, 0(r1)
	xor r8, r7, r6
	bdnz hot
` + halt

	for _, tc := range []struct {
		name  string
		async bool
	}{
		{"sync", false},
		{"async", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}

			opt := defOpt()
			opt.Tier2 = true
			opt.Tier2Threshold = 2
			opt.QuarantineThreshold = 2
			opt.QuarantineWindow = 100_000
			opt.QuarantineBackoff = 200
			opt.AsyncTranslate = tc.async

			mm := mem.New(1 << 20)
			if err := prog.Load(mm); err != nil {
				t.Fatal(err)
			}
			ma := New(mm, &interp.Env{}, opt)
			defer ma.Close()

			maxPool := 0
			groups := 0
			ma.Start(prog.Entry(), 10_000_000)
			for {
				halted, err := ma.StepGroup()
				if err != nil {
					t.Fatalf("machine failed: %v", err)
				}
				tier2PoolInvariant(t, ma)
				if n := len(ma.TranslatedPages()); n > maxPool {
					maxPool = n
				}
				if halted {
					break
				}
				groups++
				if groups%7 == 0 {
					// A guest store into the hot code page: invalidation at
					// the next boundary, quarantine once the trouble events
					// accumulate — racing any pending tier-2 promotion.
					ma.InjectSMC(prog.Entry())
				}
			}
			tier2PoolInvariant(t, ma)

			// The program lives on one code page; the pool must never have
			// grown past it no matter how many quarantine×tier-2 cycles ran.
			if maxPool > 1 {
				t.Fatalf("translation pool grew to %d pages for a one-page program", maxPool)
			}
			if ma.Stats.Quarantines == 0 {
				t.Fatalf("SMC storm never engaged quarantine; the race was not exercised")
			}
			if !tc.async && ma.Stats.Tier2Promotions == 0 {
				t.Fatalf("page was never promoted to tier 2; the race was not exercised")
			}

			// Architected equivalence end to end.
			rm := mem.New(1 << 20)
			if err := prog.Load(rm); err != nil {
				t.Fatal(err)
			}
			ip := interp.New(rm, &interp.Env{}, prog.Entry())
			if err := ip.Run(10_000_000); !errors.Is(err, interp.ErrHalt) {
				t.Fatalf("interpreter: %v", err)
			}
			st1, st2 := ip.St, ma.St
			st2.PC = st1.PC
			if d := st1.Diff(&st2); d != "" {
				t.Fatalf("final state differs: %s", d)
			}
			if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
				t.Fatalf("instruction counts differ: vmm=%d interp=%d", got, want)
			}
		})
	}
}

// TestTier2DeoptReconstructionState injects a storage fault into a tier-2
// translation of a loop whose architected state is a closed-form function
// of CTR, and checks that every exact §3.5 commit-record reconstruction
// names the faulting store and hands back precisely the architected state
// at the boundary before it.
func TestTier2DeoptReconstructionState(t *testing.T) {
	// Pre-loop: lis, li, li, li, mtctr — the faulting stw is entry+20.
	// At the boundary before the store in iteration i (0-based):
	//   CTR = 400-i,  r5 = 7+3i,  r6 = Σ_{k=1..i}(7+3k) = 7i+3i(i+1)/2.
	src := `
_start:	lis r1, 0x8
	li r5, 7
	li r6, 0
	li r12, 400
	mtctr r12
hot:	stw r5, 0(r1)
	addi r5, r5, 3
	add r6, r6, r5
	bdnz hot
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	storePC := prog.Entry() + 20

	opt := defOpt()
	opt.Tier2 = true
	opt.Tier2Threshold = 2

	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()

	// The store faults only under tier-2 execution, so every fault is a
	// deoptimization and the tier-1 re-execution always succeeds.
	ma.Exec.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault {
		if !write || addr != 0x80000 {
			return nil
		}
		if g := ma.CurrentGroup(); g == nil || g.TierOf() < 2 {
			return nil
		}
		ma.Stats.InjectedFaults++
		return &mem.Fault{Addr: addr, Write: write, Kind: mem.FaultInjected}
	}

	exactSeen := 0
	ma.Observe(faultObserver{fn: func(f *vliw.Fault, pc uint32) {
		g := ma.CurrentGroup()
		if g == nil || g.TierOf() < 2 {
			return
		}
		rpc, rf, exact := ma.ReconstructFault(f)
		if !exact {
			return
		}
		exactSeen++
		if rpc != storePC {
			t.Errorf("exact reconstruction named pc %#x, want the faulting store %#x", rpc, storePC)
		}
		var st ppc.State
		rf.ToState(&st)
		i := 400 - st.CTR
		if i > 400 {
			t.Fatalf("reconstructed CTR %d is outside the loop", st.CTR)
		}
		if want := 7 + 3*i; st.GPR[5] != want {
			t.Errorf("iteration %d: reconstructed r5 = %d, want %d", i, st.GPR[5], want)
		}
		if want := 7*i + 3*i*(i+1)/2; st.GPR[6] != want {
			t.Errorf("iteration %d: reconstructed r6 = %d, want %d", i, st.GPR[6], want)
		}
		if st.GPR[1] != 0x80000 {
			t.Errorf("reconstructed r1 = %#x, want 0x80000", st.GPR[1])
		}
	}})

	if err := ma.Run(prog.Entry(), 10_000_000); err != nil {
		t.Fatalf("vmm: %v", err)
	}
	if ma.Stats.Tier2Deopts == 0 {
		t.Fatalf("the injected fault never deoptimized a tier-2 group")
	}
	if exactSeen == 0 {
		t.Fatalf("no deoptimization produced an exact reconstruction (deopts=%d)", ma.Stats.Tier2Deopts)
	}

	// The injected faults were absorbed by deoptimization: the guest still
	// runs to completion byte-identical to the reference interpreter.
	rm := mem.New(1 << 20)
	if err := prog.Load(rm); err != nil {
		t.Fatal(err)
	}
	ip := interp.New(rm, &interp.Env{}, prog.Entry())
	if err := ip.Run(10_000_000); !errors.Is(err, interp.ErrHalt) {
		t.Fatalf("interpreter: %v", err)
	}
	st1, st2 := ip.St, ma.St
	st2.PC = st1.PC
	if d := st1.Diff(&st2); d != "" {
		t.Fatalf("final state differs: %s", d)
	}
	if !bytes.Equal(ma.Env.Out, ip.Env.Out) {
		t.Fatalf("output differs")
	}
	if !rm.EqualData(mm) {
		t.Fatalf("memory images differ at %#x", rm.FirstDifference(mm))
	}
}

// TestTier2MemoryCarriedRecurrence is the regression test for a tier-2
// miscompile found by FuzzTier2Lockstep (corpus 2986c43ef25b2832): a hot
// loop whose cross-iteration dependence flows through memory (stw then
// lwz of the same word, with an intervening byte store that defeats
// must-alias forwarding). The unrolled superblock hoists each iteration's
// load above that iteration's store; the load's verify must then execute
// in the bypassed store's window on every path that consumed the value —
// not just where the architected commit survives dead-commit elimination,
// where the duplicated stale loads made the one remaining verify compare
// a stale value against equally stale memory and pass.
func TestTier2MemoryCarriedRecurrence(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	lis r2, 0x9
	li r4, 1737
	li r5, -1758
	li r7, 1115
	li r8, -954
	li r12, 199
	mtctr r12
hot:	mullw. r3, r5, r8
	lwz r10, 32(r1)
	subf r9, r8, r3
	subf r7, r7, r3
	stw r9, 56(r1)
	xor r4, r9, r9
	mullw. r3, r10, r4
	xor r10, r5, r7
	stb r10, 42(r2)
	lwz r5, 56(r1)
	bdnz hot
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	opt := defOpt()
	opt.Tier2 = true
	opt.Tier2Threshold = 2

	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()

	rm := mem.New(1 << 20)
	if err := prog.Load(rm); err != nil {
		t.Fatal(err)
	}
	ref := interp.New(rm, &interp.Env{}, prog.Entry())

	ma.Start(prog.Entry(), 2_000_000)
	for {
		halted, merr := ma.StepGroup()
		if merr != nil {
			t.Fatalf("machine: %v", merr)
		}
		now := ma.Stats.BaseInsts()
		rerr := ref.RunTo(now)
		if halted {
			if !errors.Is(rerr, interp.ErrHalt) {
				t.Fatalf("machine halted at %d insts; reference did not (%v)", now, rerr)
			}
			break
		}
		if rerr != nil {
			t.Fatalf("reference stopped (%v) while machine continued to %d", rerr, now)
		}
		st1, st2 := ref.St, ma.St
		if d := st1.Diff(&st2); d != "" {
			t.Fatalf("state differs at inst %d: %s", now, d)
		}
	}
	st1, st2 := ref.St, ma.St
	st2.PC = st1.PC
	if d := st1.Diff(&st2); d != "" {
		t.Fatalf("final state differs: %s", d)
	}
	if !rm.EqualData(mm) {
		t.Fatalf("memory images differ at %#x", rm.FirstDifference(mm))
	}
	// The bypassing loads' discharged verifies must have caught the alias
	// at least once under tier-2 before the page demoted.
	if ma.Stats.Tier2Dispatches == 0 {
		t.Fatalf("loop never ran at tier 2; the bypass was not exercised")
	}
	if ma.Stats.Tier2Deopts == 0 && ma.Stats.AliasRecoveries == 0 {
		t.Fatalf("no alias was ever detected; the verify discipline was not exercised")
	}
}

// TestTier2PromotesInlineOnAsyncMachine pins that tier-2 promotion is
// inline on every machine: on an async machine the StepGroup whose
// dispatch reaches Tier2Threshold installs the tier-2 translation itself,
// and leaves nothing in flight for the worker pool. An invalidation takes
// the tier-2 translation with it, and the republished page earns its next
// promotion from zero dispatches.
func TestTier2PromotesInlineOnAsyncMachine(t *testing.T) {
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
	opt.HotThreshold = 1
	opt.Tier2 = true
	opt.Tier2Threshold = 4
	m := New(mm, &interp.Env{}, opt)
	defer m.Close()
	m.Start(prog.Entry(), spinBudget)
	stepUntil(t, m, "tier-1 translation published", func() bool {
		return m.Stats.AsyncPublishes > 0
	})
	base := prog.Entry() &^ (m.Trans.Opt.PageSize - 1)
	// promote steps to the dispatch that reaches Tier2Threshold, which must
	// be the one that promotes the page, for the promotions+1th time.
	promote := func(promotions uint64) {
		t.Helper()
		for step := 0; ; step++ {
			if step == 100 {
				t.Fatal("the page never reached the tier-2 threshold")
			}
			if m.Stats.Tier2Promotions != promotions {
				t.Fatalf("promoted after %d of %d dispatches", m.pages[base].t2st.dispatches, opt.Tier2Threshold)
			}
			if _, err := m.StepGroup(); err != nil {
				t.Fatal(err)
			}
			if p := m.pages[base]; p != nil && p.t2st.dispatches >= opt.Tier2Threshold {
				break
			}
		}
		if m.Stats.Tier2Promotions != promotions+1 || len(m.Tier2Pages()) != 1 {
			t.Fatalf("the threshold dispatch did not promote (promotions %d, tier-2 pages %v)",
				m.Stats.Tier2Promotions, m.Tier2Pages())
		}
		if p := m.InflightPages(); len(p) != 0 {
			t.Fatalf("pages still in flight after the promotion: %v", p)
		}
	}
	promote(0)
	m.InvalidatePage(base)
	if p := m.Tier2Pages(); len(p) != 0 {
		t.Fatalf("tier-2 translation outlived its page's invalidation: %v", p)
	}
	stepUntil(t, m, "tier-1 translation republished", func() bool {
		return m.Stats.AsyncPublishes > 1
	})
	promote(1)
}
