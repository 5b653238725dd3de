package vmm

import (
	"errors"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
)

// impreciseOpt returns options with deferred (path-exit) commits, the
// traditional-compiler execution model.
func impreciseOpt() Options {
	opt := DefaultOptions()
	opt.Trans.PreciseExceptions = false
	return opt
}

// TestImpreciseAliasRecovery: heavy pointer aliasing under deferred
// commits must still compute exact results via the group checkpoint +
// store journal (the Appendix B stand-in).
func TestImpreciseAliasRecovery(t *testing.T) {
	_, ma := runBoth(t, `
_start:	lis r1, 0x8
	mr r2, r1          # alias
	li r3, 0
	li r4, 150
	mtctr r4
	li r9, 0
loop:	addi r3, r3, 1
	stw r3, 0(r1)
	lwz r7, 0(r2)      # aliases the store through the other pointer
	add r9, r9, r7
	stw r9, 4(r1)
	lwz r8, 4(r2)
	add r10, r10, r8
	bdnz loop
`+halt, nil, impreciseOpt())
	if ma.Stats.AliasRecoveries == 0 {
		t.Log("note: no alias recoveries were needed (forwarding caught them all)")
	}
}

// TestImpreciseJournalUndo: a fault after several stores in one group must
// leave memory exactly as the group entry saw it, so interpretation
// recomputes the stores identically.
func TestImpreciseFaultRecovery(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	lis r5, 0x9
	li r3, 0
	li r4, 40
	mtctr r4
loop:	addi r3, r3, 1
	stw r3, 0(r1)      # store before the fault point
	cmpwi r3, 25
	bne ok
	lwz r9, 0(r5)      # faults on iteration 25
ok:	stw r3, 4(r1)
	bdnz loop
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	m1 := mem.New(1 << 20)
	_ = prog.Load(m1)
	m1.InjectFault(0x90000, false)
	ip := interp.New(m1, &interp.Env{}, prog.Entry())
	errI := ip.Run(0)
	var f1 *mem.Fault
	if !errors.As(errI, &f1) {
		t.Fatalf("interp: %v", errI)
	}

	m2 := mem.New(1 << 20)
	_ = prog.Load(m2)
	m2.InjectFault(0x90000, false)
	ma := New(m2, &interp.Env{}, impreciseOpt())
	errV := ma.Run(prog.Entry(), 0)
	var f2 *mem.Fault
	if !errors.As(errV, &f2) {
		t.Fatalf("vmm: %v", errV)
	}
	// The fault is still delivered precisely: interpretation from the
	// group checkpoint reaches the same instruction with the same state.
	if ip.St.PC != ma.St.PC || f1.Addr != f2.Addr {
		t.Fatalf("fault point: interp pc=%#x addr=%#x, vmm pc=%#x addr=%#x",
			ip.St.PC, f1.Addr, ma.St.PC, f2.Addr)
	}
	st1, st2 := ip.St, ma.St
	st2.SRR0, st2.SRR1, st2.DAR, st2.DSISR = st1.SRR0, st1.SRR1, st1.DAR, st1.DSISR
	if d := st1.Diff(&st2); d != "" {
		t.Fatalf("state at fault: %s", d)
	}
	if !m1.EqualData(m2) {
		t.Fatalf("memory at fault differs at %#x", m1.FirstDifference(m2))
	}
	if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
		t.Fatalf("insts before fault: %d vs %d", got, want)
	}
}

// TestImpreciseSelfModifyingCode: code modification in imprecise mode also
// recovers through the checkpoint.
func TestImpreciseSMC(t *testing.T) {
	runBoth(t, `
_start:	li r31, 0
	li r30, 4
again:	lis r5, patch2@ha
	addi r5, r5, patch2@l
	lwz r6, 0(r5)
	addi r6, r6, 1
	stw r6, 0(r5)
patch2:	addi r31, r31, 50
	subi r30, r30, 1
	cmpwi r30, 0
	bgt again
`+halt, nil, impreciseOpt())
}

// TestImpreciseEquivalenceOnWorkloadShapes reruns the heavier equivalence
// programs under deferred commits.
func TestImpreciseEquivalence(t *testing.T) {
	srcs := []string{`
_start:	lis r1, 0x8
	li r3, 7
	bl fib2
	b done2
fib2:	cmpwi r3, 2
	bge rec2
	blr
rec2:	mflr r7
	stwu r7, -12(r1)
	stw r3, 4(r1)
	addi r3, r3, -1
	bl fib2
	stw r3, 8(r1)
	lwz r3, 4(r1)
	addi r3, r3, -2
	bl fib2
	lwz r4, 8(r1)
	add r3, r3, r4
	lwz r7, 0(r1)
	addi r1, r1, 12
	mtlr r7
	blr
done2:`, `
_start:	lis r3, 0xffff
	ori r3, r3, 0xffff
	li r4, 0
	li r5, 30
	mtctr r5
cl:	addc r6, r3, r3
	adde r4, r4, r4
	bdnz cl`,
	}
	for i, src := range srcs {
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			runBoth(t, src+halt, nil, impreciseOpt())
		})
	}
}

// TestAdaptiveSpeculation: with the adaptive throttle on, a hot aliasing
// page is retranslated without load speculation after a few recoveries,
// and results stay exact.
func TestAdaptiveSpeculation(t *testing.T) {
	src := `
_start:	lis r1, 0x8
	mr r2, r1
	li r3, 0
	li r4, 300
	mtctr r4
	li r9, 0
lp:	addi r3, r3, 1
	stw r3, 0(r1)
	lwz r7, 0(r2)
	add r9, r9, r7
	bdnz lp
` + halt
	opt := defOpt()
	opt.AdaptiveSpeculation = true
	_, ma := runBoth(t, src, nil, opt)
	if ma.Stats.AliasRetranslations == 0 {
		t.Fatal("adaptive retranslation never fired")
	}
	if ma.Stats.AliasRecoveries > 3*aliasRetranslateThreshold {
		t.Fatalf("throttle ineffective: %d recoveries", ma.Stats.AliasRecoveries)
	}

	// Without the throttle (the paper's own implementation), aliases keep
	// recurring.
	off := defOpt()
	_, ma2 := runBoth(t, src, nil, off)
	if ma2.Stats.AliasRecoveries <= ma.Stats.AliasRecoveries {
		t.Fatalf("expected more aliases without the throttle: %d vs %d",
			ma2.Stats.AliasRecoveries, ma.Stats.AliasRecoveries)
	}
	if ma2.Stats.AliasRetranslations != 0 {
		t.Fatal("throttle fired while disabled")
	}

	// The alias history outlives the page's translations: invalidated
	// after every recovery, the page still reaches the threshold.
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(1 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma3 := New(mm, &interp.Env{}, opt)
	ma3.Start(prog.Entry(), 1_000_000)
	for seen := uint64(0); ; {
		halted, err := ma3.StepGroup()
		if err != nil {
			t.Fatal(err)
		}
		if halted {
			break
		}
		if ma3.Stats.AliasRecoveries > seen {
			seen = ma3.Stats.AliasRecoveries
			ma3.InvalidatePage(prog.Entry())
		}
	}
	if ma3.Stats.AliasRetranslations == 0 {
		t.Fatalf("invalidations reset the alias history (%d recoveries, no retranslation)", ma3.Stats.AliasRecoveries)
	}
}
