package vmm

// Tests for the promotion-time profiler (tier2Profile): it interprets ahead
// on a scratch view of the live guest image, so it must leave no trace in
// memory or in the code-modification machinery and must not copy the
// image.

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
)

// TestTier2ProfileLeavesNoTrace promotes a hot loop whose profiled path
// runs past the loop and stores into the loop's own translated, read-only
// code page before halting. The profile's stores must be rolled back
// without raising a code-modification interrupt, and the promotion must
// not allocate anything like a copy of the 8 MiB image.
func TestTier2ProfileLeavesNoTrace(t *testing.T) {
	// r1 points at the code page itself; the final store lands 0x100 past
	// the start of the program, inside the same protection unit.
	src := `
_start:	lis r1, _start@ha
	addi r1, r1, _start@l
	li r5, 7
	li r12, 50
	mtctr r12
hot:	addi r5, r5, 3
	bdnz hot
	stw r5, 0x100(r1)
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := defOpt()
	opt.Tier2 = true
	opt.Tier2Threshold = 1 << 30 // the test promotes by hand
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()

	ma.Start(prog.Entry(), 1_000_000)
	for i := 0; i < 3; i++ {
		if halted, err := ma.StepGroup(); err != nil || halted {
			t.Fatalf("step %d: halted=%v err=%v", i, halted, err)
		}
	}
	base := ma.St.PC &^ (ma.Trans.Opt.PageSize - 1)
	if ma.St.CTR == 0 || base != prog.Entry()&^(ma.Trans.Opt.PageSize-1) {
		t.Fatalf("machine left the hot loop early (pc %#x, ctr %d)", ma.St.PC, ma.St.CTR)
	}
	if !mm.ReadOnly(prog.Entry() + 0x100) {
		t.Fatal("the code page is not protected; the test exercises nothing")
	}

	digest := sha256.Sum256(mm.Bytes(0, mm.Size()))
	smc := ma.Stats.SMCInvalidations
	profiled := ma.Stats.Tier2ProfileInsts
	at := ma.Stats.BaseInsts()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ma.promoteSync(ma.page(base), ma.St.PC)
	runtime.ReadMemStats(&after)

	if ma.Stats.Tier2Promotions != 1 {
		t.Fatalf("promotion did not install (promotions=%d)", ma.Stats.Tier2Promotions)
	}
	if got := sha256.Sum256(mm.Bytes(0, mm.Size())); got != digest {
		t.Fatalf("profiling changed guest memory (digest %x -> %x)", digest[:6], got[:6])
	}
	if len(ma.dirty) != 0 {
		t.Fatalf("profiling marked pages dirty: %v", ma.dirty)
	}
	if ma.Stats.SMCInvalidations != smc {
		t.Fatalf("profiling invalidated translations: %d -> %d", smc, ma.Stats.SMCInvalidations)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("one promotion allocated %d KiB; the profiler must not copy guest memory", alloc>>10)
	}

	// The real run then takes the same path, so the profile interpreted
	// exactly the rest of the program, code-page store included.
	if err := ma.Run(ma.St.PC, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got, want := ma.Stats.Tier2ProfileInsts-profiled, ma.Stats.BaseInsts()-at; got != want {
		t.Fatalf("profile interpreted %d insts, the rest of the run took %d", got, want)
	}
}
