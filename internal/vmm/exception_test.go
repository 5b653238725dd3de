package vmm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
)

// faultObserver hands each recovered exception to fn.
type faultObserver struct {
	NopObserver
	fn func(f *vliw.Fault, scanPC uint32)
}

func (o faultObserver) Fault(f *vliw.Fault, scanPC uint32) { o.fn(f, scanPC) }

// faultBoth injects a data fault at addr in both engines and checks that
// the DAISY machine surfaces the identical precise exception: same fault
// address, same base PC, same architected state at the fault point.
func faultBoth(t *testing.T, src string, faultAddr uint32) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}

	m1 := mem.New(1 << 20)
	_ = prog.Load(m1)
	m1.InjectFault(faultAddr, false)
	ip := interp.New(m1, &interp.Env{}, prog.Entry())
	errI := ip.Run(10_000_000)
	var f1 *mem.Fault
	if !errors.As(errI, &f1) {
		t.Fatalf("interpreter did not fault: %v", errI)
	}

	m2 := mem.New(1 << 20)
	_ = prog.Load(m2)
	m2.InjectFault(faultAddr, false)
	ma := New(m2, &interp.Env{}, DefaultOptions())
	var scans []uint32
	ma.Observe(faultObserver{fn: func(fv *vliw.Fault, scanPC uint32) { scans = append(scans, scanPC) }})
	errV := ma.Run(prog.Entry(), 10_000_000)
	var f2 *mem.Fault
	if !errors.As(errV, &f2) {
		t.Fatalf("vmm did not fault: %v", errV)
	}

	if f1.Addr != f2.Addr || f1.Write != f2.Write {
		t.Fatalf("fault mismatch: interp %+v, vmm %+v", f1, f2)
	}
	// Precise state: PC at the faulting instruction, registers identical.
	if ip.St.PC != ma.St.PC {
		t.Fatalf("fault PC: interp %#x, vmm %#x", ip.St.PC, ma.St.PC)
	}
	st1, st2 := ip.St, ma.St
	st2.SRR0, st2.SRR1, st2.DAR, st2.DSISR = st1.SRR0, st1.SRR1, st1.DAR, st1.DSISR
	if d := st1.Diff(&st2); d != "" {
		t.Fatalf("state at fault differs: %s", d)
	}
	// Exception delivery registers (§3.3).
	if ma.St.SRR0 != ip.St.PC || ma.St.DAR != faultAddr {
		t.Fatalf("delivery: SRR0=%#x DAR=%#x, want PC=%#x addr=%#x",
			ma.St.SRR0, ma.St.DAR, ip.St.PC, faultAddr)
	}
	if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
		t.Fatalf("insts completed before fault: vmm=%d interp=%d", got, want)
	}
}

func TestPreciseLoadFault(t *testing.T) {
	faultBoth(t, `
_start:	li r3, 1
	li r4, 2
	lis r5, 0x8
	add r6, r3, r4
	lwz r7, 0(r5)     # faults
	li r8, 99         # must not commit
`+halt, 0x80000)
}

func TestPreciseStoreFault(t *testing.T) {
	faultBoth(t, `
_start:	lis r5, 0x8
	li r3, 7
	stw r3, 4(r5)     # fine
	stw r3, 0(r5)     # faults
	li r8, 99
`+halt, 0x80000)
}

func TestPreciseFaultInLoop(t *testing.T) {
	// The fault fires on iteration 33 of a hot (translated, unrolled)
	// loop: speculation must be fully discarded.
	faultBoth(t, `
_start:	lis r5, 0x8
	li r3, 0
	li r4, 100
	mtctr r4
loop:	addi r3, r3, 1
	cmpwi r3, 33
	beq bad
	stw r3, 0(r5)
	b next
bad:	lwz r9, 0x100(r5)   # faults on iteration 33
next:	bdnz loop
`+halt, 0x80100)
}

func TestPreciseFaultSpeculatedLoad(t *testing.T) {
	// The faulting load sits behind a rarely-taken branch: DAISY hoists
	// it speculatively (tagging only); the fault must surface exactly
	// when the branch is taken and not before.
	faultBoth(t, `
_start:	lis r5, 0x8
	li r3, 0
	li r4, 50
	mtctr r4
loop:	addi r3, r3, 1
	cmpwi r3, 40
	bne skip
	lwz r9, 0(r5)     # speculatively hoisted; faults when reached
	add r10, r9, r9
skip:	bdnz loop
`+halt, 0x80000)
}

// TestScanMatchesInterpreter checks the §3.5 backward/forward scan: the
// base address it recovers must equal the PC where the interpreter
// faults, using both the per-VLIW-offset and group-entry variants.
func TestScanMatchesInterpreter(t *testing.T) {
	src := `
_start:	lis r5, 0x8
	li r3, 0
	li r4, 20
	mtctr r4
loop:	addi r3, r3, 1
	andi. r6, r3, 1
	beq even
	addi r7, r7, 2
	b next
even:	cmpwi r3, 14
	bne next
	lwz r9, 0(r5)       # faults when r3 == 14
next:	bdnz loop
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m1 := mem.New(1 << 20)
	_ = prog.Load(m1)
	m1.InjectFault(0x80000, false)
	ip := interp.New(m1, &interp.Env{}, prog.Entry())
	var f *mem.Fault
	if err := ip.Run(0); !errors.As(err, &f) {
		t.Fatalf("interpreter: %v", err)
	}
	wantPC := ip.St.PC

	m2 := mem.New(1 << 20)
	_ = prog.Load(m2)
	m2.InjectFault(0x80000, false)
	ma := New(m2, &interp.Env{}, DefaultOptions())
	var scanned, scannedGroup uint32
	var okScan, okGroup bool
	ma.Observe(faultObserver{fn: func(fv *vliw.Fault, scanPC uint32) {
		scanned, okScan = ma.ScanFault(fv)
		scannedGroup, okGroup = ma.ScanFaultFromGroupEntry(fv)
	}})
	if err := ma.Run(prog.Entry(), 0); !errors.As(err, &f) {
		t.Fatalf("vmm: %v", err)
	}
	if !okScan {
		t.Fatal("per-VLIW scan did not resolve")
	}
	if scanned != wantPC {
		t.Fatalf("scan found %#x, interpreter faulted at %#x", scanned, wantPC)
	}
	if !okGroup {
		t.Fatal("group-entry scan did not resolve")
	}
	if scannedGroup != wantPC {
		t.Fatalf("group scan found %#x, want %#x", scannedGroup, wantPC)
	}
}

// TestRandomFaultScan injects faults at random loop iterations of random
// programs and cross-checks precise recovery every time.
func TestRandomFaultScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		iters := 10 + rng.Intn(40)
		when := 1 + rng.Intn(iters)
		src := fmt.Sprintf(`
_start:	lis r5, 0x8
	li r3, 0
	li r4, %d
	mtctr r4
loop:	addi r3, r3, 1
	mullw r6, r3, r3
	cmpwi r3, %d
	bne skip
	lwz r9, 0(r5)
skip:	stw r6, 4(r5)
	bdnz loop
`+halt, iters, when)
		faultBoth(t, src, 0x80000)
	}
}

// TestSelfModifyingCode: a program that patches its own instruction
// stream (an addi immediate) and re-executes it. The VMM must invalidate
// the stale translation via the read-only bit (§3.2).
func TestSelfModifyingCode(t *testing.T) {
	src := `
_start:	li r31, 0
	li r30, 5         # do the patch+run dance 5 times
again:	lis r5, patch@ha
	addi r5, r5, patch@l
	lwz r6, 0(r5)     # current instruction word
	addi r6, r6, 1    # bump the addi immediate
	stw r6, 0(r5)     # self-modify!
patch:	addi r31, r31, 100   # immediate grows 101, 102, ...
	subi r30, r30, 1
	cmpwi r30, 0
	bgt again
` + halt
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
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatalf("vmm: %v", err)
	}

	if ip.St.GPR[31] != ma.St.GPR[31] {
		t.Fatalf("self-modifying result: interp %d, vmm %d", ip.St.GPR[31], ma.St.GPR[31])
	}
	// 101+102+103+104+105
	if ma.St.GPR[31] != 515 {
		t.Fatalf("r31 = %d, want 515", ma.St.GPR[31])
	}
	if ma.Stats.SMCInvalidations == 0 {
		t.Fatal("expected code-modification invalidations")
	}
	if !m1.EqualData(m2) {
		t.Fatal("memory images differ")
	}
}

// The program of TestStraddlingStoreInvalidatesCode: a misaligned stw at
// 0x10ffe writes the top half of the instruction at 0x11000 (addi r3,r3,1
// becomes addis r3,r3,1), so the store's last bytes land in a protection
// unit and a page other than its address's.
const (
	straddleCaller = `
_start:	li r3, 0
	bl routine
	lis r5, 1
	addi r5, r5, 0xffe
	li r6, 0x3c63
	stw r6, 0(r5)       # bytes 00 00 3c 63 at 0x10ffe..0x11001
	bl routine
` + halt
	straddleRoutine = `
	.org 0x11000
routine:	addi r3, r3, 1
	blr
`
	// The unit at 0x10000 holds the caller's code: read-only.
	straddleCodeUnit = "\t.org 0x10000\n" + straddleCaller + straddleRoutine
)

// TestStraddlingStoreInvalidatesCode: the translation of the routine must
// be invalidated whether the unit the straddling store starts in holds
// code (its own read-only bit is set) or only data (it is not), at 4K and
// at small pages.
func TestStraddlingStoreInvalidatesCode(t *testing.T) {
	layouts := []struct{ name, src string }{
		{"code-unit", straddleCodeUnit},
		// The unit at 0x10000 holds only data: never read-only.
		{"data-unit", "\t.org 0x10ff8\nbuf:\t.word 0, 0\n" + straddleRoutine + "\t.org 0x12000\n" + straddleCaller},
	}
	for _, l := range layouts {
		for _, ps := range []uint32{4096, 256} {
			t.Run(fmt.Sprintf("%s/%d", l.name, ps), func(t *testing.T) {
				opt := defOpt()
				opt.Trans.PageSize = ps
				ip, ma := runBoth(t, l.src, nil, opt)
				if ip.St.GPR[3] != 0x10001 {
					t.Fatalf("interpreter r3 = %#x, want 0x10001 (1 + addis 1)", ip.St.GPR[3])
				}
				if ma.Stats.SMCInvalidations == 0 {
					t.Fatal("the patched routine's translation was never invalidated")
				}
			})
		}
	}
}

// eventLog records every machine event in order.
type eventLog struct {
	NopObserver
	events []string
}

func (l *eventLog) Event(kind telemetry.EventKind, pc uint32, arg uint64) {
	l.events = append(l.events, fmt.Sprintf("%v %#x %d", kind, pc, arg))
}

// TestSMCDrainOrder: in the code-unit layout the straddling store dirties
// both translated pages, so one drain invalidates two pages. Identical
// runs must report one event sequence, with the lower page invalidated
// first, whatever order the dirty set happens to iterate in.
func TestSMCDrainOrder(t *testing.T) {
	prog, err := asm.Assemble(straddleCodeUnit)
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for run := 0; run < 100; run++ {
		mm := mem.New(1 << 20)
		if err := prog.Load(mm); err != nil {
			t.Fatal(err)
		}
		ma := New(mm, &interp.Env{}, DefaultOptions())
		log := &eventLog{}
		ma.Observe(log)
		if err := ma.Run(prog.Entry(), 0); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = log.events
			var smc []string
			for _, e := range first {
				if strings.HasPrefix(e, telemetry.EvSMCInvalidate.String()) {
					smc = append(smc, e)
				}
			}
			want := []string{
				fmt.Sprintf("%v %#x 0", telemetry.EvSMCInvalidate, 0x10000),
				fmt.Sprintf("%v %#x 0", telemetry.EvSMCInvalidate, 0x11000),
			}
			if !slices.Equal(smc, want) {
				t.Fatalf("SMC invalidations %q, want %q", smc, want)
			}
			continue
		}
		if !slices.Equal(log.events, first) {
			t.Fatalf("run %d: events\n%q\ndiffer from run 0's\n%q", run, log.events, first)
		}
	}
}

// TestOverlayProgram loads a second routine over the first at runtime —
// the overlay programming technique §3.2 calls out.
func TestOverlayProgram(t *testing.T) {
	src := `
	.org 0x100
newcode:	           # image of the replacement routine
	addi r3, r3, 77
	blr
	.org 0x1000
routine:	           # initially: +1
	addi r3, r3, 1
	blr
	.org 0x2000
_start:	li r3, 0
	bl routine         # old version: +1
	# copy newcode over routine
	lis r5, newcode@ha
	addi r5, r5, newcode@l
	lis r6, routine@ha
	addi r6, r6, routine@l
	lwz r7, 0(r5)
	stw r7, 0(r6)
	lwz r7, 4(r5)
	stw r7, 4(r6)
	bl routine         # new version: +77
` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 20)
	_ = prog.Load(m)
	ma := New(m, &interp.Env{}, DefaultOptions())
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatalf("vmm: %v", err)
	}
	if ma.St.GPR[3] != 78 {
		t.Fatalf("r3 = %d, want 78 (1 + 77)", ma.St.GPR[3])
	}
	if ma.Stats.SMCInvalidations == 0 {
		t.Fatal("expected invalidation of the overlaid page")
	}
}

// TestAliasRecoveryExactness: force heavy store-to-load aliasing through
// two pointers and confirm exact results plus nonzero alias statistics.
func TestAliasRecoveryExactness(t *testing.T) {
	src := `
_start:	lis r5, 0x8
	addi r6, r5, 0    # alias pointer
	li r3, 0
	li r4, 200
	mtctr r4
	li r9, 0
loop:	addi r3, r3, 1
	stw r3, 0(r5)
	lwz r7, 0(r6)     # aliases the store through another register
	add r9, r9, r7
	bdnz loop
` + halt
	prog, _ := asm.Assemble(src)
	m1 := mem.New(1 << 20)
	_ = prog.Load(m1)
	ip := interp.New(m1, &interp.Env{}, prog.Entry())
	if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
		t.Fatal(err)
	}
	m2 := mem.New(1 << 20)
	_ = prog.Load(m2)
	ma := New(m2, &interp.Env{}, DefaultOptions())
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatal(err)
	}
	if ip.St.GPR[9] != ma.St.GPR[9] {
		t.Fatalf("alias-heavy sum: interp %d, vmm %d", ip.St.GPR[9], ma.St.GPR[9])
	}
	// 1+2+...+200
	if ma.St.GPR[9] != 20100 {
		t.Fatalf("sum = %d", ma.St.GPR[9])
	}
}

// TestOutputEquivalenceAfterFaultRecovery: a program that faults, has no
// handler... instead use alias recovery mid-I/O to confirm the output
// stream is not disturbed by rollbacks.
func TestOutputStableAcrossRecovery(t *testing.T) {
	src := `
_start:	lis r5, 0x8
	mr r6, r5
	li r4, 10
	mtctr r4
	li r3, 'a'
loop:	stw r3, 0(r5)
	lwz r7, 0(r6)
	mr r3, r7
	li r0, 1
	sc               # putc
	addi r3, r3, 1
	bdnz loop
` + halt
	prog, _ := asm.Assemble(src)
	m := mem.New(1 << 20)
	_ = prog.Load(m)
	env := &interp.Env{}
	ma := New(m, env, DefaultOptions())
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Out, []byte("abcdefghij")) {
		t.Fatalf("output = %q", env.Out)
	}
}
