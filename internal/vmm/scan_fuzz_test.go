package vmm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vliw"
)

// scanFuzzProgram builds a deterministic random program from (seed,
// variant): a hot loop of ALU/memory work with one load that faults on a
// seed-chosen iteration, so the §3.5 scan has to locate the faulting base
// instruction inside a parallelized, speculated VLIW path.
func scanFuzzProgram(seed int64, variant uint8) string {
	rng := rand.New(rand.NewSource(seed ^ int64(variant)<<32))
	iters := 5 + rng.Intn(40)
	when := 1 + rng.Intn(iters)
	var b bytes.Buffer
	fmt.Fprintf(&b, "_start:\tlis r5, 0x8\n\tli r3, 0\n\tli r4, %d\n\tmtctr r4\n", iters)
	b.WriteString("loop:\taddi r3, r3, 1\n")
	n := 1 + rng.Intn(5) + int(variant%3)
	for k := 0; k < n; k++ {
		d := 6 + rng.Intn(5)
		a := 6 + rng.Intn(5)
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "\tmullw r%d, r3, r3\n", d)
		case 1:
			fmt.Fprintf(&b, "\tadd r%d, r%d, r3\n", d, a)
		case 2:
			fmt.Fprintf(&b, "\tstw r%d, %d(r5)\n", d, 4+4*rng.Intn(8))
		case 3:
			fmt.Fprintf(&b, "\tlwz r%d, %d(r5)\n", d, 4+4*rng.Intn(8))
		case 4:
			fmt.Fprintf(&b, "\tcmpw cr%d, r%d, r%d\n", rng.Intn(8), d, a)
		default:
			fmt.Fprintf(&b, "\txor r%d, r%d, r3\n", d, a)
		}
	}
	fmt.Fprintf(&b, "\tcmpwi r3, %d\n\tbne skip\n\tlwz r9, 0(r5)\nskip:\tbdnz loop\n", when)
	b.WriteString(halt)
	return b.String()
}

// FuzzScanMapping fuzzes the exception scan mapping: for random VLIW paths
// ending in a fault, both the backward per-VLIW scan (ScanFault) and the
// forward group-entry scan (ScanFaultFromGroupEntry) must name exactly the
// base PC where the reference interpreter faults, and the machine's
// recovered state must match the interpreter's precisely.
//
// The checked-in corpus under testdata/fuzz/FuzzScanMapping is seeded from
// the golden-trace digests (internal/golden/testdata), so every workload's
// fingerprint contributes one deterministic program shape that runs on
// every plain `go test`.
func FuzzScanMapping(f *testing.F) {
	f.Add(int64(99), uint8(0))
	f.Add(int64(2026), uint8(1))
	f.Add(int64(-7), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, variant uint8) {
		src := scanFuzzProgram(seed, variant)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("generated program does not assemble: %v\n%s", err, src)
		}
		const faultAddr = 0x80000

		m1 := mem.New(1 << 20)
		_ = prog.Load(m1)
		m1.InjectFault(faultAddr, false)
		ip := interp.New(m1, &interp.Env{}, prog.Entry())
		errI := ip.Run(10_000_000)
		var fI *mem.Fault
		if !errors.As(errI, &fI) {
			t.Fatalf("interpreter did not fault: %v", errI)
		}
		wantPC := ip.St.PC

		m2 := mem.New(1 << 20)
		_ = prog.Load(m2)
		m2.InjectFault(faultAddr, false)
		ma := New(m2, &interp.Env{}, DefaultOptions())
		ma.Observe(faultObserver{fn: func(fv *vliw.Fault, scanPC uint32) {
			backward, okB := ma.ScanFault(fv)
			forward, okF := ma.ScanFaultFromGroupEntry(fv)
			if !okB || !okF {
				t.Fatalf("scan did not resolve (backward ok=%v forward ok=%v)", okB, okF)
			}
			if backward != forward {
				t.Fatalf("backward scan %#x disagrees with forward scan %#x", backward, forward)
			}
			if backward != wantPC {
				t.Fatalf("scan found %#x, interpreter faulted at %#x", backward, wantPC)
			}
			if scanPC != wantPC {
				t.Fatalf("OnFault scanPC %#x, interpreter faulted at %#x", scanPC, wantPC)
			}
		}})
		// OnFault fires only when the fault lands in translated code; if a
		// pathological input faults during interpretation instead, the
		// state comparisons below still verify precise recovery.
		errV := ma.Run(prog.Entry(), 10_000_000)
		var fV *mem.Fault
		if !errors.As(errV, &fV) {
			t.Fatalf("vmm did not fault: %v", errV)
		}
		if fI.Addr != fV.Addr || fI.Write != fV.Write {
			t.Fatalf("fault mismatch: interp %+v, vmm %+v", fI, fV)
		}
		if ip.St.PC != ma.St.PC {
			t.Fatalf("fault PC: interp %#x, vmm %#x", ip.St.PC, ma.St.PC)
		}
		st1, st2 := ip.St, ma.St
		st2.SRR0, st2.SRR1, st2.DAR, st2.DSISR = st1.SRR0, st1.SRR1, st1.DAR, st1.DSISR
		if d := st1.Diff(&st2); d != "" {
			t.Fatalf("state at fault differs: %s", d)
		}
		if got, want := ma.Stats.BaseInsts(), ip.InstCount; got != want {
			t.Fatalf("insts completed before fault: vmm=%d interp=%d", got, want)
		}
	})
}
