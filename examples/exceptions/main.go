// Exceptions demonstrates DAISY's software-only precise exceptions (§2,
// §3.3, §3.5). A data page fault is injected under a load buried in a hot,
// speculatively-reordered loop. When the fault finally fires:
//
//   - the faulting tree VLIW rolls back to its entry (a precise
//     base-instruction boundary),
//   - the §3.5 forward scan over the executed VLIW path recovers the exact
//     base-architecture instruction responsible,
//   - the VMM re-executes interpretively to the fault and fills SRR0/DAR
//     exactly as PowerPC hardware would (§3.3).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"daisy"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
)

const src = `
_start:	lis r5, 0x8        # r5 = 0x80000 (fault will be injected here)
	li r3, 0
	li r4, 100
	mtctr r4
loop:	addi r3, r3, 1
	mullw r6, r3, r3
	cmpwi r3, 42
	bne skip
	lwz r9, 0(r5)      # reached only on iteration 42 — faults
	add r10, r9, r9
skip:	stw r6, 4(r5)
	bdnz loop
	li r0, 0
	sc
`

func run(w io.Writer) error {
	prog, err := daisy.Assemble(src)
	if err != nil {
		return err
	}

	// Reference: where does real (interpreted) hardware fault?
	m1 := daisy.NewMemory(1 << 20)
	_ = prog.Load(m1)
	m1.InjectFault(0x80000, false)
	ip := daisy.NewInterpreter(m1, &daisy.Env{}, prog.Entry())
	errI := ip.Run(0)
	var f1 *mem.Fault
	if !errors.As(errI, &f1) {
		return fmt.Errorf("interpreter did not fault: %v", errI)
	}
	fmt.Fprintf(w, "interpreter faults at pc=%#x (addr %#x) after %d instructions; r3=%d\n",
		ip.St.PC, f1.Addr, ip.InstCount, ip.St.GPR[3])

	// DAISY: same program, heavily reordered VLIW code.
	m2 := daisy.NewMemory(1 << 20)
	_ = prog.Load(m2)
	m2.InjectFault(0x80000, false)
	ma, err := daisy.NewMachine(m2, &daisy.Env{}, daisy.DefaultOptions())
	if err != nil {
		return err
	}
	ma.Observe(faultReporter{w: w, ma: ma})
	errV := ma.Run(prog.Entry(), 0)
	var f2 *mem.Fault
	if !errors.As(errV, &f2) {
		return fmt.Errorf("vmm did not fault: %v", errV)
	}
	fmt.Fprintf(w, "DAISY faults at pc=%#x (addr %#x) after %d instructions; r3=%d\n",
		ma.St.PC, f2.Addr, ma.Stats.BaseInsts(), ma.St.GPR[3])
	fmt.Fprintf(w, "exception delivery (§3.3): SRR0=%#x DAR=%#x DSISR=%#x\n",
		ma.St.SRR0, ma.St.DAR, ma.St.DSISR)

	if ip.St.PC != ma.St.PC || ip.InstCount != ma.Stats.BaseInsts() ||
		ip.St.GPR[3] != ma.St.GPR[3] {
		return errors.New("MISMATCH — precision violated")
	}
	fmt.Fprintln(w, "precise: identical fault point, instruction count and architected state.")
	return nil
}

// faultReporter prints each recovered exception with the base address the
// §3.5 scan found, both from the faulting VLIW and from the group entry.
type faultReporter struct {
	vmm.NopObserver
	w  io.Writer
	ma *daisy.Machine
}

func (r faultReporter) Fault(fv *vliw.Fault, scanPC uint32) {
	groupPC, _ := r.ma.ScanFaultFromGroupEntry(fv)
	fmt.Fprintf(r.w, "VMM: VLIW%d rolled back to boundary %#x; §3.5 scan -> %#x (per-VLIW) / %#x (group-entry walk)\n",
		fv.VLIW.ID, fv.Resume, scanPC, groupPC)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
