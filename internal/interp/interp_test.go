package interp

import (
	"errors"
	"strings"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// run assembles src, loads it into 1MB of memory, and runs to halt.
func run(t *testing.T, src string, in []byte) *Interp {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New(1 << 20)
	if err := p.Load(m); err != nil {
		t.Fatal(err)
	}
	env := &Env{In: in}
	ip := New(m, env, p.Entry())
	if err := ip.Run(10_000_000); !errors.Is(err, ErrHalt) {
		t.Fatalf("run: %v (pc=%#x)", err, ip.St.PC)
	}
	return ip
}

const halt = "\n\tli r0, 0\n\tsc\n"

func TestArithmetic(t *testing.T) {
	ip := run(t, `
	.org 0x1000
_start:	li    r3, 10
	li    r4, 3
	add   r5, r3, r4     # 13
	subf  r6, r4, r3     # 10 - 3 = 7
	mullw r7, r3, r4     # 30
	divw  r8, r3, r4     # 3
	divwu r9, r3, r4     # 3
	neg   r10, r3        # -10
	mulli r11, r4, -5    # -15
`+halt, nil)
	want := map[int]uint32{5: 13, 6: 7, 7: 30, 8: 3, 9: 3,
		10: uint32(0xfffffff6), 11: uint32(0xfffffff1)}
	for r, v := range want {
		if ip.St.GPR[r] != v {
			t.Errorf("r%d = %#x, want %#x", r, ip.St.GPR[r], v)
		}
	}
}

func TestCarryChain(t *testing.T) {
	// 64-bit add: 0xFFFFFFFF_00000001 + 0x00000001_FFFFFFFF
	ip := run(t, `
_start:	lis   r3, 0xffff
	ori   r3, r3, 0xffff  # hi a
	li    r4, 1           # lo a
	li    r5, 1           # hi b
	lis   r6, 0xffff
	ori   r6, r6, 0xffff  # lo b
	addc  r7, r4, r6      # lo sum
	adde  r8, r3, r5      # hi sum with carry
`+halt, nil)
	if ip.St.GPR[7] != 0 {
		t.Errorf("lo = %#x, want 0", ip.St.GPR[7])
	}
	if ip.St.GPR[8] != 1 {
		t.Errorf("hi = %#x, want 1 (0xffffffff+1+carry)", ip.St.GPR[8])
	}
}

func TestSubtractCarry(t *testing.T) {
	ip := run(t, `
_start:	li r3, 5
	li r4, 7
	subfc r5, r3, r4   # 7-5=2, CA=1 (no borrow)
	adde  r6, r0, r0   # capture CA: 0+0+CA
	subfc r7, r4, r3   # 5-7=-2, CA=0 (borrow)
	adde  r8, r0, r0
	subfic r9, r3, 3   # 3-5 = -2
`+halt, nil)
	if ip.St.GPR[5] != 2 || ip.St.GPR[6] != 1 {
		t.Errorf("subfc no-borrow: r5=%d ca=%d", ip.St.GPR[5], ip.St.GPR[6])
	}
	if ip.St.GPR[7] != 0xfffffffe || ip.St.GPR[8] != 0 {
		t.Errorf("subfc borrow: r7=%#x ca=%d", ip.St.GPR[7], ip.St.GPR[8])
	}
	if ip.St.GPR[9] != 0xfffffffe {
		t.Errorf("subfic: %#x", ip.St.GPR[9])
	}
}

func TestLogicAndShifts(t *testing.T) {
	ip := run(t, `
_start:	lis  r3, 0xf0f0
	ori  r3, r3, 0x1234
	li   r4, 0xff
	and  r5, r3, r4
	or   r6, r3, r4
	xor  r7, r3, r4
	nand r8, r3, r4
	nor  r9, r3, r4
	andc r10, r3, r4
	li   r11, 4
	slw  r12, r4, r11
	srw  r13, r3, r11
	li   r14, 40
	slw  r15, r4, r14   # shift >= 32 -> 0
	srawi r16, r3, 8
	cntlzw r17, r4
	li   r18, -2
	extsb r19, r4       # 0xff -> -1
	extsh r20, r3       # 0x1234 stays
	rlwinm r21, r3, 8, 24, 31
`+halt, nil)
	a := uint32(0xf0f01234)
	checks := map[int]uint32{
		5:  a & 0xff,
		6:  a | 0xff,
		7:  a ^ 0xff,
		8:  ^(a & 0xff),
		9:  ^(a | 0xff),
		10: a &^ 0xff,
		12: 0xff << 4,
		13: a >> 4,
		15: 0,
		16: uint32(int32(a) >> 8),
		17: 24,
		19: 0xffffffff,
		20: 0x1234,
		21: 0xf0, // rotl(a,8)=0xf01234f0, mask low byte
	}
	for r, v := range checks {
		if ip.St.GPR[r] != v {
			t.Errorf("r%d = %#x, want %#x", r, ip.St.GPR[r], v)
		}
	}
}

func TestSrawCarry(t *testing.T) {
	ip := run(t, `
_start:	li r3, -5
	srawi r4, r3, 1     # -3, CA=1 (negative, bit lost)
	adde r5, r0, r0
	li r6, -4
	srawi r7, r6, 1     # -2, CA=0 (no bits lost)
	adde r8, r0, r0
`+halt, nil)
	if int32(ip.St.GPR[4]) != -3 || ip.St.GPR[5] != 1 {
		t.Errorf("srawi -5>>1: r4=%d ca=%d", int32(ip.St.GPR[4]), ip.St.GPR[5])
	}
	if int32(ip.St.GPR[7]) != -2 || ip.St.GPR[8] != 0 {
		t.Errorf("srawi -4>>1: r7=%d ca=%d", int32(ip.St.GPR[7]), ip.St.GPR[8])
	}
}

func TestCompareAndBranches(t *testing.T) {
	ip := run(t, `
_start:	li r3, 5
	li r4, -1
	li r31, 0            # result accumulator
	cmpwi r3, 5
	bne fail
	ori r31, r31, 1
	cmpw cr2, r4, r3
	bge cr2, fail        # -1 < 5 signed
	ori r31, r31, 2
	cmplw cr3, r4, r3
	ble cr3, fail        # 0xffffffff > 5 unsigned
	ori r31, r31, 4
	cmplwi r4, 0xffff
	ble fail             # 0xffffffff > 0xffff unsigned
	ori r31, r31, 8
	b done
fail:	li r31, -1
done:
`+halt, nil)
	if ip.St.GPR[31] != 15 {
		t.Fatalf("r31 = %d, want 15", int32(ip.St.GPR[31]))
	}
}

func TestLoopWithCTR(t *testing.T) {
	ip := run(t, `
_start:	li r3, 0
	li r4, 10
	mtctr r4
loop:	addi r3, r3, 2
	bdnz loop
	mfctr r5
`+halt, nil)
	if ip.St.GPR[3] != 20 || ip.St.GPR[5] != 0 {
		t.Fatalf("r3=%d ctr=%d", ip.St.GPR[3], ip.St.GPR[5])
	}
}

func TestCallReturn(t *testing.T) {
	ip := run(t, `
_start:	li r3, 7
	bl double
	bl double
	b fin
double:	add r3, r3, r3
	blr
fin:
`+halt, nil)
	if ip.St.GPR[3] != 28 {
		t.Fatalf("r3 = %d, want 28", ip.St.GPR[3])
	}
}

func TestIndirectViaCTR(t *testing.T) {
	ip := run(t, `
_start:	lis r5, target@ha
	addi r5, r5, target@l
	mtctr r5
	bctr
	li r3, 111    # skipped
target:	li r3, 42
`+halt, nil)
	if ip.St.GPR[3] != 42 {
		t.Fatalf("r3 = %d", ip.St.GPR[3])
	}
}

func TestMemoryOps(t *testing.T) {
	ip := run(t, `
	.org 0x100
_start:	lis r1, 0x8        # r1 = 0x80000
	lis r3, 0xdead
	ori r3, r3, 0xbeef  # 0xdeadbeef
	stw r3, 0(r1)
	lwz r4, 0(r1)
	lbz r5, 0(r1)       # 0xde
	lhz r6, 2(r1)       # 0xbeef
	lha r7, 2(r1)       # sign-extended
	sth r3, 8(r1)
	lwz r8, 8(r1)       # 0xbeef0000
	stb r3, 12(r1)
	lbz r9, 12(r1)      # 0xef
	li r10, 4
	stwx r3, r1, r10
	lwzx r11, r1, r10
	stwu r3, 16(r1)     # r1 += 16 after store
	lwz r12, 0(r1)
`+halt, nil)
	st := ip.St
	if st.GPR[4] != 0xdeadbeef || st.GPR[5] != 0xde || st.GPR[6] != 0xbeef {
		t.Errorf("basic loads: %#x %#x %#x", st.GPR[4], st.GPR[5], st.GPR[6])
	}
	if st.GPR[7] != 0xffffbeef {
		t.Errorf("lha = %#x", st.GPR[7])
	}
	if st.GPR[8] != 0xbeef0000 || st.GPR[9] != 0xef {
		t.Errorf("sub-word stores: %#x %#x", st.GPR[8], st.GPR[9])
	}
	if st.GPR[11] != 0xdeadbeef {
		t.Errorf("indexed: %#x", st.GPR[11])
	}
	if st.GPR[1] != 0x80010 || st.GPR[12] != 0xdeadbeef {
		t.Errorf("update form: r1=%#x r12=%#x", st.GPR[1], st.GPR[12])
	}
}

func TestLoadStoreMultiple(t *testing.T) {
	ip := run(t, `
_start:	lis r1, 0x8
	li r29, 29
	li r30, 30
	li r31, 31
	stmw r29, 0(r1)
	li r29, 0
	li r30, 0
	li r31, 0
	lmw r29, 0(r1)
`+halt, nil)
	if ip.St.GPR[29] != 29 || ip.St.GPR[30] != 30 || ip.St.GPR[31] != 31 {
		t.Fatalf("lmw/stmw: %d %d %d", ip.St.GPR[29], ip.St.GPR[30], ip.St.GPR[31])
	}
}

func TestCRLogicAndMoves(t *testing.T) {
	ip := run(t, `
_start:	li r3, 1
	li r4, 2
	cmpwi cr1, r3, 1     # cr1: EQ
	cmpwi cr2, r4, 3     # cr2: LT
	crand 0, 6, 8        # cr0.lt = cr1.eq AND cr2.lt = 1
	blt record
	b fail
record:	li r31, 1
	mcrf cr5, cr1
	mfcr r5
	mtcrf 0x80, r4       # cr0 <- field 0 of r4 (zeros)
	blt fail2
	b done
fail:	li r31, -1
	b done
fail2:	li r31, -2
done:
`+halt, nil)
	if int32(ip.St.GPR[31]) != 1 {
		t.Fatalf("r31 = %d", int32(ip.St.GPR[31]))
	}
	if ppc.CRField(ip.St.GPR[5], 5) != ppc.CRField(ip.St.GPR[5], 1) {
		t.Fatal("mcrf should have copied cr1 to cr5 before mfcr")
	}
}

func TestRecordForms(t *testing.T) {
	ip := run(t, `
_start:	li r3, -5
	add. r4, r3, r0     # negative -> LT
	blt ok1
	b fail
ok1:	li r5, 5
	subf. r6, r5, r5    # zero -> EQ
	beq ok2
	b fail
ok2:	andi. r7, r3, 8     # 8 -> GT
	bgt ok3
	b fail
ok3:	li r31, 1
	b done
fail:	li r31, -1
done:
`+halt, nil)
	if int32(ip.St.GPR[31]) != 1 {
		t.Fatalf("r31 = %d", int32(ip.St.GPR[31]))
	}
}

func TestSyscallIO(t *testing.T) {
	ip := run(t, `
_start:	li r0, 2        # getc
	sc
	cmpwi r3, -1
	beq eof
	addi r3, r3, 1  # increment byte
	li r0, 1        # putc
	sc
	b _start
eof:
`+halt, []byte("abc"))
	if got := string(ip.Env.Out); got != "bcd" {
		t.Fatalf("output = %q", got)
	}
}

func TestSysWrite(t *testing.T) {
	ip := run(t, `
	.org 0x400
msg:	.ascii "hello"
	.align 4
_start:	lis r3, msg@ha
	addi r3, r3, msg@l
	li r4, 5
	li r0, 3
	sc
`+halt, nil)
	if got := string(ip.Env.Out); got != "hello" {
		t.Fatalf("output = %q", got)
	}
}

func TestPreciseFault(t *testing.T) {
	p, err := asm.Assemble(`
_start:	li r3, 1
	li r4, 2
	lis r5, 0x8
	lwz r6, 0(r5)
	li r7, 3
` + halt)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 20)
	_ = p.Load(m)
	m.InjectFault(0x80000, false)
	ip := New(m, &Env{}, p.Entry())
	err = ip.Run(100)
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultInjected {
		t.Fatalf("expected injected fault, got %v", err)
	}
	// Precise: PC is at the faulting lwz; earlier results are committed,
	// later ones are not.
	if ip.St.PC != p.Entry()+12 {
		t.Fatalf("PC = %#x, want %#x", ip.St.PC, p.Entry()+12)
	}
	if ip.St.GPR[3] != 1 || ip.St.GPR[4] != 2 || ip.St.GPR[7] != 0 {
		t.Fatal("state not precise at fault")
	}
}

func TestIllegalInstruction(t *testing.T) {
	p, _ := asm.Assemble("_start:\t.word 0xffffffff")
	m := mem.New(1 << 16)
	_ = p.Load(m)
	ip := New(m, &Env{}, 0)
	if err := ip.Step(); err == nil || !strings.Contains(err.Error(), "illegal") {
		t.Fatalf("expected illegal instruction error, got %v", err)
	}
}

func TestInstCountAndBudget(t *testing.T) {
	ip := run(t, "_start:\tli r3, 1\n\tli r4, 2"+halt, nil)
	if ip.InstCount != 4 {
		t.Fatalf("InstCount = %d, want 4 (incl. li r0 and sc)", ip.InstCount)
	}
	// Budget exhaustion.
	p, _ := asm.Assemble("_start:\tb _start")
	m := mem.New(1 << 16)
	_ = p.Load(m)
	ip2 := New(m, &Env{}, 0)
	if err := ip2.Run(10); err == nil || errors.Is(err, ErrHalt) {
		t.Fatal("expected budget exhaustion")
	}
}

func TestBranchProfileHook(t *testing.T) {
	var taken, notTaken int
	p, _ := asm.Assemble(`
_start:	li r3, 5
	mtctr r3
loop:	bdnz loop
` + halt)
	m := mem.New(1 << 16)
	_ = p.Load(m)
	ip := New(m, &Env{}, p.Entry())
	ip.OnBranch = func(pc uint32, t bool) {
		if t {
			taken++
		} else {
			notTaken++
		}
	}
	if err := ip.Run(0); !errors.Is(err, ErrHalt) {
		t.Fatal(err)
	}
	if taken != 4 || notTaken != 1 {
		t.Fatalf("profile: taken=%d notTaken=%d", taken, notTaken)
	}
}

func TestTraceHook(t *testing.T) {
	var pcs []uint32
	p, _ := asm.Assemble("_start:\tli r3, 1\n\tli r0, 0\n\tsc")
	m := mem.New(1 << 16)
	_ = p.Load(m)
	ip := New(m, &Env{}, p.Entry())
	ip.Trace = func(pc uint32, in ppc.Inst, st *ppc.State) { pcs = append(pcs, pc) }
	_ = ip.Run(0)
	if len(pcs) != 3 || pcs[0] != 0 || pcs[2] != 8 {
		t.Fatalf("trace pcs: %v", pcs)
	}
}

func TestEnvGetcEOF(t *testing.T) {
	e := &Env{In: []byte{7}}
	if e.Getc() != 7 || e.Getc() != -1 || e.Getc() != -1 {
		t.Fatal("Getc EOF behaviour")
	}
	e.Reset([]byte{9})
	if e.Getc() != 9 {
		t.Fatal("Reset did not rewind")
	}
}

func TestRfiAndDSIDelivery(t *testing.T) {
	// A handler at 0x300 records the DAR and rfi's past the faulting
	// instruction by bumping SRR0.
	p, err := asm.Assemble(`
	.org 0x300
	mfspr r20, 19      # DAR
	mfspr r21, 26      # SRR0 (the faulting instruction)
	addi r21, r21, 4   # skip it
	mtspr 26, r21
	rfi
	.org 0x1000
_start:	lis r3, go@ha
	addi r3, r3, go@l
	mtspr 26, r3
	li r4, 0x10        # MSR[DR], with an empty page table: everything faults
	mtspr 27, r4
	li r5, 0x7000
	mtspr 25, r5       # SDR1 -> zeroed memory (all entries invalid)
	rfi
go:	lis r6, 0x20
	lwz r7, 0(r6)      # faults; handler skips it
	li r8, 42
	li r0, 0
	sc
`)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 20)
	_ = p.Load(m)
	ip := New(m, &Env{}, p.Entry())
	ip.DeliverDSI = true
	if err := ip.Run(0); !errors.Is(err, ErrHalt) {
		t.Fatalf("run: %v (pc=%#x)", err, ip.St.PC)
	}
	if ip.St.GPR[20] != 0x200000 {
		t.Fatalf("handler saw DAR=%#x", ip.St.GPR[20])
	}
	if ip.St.GPR[8] != 42 {
		t.Fatal("execution did not continue past the skipped fault")
	}
	if ip.St.MSR&ppc.MsrDR == 0 {
		t.Fatal("rfi should have restored MSR[DR]")
	}
	if ip.St.GPR[7] != 0 {
		t.Fatal("the skipped load must not have written r7")
	}
}

func TestDataTranslateDirect(t *testing.T) {
	m := mem.New(1 << 20)
	var st ppc.State
	// Real mode: identity.
	if pa, f := DataTranslate(m, &st, 0x1234, false); f != nil || pa != 0x1234 {
		t.Fatalf("real mode: %v %v", pa, f)
	}
	st.MSR = ppc.MsrDR
	st.SDR1 = 0x7000
	// Invalid entry.
	if _, f := DataTranslate(m, &st, 0x5000, true); f == nil || !f.Write {
		t.Fatal("invalid entry must fault with the write flag")
	}
	// Valid mapping 0x5000 -> 0x9000.
	_ = m.Write32(0x7000+5*4, 0x9000|1)
	if pa, f := DataTranslate(m, &st, 0x5abc, false); f != nil || pa != 0x9abc {
		t.Fatalf("mapped: %#x %v", pa, f)
	}
	// Out-of-range virtual page.
	if _, f := DataTranslate(m, &st, 0xffff_f000, false); f == nil {
		t.Fatal("huge vpage must fault")
	}
}

// TestSyscallABI pins the register contract the VMM's in-place system-call
// service relies on: Env.Syscall reads only r0, r3 and r4 and writes only
// r3. Each service runs on a state holding just its arguments and on the
// same state with every other register poisoned; both runs must give the
// same result, output and r3, and leave every other register as it was.
func TestSyscallABI(t *testing.T) {
	m := mem.New(1 << 16)
	if err := m.LoadImage(0x100, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		r0, r3, r4 uint32
		in         string
		err        error
		out        string
		r3Out      uint32
	}{
		{"halt", SysHalt, 7, 9, "", ErrHalt, "", 7},
		{"putc", SysPutc, 'x', 9, "", nil, "x", 'x'},
		{"getc", SysGetc, 7, 9, "q", nil, "", 'q'},
		{"getc at end of input", SysGetc, 7, 9, "", nil, "", 0xffff_ffff},
		{"write", SysWrite, 0x100, 3, "", nil, "abc", 0x100},
	} {
		var clean ppc.State
		clean.GPR[0], clean.GPR[3], clean.GPR[4] = c.r0, c.r3, c.r4
		poisoned := clean
		for i := range poisoned.GPR {
			if i != 0 && i != 3 && i != 4 {
				poisoned.GPR[i] = 0xdead_0000 + uint32(i)
			}
		}
		poisoned.CR, poisoned.LR, poisoned.CTR, poisoned.XER = 0xdead_0100, 0xdead_0101, 0xdead_0102, 0xdead_0103
		poisoned.PC, poisoned.MSR, poisoned.SDR1 = 0xdead_0104, 0xdead_0105, 0xdead_0106
		poisoned.SRR0, poisoned.SRR1, poisoned.DAR, poisoned.DSISR = 0xdead_0107, 0xdead_0108, 0xdead_0109, 0xdead_010a
		for _, before := range []ppc.State{clean, poisoned} {
			env := &Env{In: []byte(c.in)}
			st := before
			err := env.Syscall(&st, m)
			if !errors.Is(err, c.err) || (c.err == nil && err != nil) {
				t.Errorf("%s: error %v, want %v", c.name, err, c.err)
			}
			if string(env.Out) != c.out {
				t.Errorf("%s: output %q, want %q", c.name, env.Out, c.out)
			}
			want := before
			want.GPR[3] = c.r3Out
			if d := want.Diff(&st); d != "" {
				t.Errorf("%s: registers after the call differ from the contract (want != got): %s", c.name, d)
			}
		}
	}
}
