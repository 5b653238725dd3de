// Package interp executes base-architecture (PowerPC subset) binaries
// directly. It is the reference semantics for the whole reproduction: the
// DAISY VMM must produce bit-identical architected state, memory image and
// I/O for every program, and the interpreter's dynamic instruction count is
// the numerator of every pathlength-reduction (ILP) figure in the paper.
//
// It also provides the trace hooks used by the profile-directed traditional
// compiler baseline (Table 5.2) and by the oracle scheduler (Chapter 6).
package interp

import (
	"errors"
	"fmt"
	"math/bits"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// ErrHalt is returned by Step/Run when the program executes the halt
// system call.
var ErrHalt = errors.New("interp: program halted")

// Syscall service numbers, passed in r0. These are the only "operating
// system" of the reproduction; the VMM emulates exactly the same services
// so that I/O streams can be compared byte for byte.
const (
	SysHalt  = 0 // stop execution
	SysPutc  = 1 // write byte r3 to the output stream
	SysGetc  = 2 // read next input byte into r3; -1 at end of input
	SysWrite = 3 // write r4 bytes at address r3 to the output stream
)

// Env is the I/O environment shared by a program run.
type Env struct {
	In  []byte
	pos int
	Out []byte
}

// Reset rewinds the input stream and clears the output.
func (e *Env) Reset(in []byte) {
	e.In = in
	e.pos = 0
	e.Out = e.Out[:0]
}

// Getc returns the next input byte, or -1 at end of input.
func (e *Env) Getc() int32 {
	if e.pos >= len(e.In) {
		return -1
	}
	b := e.In[e.pos]
	e.pos++
	return int32(b)
}

// Putc appends one byte to the output stream.
func (e *Env) Putc(b byte) { e.Out = append(e.Out, b) }

// Clone returns an independent copy of the environment, including the
// input cursor (used by the interpretive-compilation recorder, which must
// not consume the program's real input).
func (e *Env) Clone() *Env {
	return &Env{In: e.In, pos: e.pos, Out: append([]byte(nil), e.Out...)}
}

// Syscall performs service r0 against the environment. It returns ErrHalt
// for SysHalt. It is shared by the interpreter and the VMM.
//
// Its register contract is the system-call ABI: it reads only r0, r3 and
// r4 (and the PC, only to name an unknown service in its error) and
// writes only r3. The VMM relies on this to service a call on the VLIW
// register file in place, passing a state that holds just those
// registers (TestSyscallABI pins it).
func (e *Env) Syscall(st *ppc.State, m *mem.Memory) error {
	switch st.GPR[0] {
	case SysHalt:
		return ErrHalt
	case SysPutc:
		e.Putc(byte(st.GPR[3]))
	case SysGetc:
		st.GPR[3] = uint32(e.Getc())
	case SysWrite:
		addr, n := st.GPR[3], st.GPR[4]
		for i := uint32(0); i < n; i++ {
			b, err := m.Read8(addr + i)
			if err != nil {
				return err
			}
			e.Putc(byte(b))
		}
	default:
		return fmt.Errorf("interp: unknown syscall %d at pc %#x", st.GPR[0], st.PC)
	}
	return nil
}

// DataTranslate maps a data effective address through the guest page
// table (Chapter 4) when MSR[DR] is set; otherwise it is the identity.
// The table is an array of words in guest memory at SDR1, indexed by
// virtual page number: entry = physicalPage | 1 (valid bit).
func DataTranslate(m *mem.Memory, st *ppc.State, vaddr uint32, write bool) (uint32, *mem.Fault) {
	if st.MSR&ppc.MsrDR == 0 {
		return vaddr, nil
	}
	vpage := vaddr >> 12
	if vpage >= 4096 {
		return 0, &mem.Fault{Addr: vaddr, Write: write, Kind: mem.FaultUnmapped}
	}
	entry, err := m.Read32(st.SDR1 + vpage*4)
	if err != nil || entry&1 == 0 {
		return 0, &mem.Fault{Addr: vaddr, Write: write, Kind: mem.FaultUnmapped}
	}
	return entry&^0xfff | vaddr&0xfff, nil
}

// Interp is a base-architecture interpreter over a physical memory image.
type Interp struct {
	St  ppc.State
	Mem *mem.Memory
	Env *Env

	// DeliverDSI selects §3.3 behaviour for data storage faults: instead
	// of returning an error, fill SRR0/SRR1/DAR/DSISR and vector to the
	// guest handler at 0x300 with relocation and interrupts disabled.
	DeliverDSI bool

	// InstCount is the number of completed base instructions.
	InstCount uint64

	// Trace, if non-nil, is invoked before each instruction executes.
	Trace func(pc uint32, in ppc.Inst, st *ppc.State)

	// OnBranch, if non-nil, is invoked after each conditional branch with
	// its address and outcome; the profile used by the traditional
	// compiler baseline is built from it.
	OnBranch func(pc uint32, taken bool)

	// OnMem, if non-nil, observes every data access (for cache models).
	OnMem func(addr uint32, size int, write bool)
}

// New returns an interpreter with the program counter at entry.
func New(m *mem.Memory, env *Env, entry uint32) *Interp {
	ip := &Interp{Mem: m, Env: env}
	ip.St.PC = entry
	return ip
}

// Run executes until halt, an error, or max instructions (0 = no limit).
// It returns ErrHalt on a clean halt.
func (ip *Interp) Run(max uint64) error {
	for max == 0 || ip.InstCount < max {
		if err := ip.Step(); err != nil {
			return err
		}
	}
	return fmt.Errorf("interp: instruction budget %d exhausted at pc %#x", max, ip.St.PC)
}

// RunTo executes until InstCount reaches target, returning nil once it
// does (immediately if already there). Any earlier halt or fault is
// returned as the error. It is the reference-side pump of the lockstep
// differential checker: the DAISY machine advances to a precise boundary,
// then the interpreter is run to the identical completed-instruction
// count and the two architected states must be bit-identical.
func (ip *Interp) RunTo(target uint64) error {
	for ip.InstCount < target {
		if err := ip.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step executes a single instruction. On a memory fault the architected
// state is unchanged (the fault is precise).
func (ip *Interp) Step() error {
	st := &ip.St
	w, err := ip.Mem.Read32(st.PC)
	if err != nil {
		return fmt.Errorf("interp: instruction fetch at %#x: %w", st.PC, err)
	}
	in := ppc.Decode(w)
	if ip.Trace != nil {
		ip.Trace(st.PC, in, st)
	}
	next := st.PC + 4

	switch in.Op {
	case ppc.OpIllegal:
		return fmt.Errorf("interp: illegal instruction %#08x at pc %#x", w, st.PC)

	case ppc.OpAddi:
		st.GPR[in.RT] = ra0(st, in.RA) + uint32(in.Imm)
	case ppc.OpAddis:
		st.GPR[in.RT] = ra0(st, in.RA) + uint32(in.Imm)<<16
	case ppc.OpAddic, ppc.OpAddicRC:
		sum, ca := ppc.AddCarry(st.GPR[in.RA], uint32(in.Imm), 0)
		st.GPR[in.RT] = sum
		setCA(st, ca)
		if in.Rc {
			record(st, sum)
		}
	case ppc.OpSubfic:
		sum, ca := ppc.AddCarry(^st.GPR[in.RA], uint32(in.Imm), 1)
		st.GPR[in.RT] = sum
		setCA(st, ca)
	case ppc.OpMulli:
		st.GPR[in.RT] = uint32(int32(st.GPR[in.RA]) * in.Imm)
	case ppc.OpCmpi:
		st.CR = ppc.SetCRField(st.CR, in.CRF, ppc.CompareSigned(int32(st.GPR[in.RA]), in.Imm, st.XER))
	case ppc.OpCmpli:
		st.CR = ppc.SetCRField(st.CR, in.CRF, ppc.CompareUnsigned(st.GPR[in.RA], uint32(in.Imm), st.XER))
	case ppc.OpOri:
		st.GPR[in.RA] = st.GPR[in.RT] | uint32(in.Imm)
	case ppc.OpOris:
		st.GPR[in.RA] = st.GPR[in.RT] | uint32(in.Imm)<<16
	case ppc.OpXori:
		st.GPR[in.RA] = st.GPR[in.RT] ^ uint32(in.Imm)
	case ppc.OpXoris:
		st.GPR[in.RA] = st.GPR[in.RT] ^ uint32(in.Imm)<<16
	case ppc.OpAndiRC:
		st.GPR[in.RA] = st.GPR[in.RT] & uint32(in.Imm)
		record(st, st.GPR[in.RA])
	case ppc.OpAndisRC:
		st.GPR[in.RA] = st.GPR[in.RT] & (uint32(in.Imm) << 16)
		record(st, st.GPR[in.RA])

	case ppc.OpAdd:
		st.GPR[in.RT] = st.GPR[in.RA] + st.GPR[in.RB]
		recordIf(st, in, st.GPR[in.RT])
	case ppc.OpAddc:
		sum, ca := ppc.AddCarry(st.GPR[in.RA], st.GPR[in.RB], 0)
		st.GPR[in.RT] = sum
		setCA(st, ca)
		recordIf(st, in, sum)
	case ppc.OpAdde:
		sum, ca := ppc.AddCarry(st.GPR[in.RA], st.GPR[in.RB], carryIn(st))
		st.GPR[in.RT] = sum
		setCA(st, ca)
		recordIf(st, in, sum)
	case ppc.OpSubf:
		st.GPR[in.RT] = st.GPR[in.RB] - st.GPR[in.RA]
		recordIf(st, in, st.GPR[in.RT])
	case ppc.OpSubfc:
		sum, ca := ppc.AddCarry(^st.GPR[in.RA], st.GPR[in.RB], 1)
		st.GPR[in.RT] = sum
		setCA(st, ca)
		recordIf(st, in, sum)
	case ppc.OpSubfe:
		sum, ca := ppc.AddCarry(^st.GPR[in.RA], st.GPR[in.RB], carryIn(st))
		st.GPR[in.RT] = sum
		setCA(st, ca)
		recordIf(st, in, sum)
	case ppc.OpNeg:
		st.GPR[in.RT] = -st.GPR[in.RA]
		recordIf(st, in, st.GPR[in.RT])
	case ppc.OpMullw:
		st.GPR[in.RT] = st.GPR[in.RA] * st.GPR[in.RB]
		recordIf(st, in, st.GPR[in.RT])
	case ppc.OpMulhwu:
		st.GPR[in.RT] = uint32(uint64(st.GPR[in.RA]) * uint64(st.GPR[in.RB]) >> 32)
		recordIf(st, in, st.GPR[in.RT])
	case ppc.OpDivw:
		st.GPR[in.RT] = ppc.DivSigned(st.GPR[in.RA], st.GPR[in.RB])
		recordIf(st, in, st.GPR[in.RT])
	case ppc.OpDivwu:
		st.GPR[in.RT] = ppc.DivUnsigned(st.GPR[in.RA], st.GPR[in.RB])
		recordIf(st, in, st.GPR[in.RT])

	case ppc.OpAnd:
		st.GPR[in.RA] = st.GPR[in.RT] & st.GPR[in.RB]
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpAndc:
		st.GPR[in.RA] = st.GPR[in.RT] &^ st.GPR[in.RB]
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpOr:
		st.GPR[in.RA] = st.GPR[in.RT] | st.GPR[in.RB]
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpNor:
		st.GPR[in.RA] = ^(st.GPR[in.RT] | st.GPR[in.RB])
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpXor:
		st.GPR[in.RA] = st.GPR[in.RT] ^ st.GPR[in.RB]
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpNand:
		st.GPR[in.RA] = ^(st.GPR[in.RT] & st.GPR[in.RB])
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpSlw:
		st.GPR[in.RA] = ppc.ShiftLeft(st.GPR[in.RT], st.GPR[in.RB])
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpSrw:
		st.GPR[in.RA] = ppc.ShiftRight(st.GPR[in.RT], st.GPR[in.RB])
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpSraw:
		r, ca := ppc.ShiftRightAlg(st.GPR[in.RT], st.GPR[in.RB]&0x3f)
		st.GPR[in.RA] = r
		setCA(st, ca)
		recordIf(st, in, r)
	case ppc.OpSrawi:
		r, ca := ppc.ShiftRightAlg(st.GPR[in.RT], uint32(in.SH))
		st.GPR[in.RA] = r
		setCA(st, ca)
		recordIf(st, in, r)
	case ppc.OpCntlzw:
		st.GPR[in.RA] = uint32(bits.LeadingZeros32(st.GPR[in.RT]))
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpExtsb:
		st.GPR[in.RA] = uint32(int32(int8(st.GPR[in.RT])))
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpExtsh:
		st.GPR[in.RA] = uint32(int32(int16(st.GPR[in.RT])))
		recordIf(st, in, st.GPR[in.RA])
	case ppc.OpRlwinm:
		r := bits.RotateLeft32(st.GPR[in.RT], int(in.SH)) & ppc.RotateMask(in.MB, in.ME)
		st.GPR[in.RA] = r
		recordIf(st, in, r)
	case ppc.OpRlwimi:
		m := ppc.RotateMask(in.MB, in.ME)
		r := bits.RotateLeft32(st.GPR[in.RT], int(in.SH))&m | st.GPR[in.RA]&^m
		st.GPR[in.RA] = r
		recordIf(st, in, r)
	case ppc.OpCmp:
		st.CR = ppc.SetCRField(st.CR, in.CRF, ppc.CompareSigned(int32(st.GPR[in.RA]), int32(st.GPR[in.RB]), st.XER))
	case ppc.OpCmpl:
		st.CR = ppc.SetCRField(st.CR, in.CRF, ppc.CompareUnsigned(st.GPR[in.RA], st.GPR[in.RB], st.XER))

	case ppc.OpCrand, ppc.OpCror, ppc.OpCrxor, ppc.OpCrnand, ppc.OpCrnor:
		a := ppc.CRBit(st.CR, uint8(in.RA))
		b := ppc.CRBit(st.CR, uint8(in.RB))
		st.CR = ppc.SetCRBit(st.CR, uint8(in.RT), ppc.CrOp(in.Op, a, b))
	case ppc.OpMcrf:
		st.CR = ppc.SetCRField(st.CR, in.CRF, ppc.CRField(st.CR, in.CRFA))

	case ppc.OpMfspr:
		v, err := st.ReadSPR(in.SPR)
		if err != nil {
			return err
		}
		st.GPR[in.RT] = v
	case ppc.OpMtspr:
		if err := st.WriteSPR(in.SPR, st.GPR[in.RT]); err != nil {
			return err
		}
	case ppc.OpMfcr:
		st.GPR[in.RT] = st.CR
	case ppc.OpMtcrf:
		for f := uint8(0); f < 8; f++ {
			if in.FXM&(0x80>>f) != 0 {
				st.CR = ppc.SetCRField(st.CR, f, ppc.CRField(st.GPR[in.RT], f))
			}
		}

	case ppc.OpB:
		if in.LK {
			st.LR = st.PC + 4
		}
		if in.AA {
			next = uint32(in.Imm)
		} else {
			next = st.PC + uint32(in.Imm)
		}
	case ppc.OpBc:
		taken := ip.condBranchTaken(in)
		if ip.OnBranch != nil && !in.BranchAlways() {
			ip.OnBranch(st.PC, taken)
		}
		if in.LK {
			st.LR = st.PC + 4
		}
		if taken {
			if in.AA {
				next = uint32(in.Imm)
			} else {
				next = st.PC + uint32(in.Imm)
			}
		}
	case ppc.OpBclr:
		target := st.LR &^ 3
		taken := ip.condBranchTaken(in)
		if ip.OnBranch != nil && !in.BranchAlways() {
			ip.OnBranch(st.PC, taken)
		}
		if in.LK {
			st.LR = st.PC + 4
		}
		if taken {
			next = target
		}
	case ppc.OpBcctr:
		taken := true
		if in.UsesCond() {
			taken = ppc.CRBit(st.CR, in.BI) == in.CondSense()
		}
		if ip.OnBranch != nil && !in.BranchAlways() {
			ip.OnBranch(st.PC, taken)
		}
		if in.LK {
			st.LR = st.PC + 4
		}
		if taken {
			next = st.CTR &^ 3
		}

	case ppc.OpSc:
		if err := ip.Env.Syscall(st, ip.Mem); err != nil {
			if errors.Is(err, ErrHalt) {
				ip.InstCount++
				st.PC = next
			}
			return err
		}

	case ppc.OpSync:
		// Strongly consistent single memory image: nothing to order.

	case ppc.OpRfi:
		st.MSR = st.SRR1
		next = st.SRR0 &^ 3

	default:
		if err := ip.memOp(in, st); err != nil {
			var f *mem.Fault
			if ip.DeliverDSI && errors.As(err, &f) {
				ip.deliverDSI(st, f)
				return nil // the faulting instruction did not complete
			}
			return err
		}
	}

	ip.InstCount++
	st.PC = next
	return nil
}

// deliverDSI performs the data-storage-interrupt state swap of §3.3.
func (ip *Interp) deliverDSI(st *ppc.State, f *mem.Fault) {
	st.SRR0 = st.PC
	st.SRR1 = st.MSR
	st.DAR = f.Addr
	if f.Write {
		st.DSISR = 0x0200_0000
	} else {
		st.DSISR = 0x4000_0000
	}
	st.MSR &^= ppc.MsrEE | ppc.MsrPR | ppc.MsrDR | ppc.MsrIR
	st.PC = ppc.VecDSI
}

// dread translates and loads size bytes at effective address ea.
func (ip *Interp) dread(ea uint32, size int) (uint32, error) {
	pa, f := DataTranslate(ip.Mem, &ip.St, ea, false)
	if f != nil {
		return 0, f
	}
	if ip.OnMem != nil {
		ip.OnMem(pa, size, false)
	}
	switch size {
	case 1:
		return ip.Mem.Read8(pa)
	case 2:
		return ip.Mem.Read16(pa)
	default:
		return ip.Mem.Read32(pa)
	}
}

// dwrite translates and stores size bytes at effective address ea.
func (ip *Interp) dwrite(ea uint32, v uint32, size int) error {
	pa, f := DataTranslate(ip.Mem, &ip.St, ea, true)
	if f != nil {
		return f
	}
	if ip.OnMem != nil {
		ip.OnMem(pa, size, true)
	}
	switch size {
	case 1:
		return ip.Mem.Write8(pa, v)
	case 2:
		return ip.Mem.Write16(pa, v)
	default:
		return ip.Mem.Write32(pa, v)
	}
}

// condBranchTaken evaluates a bc/bclr BO/BI condition, decrementing CTR
// when the BO field requests it.
func (ip *Interp) condBranchTaken(in ppc.Inst) bool {
	st := &ip.St
	ctrOK := true
	if in.DecrementsCTR() {
		st.CTR--
		if in.BranchOnCTRZero() {
			ctrOK = st.CTR == 0
		} else {
			ctrOK = st.CTR != 0
		}
	}
	condOK := true
	if in.UsesCond() {
		condOK = ppc.CRBit(st.CR, in.BI) == in.CondSense()
	}
	return ctrOK && condOK
}

func (ip *Interp) memOp(in ppc.Inst, st *ppc.State) error {
	var ea uint32
	switch in.Op {
	case ppc.OpLwzx, ppc.OpLbzx, ppc.OpLhzx, ppc.OpStwx, ppc.OpStbx, ppc.OpSthx:
		ea = ra0(st, in.RA) + st.GPR[in.RB]
	case ppc.OpLwzu, ppc.OpLbzu, ppc.OpLhzu, ppc.OpStwu, ppc.OpStbu, ppc.OpSthu:
		ea = st.GPR[in.RA] + uint32(in.Imm)
	default:
		ea = ra0(st, in.RA) + uint32(in.Imm)
	}

	if in.Op == ppc.OpLmw || in.Op == ppc.OpStmw {
		return ip.multiple(in, st, ea)
	}

	var err error
	switch in.Op {
	case ppc.OpLwz, ppc.OpLwzu, ppc.OpLwzx:
		var v uint32
		if v, err = ip.dread(ea, 4); err == nil {
			st.GPR[in.RT] = v
		}
	case ppc.OpLbz, ppc.OpLbzu, ppc.OpLbzx:
		var v uint32
		if v, err = ip.dread(ea, 1); err == nil {
			st.GPR[in.RT] = v
		}
	case ppc.OpLhz, ppc.OpLhzu, ppc.OpLhzx:
		var v uint32
		if v, err = ip.dread(ea, 2); err == nil {
			st.GPR[in.RT] = v
		}
	case ppc.OpLha:
		var v uint32
		if v, err = ip.dread(ea, 2); err == nil {
			st.GPR[in.RT] = uint32(int32(int16(v)))
		}
	case ppc.OpStw, ppc.OpStwu, ppc.OpStwx:
		err = ip.dwrite(ea, st.GPR[in.RT], 4)
	case ppc.OpStb, ppc.OpStbu, ppc.OpStbx:
		err = ip.dwrite(ea, st.GPR[in.RT], 1)
	case ppc.OpSth, ppc.OpSthu, ppc.OpSthx:
		err = ip.dwrite(ea, st.GPR[in.RT], 2)
	default:
		return fmt.Errorf("interp: unhandled opcode %s at pc %#x", in.Op, st.PC)
	}
	if err != nil {
		return err
	}

	switch in.Op {
	case ppc.OpLwzu, ppc.OpLbzu, ppc.OpLhzu, ppc.OpStwu, ppc.OpStbu, ppc.OpSthu:
		st.GPR[in.RA] = ea
	}
	return nil
}

// multiple implements lmw/stmw, the subset's restartable CISC instructions
// (§3.6): PowerPC permits partial memory modification before a fault as
// long as the instruction can be restarted, so accesses proceed in order.
func (ip *Interp) multiple(in ppc.Inst, st *ppc.State, ea uint32) error {
	for r := int(in.RT); r < 32; r++ {
		if in.Op == ppc.OpLmw {
			v, err := ip.dread(ea, 4)
			if err != nil {
				return err
			}
			st.GPR[r] = v
		} else {
			if err := ip.dwrite(ea, st.GPR[r], 4); err != nil {
				return err
			}
		}
		ea += 4
	}
	return nil
}

func ra0(st *ppc.State, r ppc.Reg) uint32 {
	if r == 0 {
		return 0
	}
	return st.GPR[r]
}

func carryIn(st *ppc.State) uint32 {
	if st.XER&ppc.XerCA != 0 {
		return 1
	}
	return 0
}

func setCA(st *ppc.State, ca bool) {
	if ca {
		st.XER |= ppc.XerCA
	} else {
		st.XER &^= ppc.XerCA
	}
}

func record(st *ppc.State, result uint32) {
	st.CR = ppc.SetCRField(st.CR, 0, ppc.CompareSigned(int32(result), 0, st.XER))
}

func recordIf(st *ppc.State, in ppc.Inst, result uint32) {
	if in.Rc {
		record(st, result)
	}
}
