package vliw

import "fmt"

// NumGPR is the VLIW general register count; r32..r63 are not architected
// in the base architecture and are used for renaming.
const NumGPR = 64

// FirstNonArchGPR is the first register invisible to the base architecture.
const FirstNonArchGPR = 32

// NumCRF is the VLIW condition-field count; cr8..cr15 are non-architected.
const NumCRF = 16

// FirstNonArchCRF is the first non-architected condition field.
const FirstNonArchCRF = 8

// RegKind classifies a RegRef.
type RegKind uint8

const (
	RNone RegKind = iota // absent operand (reads as zero)
	RGPR                 // general register 0..63
	RCRF                 // condition register field 0..15
	RLR                  // link register
	RCTR                 // count register
	RXER                 // fixed point exception register
)

// RegRef names one VLIW register.
type RegRef struct {
	Kind RegKind
	N    uint8
}

// GPR returns a general register reference.
func GPR(n uint8) RegRef { return RegRef{RGPR, n} }

// CRF returns a condition field reference.
func CRF(n uint8) RegRef { return RegRef{RCRF, n} }

// LR, CTR and XER are the special register references.
var (
	LR  = RegRef{RLR, 0}
	CTR = RegRef{RCTR, 0}
	XER = RegRef{RXER, 0}
)

// None is the absent operand.
var None = RegRef{}

// Arch reports whether the register is architected in the base
// architecture (writing it is an in-order commit).
func (r RegRef) Arch() bool {
	switch r.Kind {
	case RGPR:
		return r.N < FirstNonArchGPR
	case RCRF:
		return r.N < FirstNonArchCRF
	case RLR, RCTR, RXER:
		return true
	}
	return false
}

func (r RegRef) String() string {
	switch r.Kind {
	case RNone:
		return "-"
	case RGPR:
		return fmt.Sprintf("r%d", r.N)
	case RCRF:
		return fmt.Sprintf("cr%d", r.N)
	case RLR:
		return "lr"
	case RCTR:
		return "ctr"
	case RXER:
		return "xer"
	}
	return "?"
}

// Prim enumerates the RISC primitives a base instruction is cracked into.
type Prim uint8

const (
	PNop Prim = iota // bookkeeping parcel (base-instruction boundary marker)

	// Integer arithmetic. The C-suffixed forms produce a carry, the
	// E-suffixed forms additionally consume one (from Parcel.CASrc).
	PLI    // D = Imm
	PLIS   // D = Imm << 16
	PAddI  // D = A + Imm
	PAddIS // D = A + (Imm << 16)
	PAddIC // D = A + Imm, carry out
	PAdd
	PAddC
	PAddE
	PSubf // D = B - A
	PSubfC
	PSubfE
	PSubfIC // D = Imm - A, carry out
	PNeg
	PMullw
	PMulhwu
	PDivw
	PDivwu
	PMulI // D = A * Imm

	// Logic and shifts.
	PAnd
	PAndc
	POr
	PNor
	PXor
	PNand
	PAndI
	PAndIS
	POrI
	POrIS
	PXorI
	PXorIS
	PSlw
	PSrw
	PSraw  // carry out
	PSrawI // carry out
	PCntlzw
	PExtsb
	PExtsh
	PRlwinm // D = rotl(A, SH) & mask(MB, ME)
	PRlwimi // D = rotl(A, SH)&mask | B&^mask   (B is the old destination)

	// Compares write a condition field.
	PCmpI
	PCmpLI
	PCmp
	PCmpL

	// Condition register bit logic: field refs in D/A/B, bit-in-field
	// positions in BD/BA/BB.
	PCrand
	PCror
	PCrxor
	PCrnand
	PCrnor
	PMcrf  // D(field) = A(field)
	PMfcr  // D(gpr) = architected CR assembled from fields 0..7
	PMtcrf // CR fields selected by FXM = fields of A(gpr)

	// PCopy moves any register to any register. With Spec=false it is the
	// in-order commit operation: a tagged source raises the deferred
	// exception (§2.1). CommitCA also moves the carry extender bit to XER.
	// Verify additionally re-checks a speculated load (load-verify).
	PCopy

	// Memory.
	PLoad  // D = mem[ea]; ea = A+Imm or A+B (Indexed); Size 1/2/4; Signed
	PStore // mem[ea] = D

	numPrims
)

var primNames = [numPrims]string{
	PNop: "nop", PLI: "li", PLIS: "lis", PAddI: "addi", PAddIS: "addis",
	PAddIC: "addic", PAdd: "add", PAddC: "addc", PAddE: "adde",
	PSubf: "subf", PSubfC: "subfc", PSubfE: "subfe", PSubfIC: "subfic",
	PNeg: "neg", PMullw: "mullw", PMulhwu: "mulhwu", PDivw: "divw",
	PDivwu: "divwu", PMulI: "mulli",
	PAnd: "and", PAndc: "andc", POr: "or", PNor: "nor", PXor: "xor",
	PNand: "nand", PAndI: "andi", PAndIS: "andis", POrI: "ori",
	POrIS: "oris", PXorI: "xori", PXorIS: "xoris",
	PSlw: "slw", PSrw: "srw", PSraw: "sraw", PSrawI: "srawi",
	PCntlzw: "cntlzw", PExtsb: "extsb", PExtsh: "extsh",
	PRlwinm: "rlwinm", PRlwimi: "rlwimi",
	PCmpI: "cmpi", PCmpLI: "cmpli", PCmp: "cmp", PCmpL: "cmpl",
	PCrand: "crand", PCror: "cror", PCrxor: "crxor", PCrnand: "crnand",
	PCrnor: "crnor", PMcrf: "mcrf", PMfcr: "mfcr", PMtcrf: "mtcrf",
	PCopy: "copy", PLoad: "load", PStore: "store",
}

func (p Prim) String() string {
	if int(p) < len(primNames) && primNames[p] != "" {
		return primNames[p]
	}
	return fmt.Sprintf("prim(%d)", uint8(p))
}

// IsMem reports whether the primitive occupies a memory-unit slot.
func (p Prim) IsMem() bool { return p == PLoad || p == PStore }

// Parcel is one primitive operation inside a VLIW.
//
// Invariant: Op, the kinds of its register operands and its flags are
// fixed once the parcel has run, because its first run resolves them into
// its handler. Every other field — register numbers, Imm, the rotate, bit
// and mask fields, Size, BaseAddr, Deopt — is read live on every run, so
// editing one after the parcel has executed takes effect at once.
type Parcel struct {
	Op    Prim
	D     RegRef // destination (the value source for PStore)
	A, B  RegRef
	CASrc RegRef // carry-in: None means the XER CA bit, else a GPR extender

	// h is the parcel's resolved handler (see resolve), zero until the
	// parcel first runs. It sits in what would otherwise be padding, so a
	// Parcel stays 40 bytes.
	h uint8

	Imm int32

	SH, MB, ME uint8 // rotate fields
	BD, BA, BB uint8 // bit-in-field for CR-bit logic
	FXM        uint8 // mtcrf mask
	Size       uint8 // memory access width
	Signed     bool  // sign-extending load
	Indexed    bool  // effective address is A+B rather than A+Imm

	Spec     bool // speculative: errors set the tag instead of faulting
	SpecLoad bool // load hoisted above a store; record for verification
	Verify   bool // commit copy of a speculated load: re-check memory
	CommitCA bool // commit copy also moves the CA extender into XER

	EndsInst bool   // completes the base instruction at BaseAddr
	BaseAddr uint32 // originating base-architecture instruction address

	// Deopt, when non-zero on an EndsInst parcel of a tier-2 group, is
	// 1+index into Group.Deopt: the commit records describing which
	// architected results are still pending in rename registers at this
	// precise-exception boundary. Zero means no pending renames. The field
	// is translator metadata — it is not encoded into the binary format
	// (tier-2 groups never reach the persistent cache).
	Deopt int32
}

func (p Parcel) String() string {
	s := fmt.Sprintf("%s %s", p.Op, p.D)
	if p.A.Kind != RNone {
		s += "," + p.A.String()
	}
	if p.B.Kind != RNone {
		s += "," + p.B.String()
	}
	switch p.Op {
	case PLI, PLIS, PAddI, PAddIS, PAddIC, PSubfIC, PMulI,
		PAndI, PAndIS, POrI, POrIS, PXorI, PXorIS, PCmpI, PCmpLI:
		s += fmt.Sprintf(",%d", p.Imm)
	case PRlwinm, PRlwimi:
		s += fmt.Sprintf(",%d,%d,%d", p.SH, p.MB, p.ME)
	case PSrawI:
		s += fmt.Sprintf(",%d", p.SH)
	case PLoad, PStore:
		if p.Indexed {
			s = fmt.Sprintf("%s%d %s,%s(%s)", p.Op, p.Size*8, p.D, p.A, p.B)
		} else {
			s = fmt.Sprintf("%s%d %s,%d(%s)", p.Op, p.Size*8, p.D, p.Imm, p.A)
		}
	}
	if p.Spec {
		s += " [spec]"
	}
	if p.Verify {
		s += " [verify]"
	}
	return s
}

// IsCommitLike reports whether the parcel writes architected state (and so
// must appear in base program order on its path).
func (p Parcel) IsCommitLike() bool {
	if p.Op == PStore {
		return true
	}
	if p.Op == PMtcrf || p.Op == PMfcr {
		return true
	}
	return p.D.Arch()
}
