package vliw

import (
	"errors"
	"fmt"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// Parcel dispatch. Exec runs each parcel through one switch on its handler
// byte p.h, which is resolved on the parcel's first run from its Op,
// operand kinds and flags (resolve) and never changes afterwards, so the
// hot loop neither classifies the primitive nor switches on operand kinds.
// Each primitive's semantics lives in exactly one place: its case in Exec,
// or the one method below that its case calls.
//
// A primitive names the register kind of each operand it accesses (its
// sig, in handlers). resolve sets hDirect when the parcel's operands have
// exactly those kinds — GPRs for arithmetic, loads and stores, condition
// fields for compare results and CR logic — and the case then reads and
// writes those register-file slots directly, through helpers the compiler
// inlines. Any other shape (a CTR source, an LR destination, a zero base)
// takes the general get/put accessors, which switch on the kind.

// errAlias signals a load-verify mismatch (§2.1, Table 5.7): not an
// exception, but the VLIW's speculative work must be discarded.
var errAlias = errors.New("vliw: load-verify mismatch")

// Handler byte layout. No resolved byte is zero: every primitive but PNop
// is non-zero, and PNop, having no operands, is always hDirect.
const (
	hPrim   = 0x3f  // the primitive whose semantics run
	hDirect = 0x40  // operands have the kinds the primitive's sig names
	hBad    = hPrim // the primitive byte of an unknown primitive
)

// sig is the register kind of the D, A and B operands a primitive
// accesses; RNone marks an operand the primitive does not have.
type sig struct{ d, a, b RegKind }

var (
	gprD   = sig{d: RGPR}
	gprA   = sig{a: RGPR}
	gprDA  = sig{RGPR, RGPR, RNone}
	gprDAB = sig{RGPR, RGPR, RGPR} // a load's or store's B only when Indexed
	cmpDA  = sig{RCRF, RGPR, RNone}
	cmpDAB = sig{RCRF, RGPR, RGPR}
	crfDA  = sig{RCRF, RCRF, RNone}
	crfDAB = sig{RCRF, RCRF, RCRF}
)

// handlers is each primitive's sig; PNop's and hBad's are empty.
var handlers = [hPrim + 1]sig{
	PLI: gprD, PLIS: gprD,
	PAddI: gprDA, PAddIS: gprDA, PAddIC: gprDA,
	PAdd: gprDAB, PAddC: gprDAB, PAddE: gprDAB,
	PSubf: gprDAB, PSubfC: gprDAB, PSubfE: gprDAB, PSubfIC: gprDA,
	PNeg: gprDA, PMullw: gprDAB, PMulhwu: gprDAB,
	PDivw: gprDAB, PDivwu: gprDAB, PMulI: gprDA,

	PAnd: gprDAB, PAndc: gprDAB, POr: gprDAB, PNor: gprDAB, PXor: gprDAB, PNand: gprDAB,
	PAndI: gprDA, PAndIS: gprDA, POrI: gprDA, POrIS: gprDA, PXorI: gprDA, PXorIS: gprDA,
	PSlw: gprDAB, PSrw: gprDAB, PSraw: gprDAB, PSrawI: gprDA,
	PCntlzw: gprDA, PExtsb: gprDA, PExtsh: gprDA,
	PRlwinm: gprDA, PRlwimi: gprDAB, // rlwimi's B is the old destination

	PCmpI: cmpDA, PCmpLI: cmpDA, PCmp: cmpDAB, PCmpL: cmpDAB,

	PCrand: crfDAB, PCror: crfDAB, PCrxor: crfDAB, PCrnand: crfDAB, PCrnor: crfDAB,
	PMcrf: crfDA, // also every PCopy between condition fields (see resolve)
	PMfcr: gprD, PMtcrf: gprA,

	PCopy: gprDA, PLoad: gprDAB, PStore: gprDAB,
}

// resolve fills p.h from the parcel's Op, operand kinds and flags, and
// returns it. It reads nothing else, which is why those fields must not
// change once the parcel has run.
func (p *Parcel) resolve() uint8 {
	op := p.Op
	switch {
	case op >= numPrims:
		op = hBad
	case op == PCopy && p.D.Kind == RCRF && p.A.Kind == RCRF:
		op = PMcrf // a condition-field copy is exactly an mcrf
	}
	s := handlers[op]
	if op.IsMem() && !p.Indexed {
		s.b = RNone // the address is A+Imm
	}
	h := uint8(op)
	if fits(s.d, p.D) && fits(s.a, p.A) && fits(s.b, p.B) {
		h |= hDirect
	}
	p.h = h
	return h
}

func fits(k RegKind, r RegRef) bool { return k == RNone || r.Kind == k }

// The methods below hold the semantics of the long or rare primitives, one
// method per case, and the shape-switching accessors and writers those
// use. The hot cases in Exec call them only off the direct, untagged
// path.

// srcA returns a parcel's GPR-kind A operand as of VLIW entry and whether
// it is free of an exception tag.
func (e *Executor) srcA(p *Parcel) (uint32, bool) {
	if p.h&hDirect != 0 {
		return e.gpr(p.A.N)
	}
	return e.get(p.A)
}

// srcAB is srcA for the A and B operands.
func (e *Executor) srcAB(p *Parcel) (a, b uint32, ok bool) {
	if p.h&hDirect != 0 {
		a, okA := e.gpr(p.A.N)
		b, okB := e.gpr(p.B.N)
		return a, b, okA && okB
	}
	a, okA := e.get(p.A)
	b, okB := e.get(p.B)
	return a, b, okA && okB
}

// setD writes v to a parcel's GPR-kind destination.
func (e *Executor) setD(p *Parcel, v uint32) {
	if p.h&hDirect != 0 {
		e.saveGPR(p.D.N)
		e.writeGPR(p.D.N, v)
	} else {
		e.put(p.D, v)
	}
}

// result completes a parcel with a GPR-kind destination: it writes v, or,
// when a source was tagged (ok false), takes the deferred path instead.
func (e *Executor) result(p *Parcel, v uint32, ok bool) error {
	if !ok {
		return e.deferred(p, e.srcFault(p.A, p.B))
	}
	e.setD(p, v)
	return nil
}

// field is result for a condition-field destination.
func (e *Executor) field(p *Parcel, v uint32, ok bool) error {
	switch {
	case !ok:
		return e.deferred(p, e.srcFault(p.A, p.B))
	case p.h&hDirect != 0:
		e.saveCRF(p.D.N)
		e.writeCRF(p.D.N, v)
	default:
		e.put(p.D, v)
	}
	return nil
}

// withCarry completes a primitive that produces a carry: it writes v and
// the carry ca, or, when a source was tagged (ok false), takes the
// deferred path instead.
func (e *Executor) withCarry(p *Parcel, v uint32, ca, ok bool) error {
	if !ok {
		return e.deferred(p, e.srcFault(p.A, p.B))
	}
	e.setD(p, v)
	e.setCarry(p.D, ca)
	return nil
}

// carry completes the add-with-carry-out family: D = x + y + cin.
func (e *Executor) carry(p *Parcel, x, y, cin uint32, ok bool) error {
	r, ca := ppc.AddCarry(x, y, cin)
	return e.withCarry(p, r, ca, ok)
}

// extended completes adde/subfe, D = x + y + carry-in, whose carry-in
// source takes part in tagging too.
func (e *Executor) extended(p *Parcel, x, y uint32, ok bool) error {
	if p.CASrc.Kind == RGPR {
		_, okC := e.gpr(p.CASrc.N)
		ok = ok && okC
	}
	if !ok {
		return e.deferred(p, e.srcFault(p.A, p.B, p.CASrc))
	}
	return e.carry(p, x, y, e.carryOf(p.CASrc), true)
}

// crLogic runs a condition-register bit operation: bit BD of field D
// becomes op(bit BA of field A, bit BB of field B), a read-modify-write of
// D.
func (e *Executor) crLogic(p *Parcel, op ppc.Opcode) error {
	var a, b, d uint32
	var okA, okB, okD bool
	if p.h&hDirect != 0 {
		a, okA = e.crf(p.A.N)
		b, okB = e.crf(p.B.N)
		d, okD = e.crf(p.D.N)
	} else {
		a, okA = e.get(p.A)
		b, okB = e.get(p.B)
		d, okD = e.get(p.D)
	}
	if !okA || !okB || !okD {
		return e.deferred(p, e.srcFault(p.A, p.B, p.D))
	}
	m := uint8(1) << (3 - p.BD)
	nv := uint8(d) &^ m
	if ppc.CrOp(op, uint8(a)>>(3-p.BA)&1 != 0, uint8(b)>>(3-p.BB)&1 != 0) {
		nv |= m
	}
	return e.field(p, uint32(nv), true)
}

// mfcr assembles the architected CR from fields 0..7 into D.
func (e *Executor) mfcr(p *Parcel) error {
	var cr uint32
	for f := uint8(0); f < 8; f++ {
		fv, ok := e.crf(f)
		if !ok {
			return taggedErr(p, e.srcFault(CRF(f)))
		}
		cr = ppc.SetCRField(cr, f, uint8(fv))
	}
	e.setD(p, cr)
	return nil
}

// mtcrf writes the CR fields FXM selects from the fields of A.
func (e *Executor) mtcrf(p *Parcel) error {
	v, ok := e.srcA(p)
	if !ok {
		return taggedErr(p, e.srcFault(p.A))
	}
	for f := uint8(0); f < 8; f++ {
		if p.FXM&(0x80>>f) != 0 {
			e.saveCRF(f)
			e.writeCRF(f, uint32(ppc.CRField(v, f)))
		}
	}
	return nil
}

// loadHooks runs a load's hooks on its effective address ea: the address
// translation, the fault hook and the data-access observer. It returns
// the address to read, or the fault a hook raised.
func (e *Executor) loadHooks(p *Parcel, ea uint32) (uint32, *mem.Fault) {
	if e.AddrXlate != nil {
		pa, xf := e.AddrXlate(ea, false)
		if xf != nil {
			return 0, xf
		}
		ea = pa
	}
	if e.FaultHook != nil {
		if f := e.FaultHook(p.BaseAddr, ea, int(p.Size), false); f != nil {
			return 0, f
		}
	}
	if e.OnMem != nil {
		e.OnMem(ea, int(p.Size), false)
	}
	return ea, nil
}

// loadFault handles a load whose read of ea failed with err: a committed
// load raises it, a speculative one only tags its destination, as does a
// load from memory-mapped I/O space (§2.1).
func (e *Executor) loadFault(p *Parcel, ea uint32, err error) error {
	if !p.Spec {
		return err
	}
	mf, isFault := err.(*mem.Fault)
	if !isFault {
		mf = &mem.Fault{Addr: ea}
	}
	return e.deferred(p, mf)
}

// eaFault returns the fault behind a tagged effective address.
func (e *Executor) eaFault(p *Parcel) *mem.Fault {
	if p.Indexed {
		return e.srcFault(p.A, p.B)
	}
	return e.srcFault(p.A)
}

// verify re-checks a speculated load at its commit copy: when memory no
// longer holds the value v the load returned — a bypassed store (or
// another processor) changed the location — all speculative work is
// discarded and re-executed from the load (§2.1 / Table 5.7).
func (e *Executor) verify(p *Parcel, v uint32) error {
	rec := e.spec[p.A.N]
	if !rec.valid {
		return nil
	}
	if e.AliasHook != nil && e.AliasHook(p.BaseAddr, rec.addr) {
		return errAlias
	}
	fresh, err := e.readMem(rec.addr, rec.size, rec.signed)
	if err != nil {
		return err
	}
	if fresh != v {
		return errAlias
	}
	return nil
}

// commitCA moves GPR n's carry extender bit, as of VLIW entry, into
// XER[CA].
func (e *Executor) commitCA(n uint8) {
	ca := e.entryCA(n)
	e.save(XER)
	if ca {
		e.RF.XER |= ppc.XerCA
	} else {
		e.RF.XER &^= ppc.XerCA
	}
}

// deferred applies §2.1 to a parcel whose result would carry fault f: a
// speculative parcel tags its destination instead of faulting, a
// committing one raises the exception.
func (e *Executor) deferred(p *Parcel, f *mem.Fault) error {
	if p.Spec {
		e.setTagged(p.D, f)
		return nil
	}
	return taggedErr(p, f)
}

// srcFault returns the first fault payload among srcs as of VLIW entry.
func (e *Executor) srcFault(srcs ...RegRef) *mem.Fault {
	for _, r := range srcs {
		if _, _, f := e.read(r); f != nil {
			return f
		}
	}
	return nil
}

func taggedErr(p *Parcel, f *mem.Fault) error {
	if f != nil {
		return f
	}
	return fmt.Errorf("vliw: %s consumed tagged register", p.Op)
}

func unknownPrim(p *Parcel) error {
	return fmt.Errorf("vliw: unimplemented primitive %s", p.Op)
}
