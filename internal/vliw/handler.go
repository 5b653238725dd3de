package vliw

import (
	"errors"
	"fmt"
	"math/bits"

	"daisy/internal/mem"
	"daisy/internal/ppc"
)

// Parcel handlers. Exec runs each parcel through handlers[p.h&hPrim]. The
// handler byte p.h is resolved on the parcel's first run from its Op,
// operand kinds and flags (resolve) and never changes afterwards, so the
// hot loop neither classifies the primitive nor switches on operand kinds.
// Each primitive's semantics lives in exactly one handler.
//
// A handler names the register kind of each operand it accesses (its sig).
// resolve sets hDirect when the parcel's operands have exactly those
// kinds — GPRs for arithmetic, loads and stores, condition fields for
// compare results and CR logic — and the handler then reads and writes
// those register-file slots directly. Any other shape (a CTR source, an
// LR destination, a zero base) takes the general get/put accessors, which
// switch on the kind.

// A handler runs one parcel with parallel semantics: sources are read as
// of VLIW entry and results written through to the register file. It
// returns nil, errAlias for a load-verify mismatch, or the exception that
// rolls the VLIW back.
type handler func(e *Executor, p *Parcel) error

// errAlias signals a load-verify mismatch (§2.1, Table 5.7): not an
// exception, but the VLIW's speculative work must be discarded.
var errAlias = errors.New("vliw: load-verify mismatch")

// Handler byte layout. No resolved byte is zero: every handler index but
// PNop's is non-zero, and PNop, having no operands, is always hDirect.
const (
	hPrim   = 0x3f  // index into handlers: the primitive whose semantics run
	hDirect = 0x40  // operands have the kinds the handler's sig names
	hEnds   = 0x80  // the parcel's EndsInst flag
	hBad    = hPrim // index of the handler for an unknown primitive
)

// sig is the register kind of the D, A and B operands a handler accesses;
// RNone marks an operand the primitive does not have.
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

var handlers = [hPrim + 1]struct {
	sig
	run handler
}{
	// Bookkeeping parcel: only its EndsInst counts, so Exec skips the call.
	PNop: {sig{}, func(*Executor, *Parcel) error { return nil }},

	PLI:     {gprD, func(e *Executor, p *Parcel) error { return e.result(p, uint32(p.Imm), true) }},
	PLIS:    {gprD, func(e *Executor, p *Parcel) error { return e.result(p, uint32(p.Imm)<<16, true) }},
	PAddI:   {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a+uint32(p.Imm), ok) }},
	PAddIS:  {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a+uint32(p.Imm)<<16, ok) }},
	PAddIC:  {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.carry(p, a, uint32(p.Imm), 0, ok) }},
	PAdd:    {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, a+b, ok) }},
	PAddC:   {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.carry(p, a, b, 0, ok) }},
	PAddE:   {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.extended(p, a, b, ok) }},
	PSubf:   {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, b-a, ok) }},
	PSubfC:  {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.carry(p, ^a, b, 1, ok) }},
	PSubfE:  {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.extended(p, ^a, b, ok) }},
	PSubfIC: {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.carry(p, ^a, uint32(p.Imm), 1, ok) }},
	PNeg:    {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, -a, ok) }},
	PMullw:  {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, a*b, ok) }},
	PMulhwu: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.result(p, uint32(uint64(a)*uint64(b)>>32), ok)
	}},
	PDivw: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.result(p, ppc.DivSigned(a, b), ok)
	}},
	PDivwu: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.result(p, ppc.DivUnsigned(a, b), ok)
	}},
	PMulI: {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, uint32(int32(a)*p.Imm), ok) }},

	PAnd:   {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, a&b, ok) }},
	PAndc:  {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, a&^b, ok) }},
	POr:    {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, a|b, ok) }},
	PNor:   {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, ^(a | b), ok) }},
	PXor:   {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, a^b, ok) }},
	PNand:  {gprDAB, func(e *Executor, p *Parcel) error { a, b, ok := e.srcAB(p); return e.result(p, ^(a & b), ok) }},
	PAndI:  {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a&uint32(p.Imm), ok) }},
	PAndIS: {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a&(uint32(p.Imm)<<16), ok) }},
	POrI:   {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a|uint32(p.Imm), ok) }},
	POrIS:  {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a|uint32(p.Imm)<<16, ok) }},
	PXorI:  {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a^uint32(p.Imm), ok) }},
	PXorIS: {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, a^uint32(p.Imm)<<16, ok) }},
	PSlw: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.result(p, ppc.ShiftLeft(a, b), ok)
	}},
	PSrw: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.result(p, ppc.ShiftRight(a, b), ok)
	}},
	PSraw: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		r, ca := ppc.ShiftRightAlg(a, b&0x3f)
		return e.withCarry(p, r, ca, ok)
	}},
	PSrawI: {gprDA, func(e *Executor, p *Parcel) error {
		a, ok := e.srcA(p)
		r, ca := ppc.ShiftRightAlg(a, uint32(p.SH))
		return e.withCarry(p, r, ca, ok)
	}},
	PCntlzw: {gprDA, func(e *Executor, p *Parcel) error {
		a, ok := e.srcA(p)
		return e.result(p, uint32(bits.LeadingZeros32(a)), ok)
	}},
	PExtsb: {gprDA, func(e *Executor, p *Parcel) error { a, ok := e.srcA(p); return e.result(p, uint32(int32(int8(a))), ok) }},
	PExtsh: {gprDA, func(e *Executor, p *Parcel) error {
		a, ok := e.srcA(p)
		return e.result(p, uint32(int32(int16(a))), ok)
	}},
	PRlwinm: {gprDA, func(e *Executor, p *Parcel) error {
		a, ok := e.srcA(p)
		return e.result(p, bits.RotateLeft32(a, int(p.SH))&ppc.RotateMask(p.MB, p.ME), ok)
	}},
	PRlwimi: {gprDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p) // B is the old destination
		m := ppc.RotateMask(p.MB, p.ME)
		return e.result(p, bits.RotateLeft32(a, int(p.SH))&m|b&^m, ok)
	}},

	PCmpI: {cmpDA, func(e *Executor, p *Parcel) error {
		a, ok := e.srcA(p)
		return e.field(p, uint32(ppc.CompareSigned(int32(a), p.Imm, e.entryXER())), ok)
	}},
	PCmpLI: {cmpDA, func(e *Executor, p *Parcel) error {
		a, ok := e.srcA(p)
		return e.field(p, uint32(ppc.CompareUnsigned(a, uint32(p.Imm), e.entryXER())), ok)
	}},
	PCmp: {cmpDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.field(p, uint32(ppc.CompareSigned(int32(a), int32(b), e.entryXER())), ok)
	}},
	PCmpL: {cmpDAB, func(e *Executor, p *Parcel) error {
		a, b, ok := e.srcAB(p)
		return e.field(p, uint32(ppc.CompareUnsigned(a, b, e.entryXER())), ok)
	}},

	PCrand:  {crfDAB, func(e *Executor, p *Parcel) error { return e.crLogic(p, ppc.OpCrand) }},
	PCror:   {crfDAB, func(e *Executor, p *Parcel) error { return e.crLogic(p, ppc.OpCror) }},
	PCrxor:  {crfDAB, func(e *Executor, p *Parcel) error { return e.crLogic(p, ppc.OpCrxor) }},
	PCrnand: {crfDAB, func(e *Executor, p *Parcel) error { return e.crLogic(p, ppc.OpCrnand) }},
	PCrnor:  {crfDAB, func(e *Executor, p *Parcel) error { return e.crLogic(p, ppc.OpCrnor) }},
	// PMcrf also runs every PCopy between condition fields (see resolve).
	PMcrf: {crfDA, func(e *Executor, p *Parcel) error { v, ok := e.fieldA(p); return e.field(p, v, ok) }},
	PMfcr: {gprD, func(e *Executor, p *Parcel) error {
		var cr uint32
		for f := uint8(0); f < 8; f++ {
			fv, ok := e.crf(f)
			if !ok {
				return taggedErr(p, e.srcFault(CRF(f)))
			}
			cr = ppc.SetCRField(cr, f, uint8(fv))
		}
		return e.result(p, cr, true)
	}},
	PMtcrf: {gprA, func(e *Executor, p *Parcel) error {
		v, ok := e.srcA(p)
		if !ok {
			return taggedErr(p, e.srcFault(p.A))
		}
		for f := uint8(0); f < 8; f++ {
			if p.FXM&(0x80>>f) != 0 {
				e.setCRF(f, uint32(ppc.CRField(v, f)))
			}
		}
		return nil
	}},

	PCopy: {gprDA, func(e *Executor, p *Parcel) error {
		v, ok := e.srcA(p)
		if !ok {
			// On a commit copy the deferred exception of §2.1 fires here.
			return e.deferred(p, e.srcFault(p.A))
		}
		if p.Verify && p.A.Kind == RGPR {
			if err := e.verify(p, v); err != nil {
				return err
			}
		}
		e.setD(p, v)
		if p.CommitCA && p.A.Kind == RGPR {
			e.commitCA(p.A.N)
		}
		return nil
	}},

	PLoad: {gprDAB, func(e *Executor, p *Parcel) error {
		ea, ok := e.ea(p)
		if !ok {
			return e.deferred(p, e.eaFault(p))
		}
		if e.AddrXlate != nil {
			pa, xf := e.AddrXlate(ea, false)
			if xf != nil {
				return e.deferred(p, xf)
			}
			ea = pa
		}
		if e.FaultHook != nil {
			if f := e.FaultHook(p.BaseAddr, ea, int(p.Size), false); f != nil {
				return e.deferred(p, f)
			}
		}
		if e.OnMem != nil {
			e.OnMem(ea, int(p.Size), false)
		}
		v, err := e.readMem(ea, p.Size, p.Signed)
		if err != nil {
			if !p.Spec {
				return err
			}
			// A speculative load that faults only tags its destination;
			// memory-mapped I/O space behaves the same way (§2.1).
			mf, isFault := err.(*mem.Fault)
			if !isFault {
				mf = &mem.Fault{Addr: ea}
			}
			return e.deferred(p, mf)
		}
		e.Stats.Loads++
		e.setD(p, v)
		if p.SpecLoad && p.D.Kind == RGPR {
			e.spec[p.D.N] = specRec{valid: true, addr: ea, size: p.Size, signed: p.Signed}
		}
		return nil
	}},
	PStore: {gprDAB, func(e *Executor, p *Parcel) error {
		v, ok := e.srcD(p)
		if !ok {
			return taggedErr(p, e.srcFault(p.D))
		}
		ea, ok := e.ea(p)
		if !ok {
			return taggedErr(p, e.eaFault(p))
		}
		if e.AddrXlate != nil {
			pa, xf := e.AddrXlate(ea, true)
			if xf != nil {
				return xf
			}
			ea = pa
		}
		e.stores = append(e.stores, pendingStore{addr: ea, size: p.Size, val: v, pc: p.BaseAddr})
		return nil
	}},

	hBad: {sig{}, func(_ *Executor, p *Parcel) error { return fmt.Errorf("vliw: unimplemented primitive %s", p.Op) }},
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
	s := handlers[op].sig
	if op.IsMem() && !p.Indexed {
		s.b = RNone // the address is A+Imm
	}
	h := uint8(op)
	if fits(s.d, p.D) && fits(s.a, p.A) && fits(s.b, p.B) {
		h |= hDirect
	}
	if p.EndsInst {
		h |= hEnds
	}
	p.h = h
	return h
}

func fits(k RegKind, r RegRef) bool { return k == RNone || r.Kind == k }

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

// srcD returns a store's value operand, D.
func (e *Executor) srcD(p *Parcel) (uint32, bool) {
	if p.h&hDirect != 0 {
		return e.gpr(p.D.N)
	}
	return e.get(p.D)
}

// fieldA returns a parcel's condition-field A operand.
func (e *Executor) fieldA(p *Parcel) (uint32, bool) {
	if p.h&hDirect != 0 {
		return e.crf(p.A.N)
	}
	return e.get(p.A)
}

// setD writes v to a parcel's GPR-kind destination.
func (e *Executor) setD(p *Parcel, v uint32) {
	if p.h&hDirect != 0 {
		e.setGPR(p.D.N, v)
	} else {
		e.put(p.D, v)
	}
}

// result completes a parcel with a GPR-kind destination: it writes v, or,
// when a source was tagged (ok false), takes the deferred path instead.
func (e *Executor) result(p *Parcel, v uint32, ok bool) error {
	switch {
	case !ok:
		return e.deferred(p, e.srcFault(p.A, p.B))
	case p.h&hDirect != 0:
		e.setGPR(p.D.N, v)
	default:
		e.put(p.D, v)
	}
	return nil
}

// withCarry is result for a primitive that also produces a carry.
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

// field completes a parcel with a condition-field destination.
func (e *Executor) field(p *Parcel, v uint32, ok bool) error {
	switch {
	case !ok:
		return e.deferred(p, e.srcFault(p.A, p.B))
	case p.h&hDirect != 0:
		e.setCRF(p.D.N, v)
	default:
		e.put(p.D, v)
	}
	return nil
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

// ea returns a memory parcel's effective address, A+B when Indexed and
// A+Imm otherwise, and whether its sources are untagged.
func (e *Executor) ea(p *Parcel) (uint32, bool) {
	if p.Indexed {
		a, b, ok := e.srcAB(p)
		return a + b, ok
	}
	a, ok := e.srcA(p)
	return a + uint32(p.Imm), ok
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
