package vliw

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding of translated VLIW code. The paper stores translated
// pages as binary VLIWs in the translated code area (AssembleVLIWsInto-
// BinaryCode, Figure 2.1); we do the same so that the code-expansion
// numbers of Table 5.1 and Figure 5.4 measure a real representation
// rather than Go object sizes.
//
// Layout per group:
//
//	u32 entry base address
//	u16 VLIW count
//	per VLIW: u32 entry base | u16 body length | body
//
// A body is a preorder tree encoding. Node: u8 parcel count, parcels,
// then u8 terminator: 0xff = condition (crf|sense<<7, bit, u16 taken
// subtree length), otherwise exit kind with its operands. Parcels are
// variable length (4..12 bytes); base-instruction addresses are NOT
// encoded — the paper's no-table design recovers them with the backward/
// forward scan of §3.5, and so does ours.

// Reference byte packing: GPRs 0..63, CR fields 64..79, then specials.
const (
	encCRFBase = 64
	encLR      = 80
	encCTR     = 81
	encXER     = 82
	encNone    = 0xff
)

func encodeRef(r RegRef) byte {
	switch r.Kind {
	case RGPR:
		return r.N
	case RCRF:
		return encCRFBase + r.N
	case RLR:
		return encLR
	case RCTR:
		return encCTR
	case RXER:
		return encXER
	}
	return encNone
}

func decodeRef(b byte) RegRef {
	switch {
	case b < 64:
		return GPR(b)
	case b < 80:
		return CRF(b - encCRFBase)
	case b == encLR:
		return LR
	case b == encCTR:
		return CTR
	case b == encXER:
		return XER
	}
	return None
}

// Parcel flag bits.
const (
	pfSpec = 1 << iota
	pfSpecLoad
	pfVerify
	pfCommitCA
	pfEndsInst
	pfIndexed
	pfSigned
	pfImm32
)

func (p *Parcel) hasImm() bool {
	switch p.Op {
	case PLI, PLIS, PAddI, PAddIS, PAddIC, PSubfIC, PMulI,
		PAndI, PAndIS, POrI, POrIS, PXorI, PXorIS, PCmpI, PCmpLI:
		return true
	case PLoad, PStore:
		return !p.Indexed
	}
	return false
}

// imm32 reports whether the immediate needs four bytes instead of two.
func (p *Parcel) imm32() bool { return p.hasImm() && (p.Imm < -0x8000 || p.Imm > 0x7fff) }

func (p *Parcel) hasRot() bool { return p.Op == PRlwinm || p.Op == PRlwimi || p.Op == PSrawI }

func (p *Parcel) hasCRBits() bool {
	switch p.Op {
	case PCrand, PCror, PCrxor, PCrnand, PCrnor:
		return true
	}
	return false
}

func (p *Parcel) hasCASrc() bool { return p.Op == PAddE || p.Op == PSubfE }

func encodeParcel(out []byte, p *Parcel) []byte {
	flags := byte(0)
	set := func(c bool, b byte) {
		if c {
			flags |= b
		}
	}
	set(p.Spec, pfSpec)
	set(p.SpecLoad, pfSpecLoad)
	set(p.Verify, pfVerify)
	set(p.CommitCA, pfCommitCA)
	set(p.EndsInst, pfEndsInst)
	set(p.Indexed, pfIndexed)
	set(p.Signed, pfSigned)
	imm32 := p.imm32()
	set(imm32, pfImm32)

	out = append(out, byte(p.Op), flags, encodeRef(p.D), encodeRef(p.A))
	out = append(out, encodeRef(p.B))
	if p.hasCASrc() {
		out = append(out, encodeRef(p.CASrc))
	}
	if p.hasImm() {
		if imm32 {
			out = binary.BigEndian.AppendUint32(out, uint32(p.Imm))
		} else {
			out = binary.BigEndian.AppendUint16(out, uint16(p.Imm))
		}
	}
	if p.hasRot() {
		out = append(out, p.SH, p.MB, p.ME)
	}
	if p.hasCRBits() {
		out = append(out, p.BD<<4|p.BA<<2|p.BB)
	}
	if p.Op == PMtcrf {
		out = append(out, p.FXM)
	}
	if p.Op == PLoad || p.Op == PStore {
		out = append(out, p.Size)
	}
	return out
}

// decodeParcel decodes into *p (pre-zeroed by its caller's slice
// allocation) rather than returning a value: Parcel is a large struct,
// and the install path of the persistent translation cache decodes whole
// pages of them on the machine's critical path.
func decodeParcel(p *Parcel, b []byte) (int, error) {
	if len(b) < 5 {
		return 0, fmt.Errorf("vliw: truncated parcel")
	}
	p.Op = Prim(b[0])
	if p.Op >= numPrims {
		return 0, fmt.Errorf("vliw: unknown primitive %d", b[0])
	}
	flags := b[1]
	p.Spec = flags&pfSpec != 0
	p.SpecLoad = flags&pfSpecLoad != 0
	p.Verify = flags&pfVerify != 0
	p.CommitCA = flags&pfCommitCA != 0
	p.EndsInst = flags&pfEndsInst != 0
	p.Indexed = flags&pfIndexed != 0
	p.Signed = flags&pfSigned != 0
	p.D = decodeRef(b[2])
	p.A = decodeRef(b[3])
	p.B = decodeRef(b[4])
	i := 5
	need := func(n int) error {
		if len(b) < i+n {
			return fmt.Errorf("vliw: truncated parcel body")
		}
		return nil
	}
	if p.hasCASrc() {
		if err := need(1); err != nil {
			return 0, err
		}
		p.CASrc = decodeRef(b[i])
		i++
	}
	if p.hasImm() {
		if flags&pfImm32 != 0 {
			if err := need(4); err != nil {
				return 0, err
			}
			p.Imm = int32(binary.BigEndian.Uint32(b[i:]))
			i += 4
		} else {
			if err := need(2); err != nil {
				return 0, err
			}
			p.Imm = int32(int16(binary.BigEndian.Uint16(b[i:])))
			i += 2
		}
	}
	if p.hasRot() {
		if err := need(3); err != nil {
			return 0, err
		}
		p.SH, p.MB, p.ME = b[i], b[i+1], b[i+2]
		i += 3
	}
	if p.hasCRBits() {
		if err := need(1); err != nil {
			return 0, err
		}
		p.BD, p.BA, p.BB = b[i]>>4&3, b[i]>>2&3, b[i]&3
		i++
	}
	if p.Op == PMtcrf {
		if err := need(1); err != nil {
			return 0, err
		}
		p.FXM = b[i]
		i++
	}
	if p.Op == PLoad || p.Op == PStore {
		if err := need(1); err != nil {
			return 0, err
		}
		p.Size = b[i]
		i++
	}
	return i, nil
}

const (
	termCond = 0xff // node continues with a condition split

	// maxNodeParcels is the most parcels a node's count byte may carry.
	// The encoder and CodeSize refuse more, so the decoder does too: a
	// group it accepts can always be encoded again.
	maxNodeParcels = 254
)

// parcelSize is the length of p's encoding (encodeParcel).
func parcelSize(p *Parcel) int {
	n := 5
	if p.hasCASrc() {
		n++
	}
	switch {
	case p.imm32():
		n += 4
	case p.hasImm():
		n += 2
	}
	if p.hasRot() {
		n += 3
	}
	if p.hasCRBits() {
		n++
	}
	if p.Op == PMtcrf {
		n++
	}
	if p.Op == PLoad || p.Op == PStore {
		n++
	}
	return n
}

// vliwIndex returns v's position in g. Groups number their VLIWs by
// position, so the ID is tried first; a scan covers any other numbering.
func vliwIndex(g *Group, v *VLIW) (int, bool) {
	if v != nil && v.ID >= 0 && v.ID < len(g.VLIWs) && g.VLIWs[v.ID] == v {
		return v.ID, true
	}
	for i, w := range g.VLIWs {
		if w == v {
			return i, true
		}
	}
	return 0, false
}

// nodeSize is the length of the subtree at n's encoding (encodeNode). It
// fails where the encoding cannot represent the subtree.
func nodeSize(n *Node, g *Group) (int, error) {
	if len(n.Ops) > maxNodeParcels {
		return 0, fmt.Errorf("vliw: node with %d parcels", len(n.Ops))
	}
	size := 1 // parcel count
	for i := range n.Ops {
		size += parcelSize(&n.Ops[i])
	}
	if !n.Leaf() {
		taken, err := nodeSize(n.Taken, g)
		if err != nil {
			return 0, err
		}
		if taken > 0xffff {
			return 0, fmt.Errorf("vliw: taken subtree too large (%d bytes)", taken)
		}
		fall, err := nodeSize(n.Fall, g)
		if err != nil {
			return 0, err
		}
		return size + 5 + taken + fall, nil // terminator, condition, taken length
	}
	switch n.Exit.Kind {
	case ExitNext:
		if _, ok := vliwIndex(g, n.Exit.Next); !ok {
			return 0, fmt.Errorf("vliw: exit to VLIW outside group")
		}
		return size + 3, nil
	case ExitIndirect:
		return size + 2, nil
	}
	return size + 5, nil
}

// encodeNode appends n's subtree, which nodeSize has already checked.
func encodeNode(out []byte, n *Node, g *Group) []byte {
	out = append(out, byte(len(n.Ops)))
	for i := range n.Ops {
		out = encodeParcel(out, &n.Ops[i])
	}
	if !n.Leaf() {
		cs := byte(n.Cond.CRF)
		if n.Cond.Sense {
			cs |= 0x80
		}
		out = append(out, termCond, cs, n.Cond.Bit)
		lenAt := len(out)
		out = append(out, 0, 0) // patched with taken-subtree length
		out = encodeNode(out, n.Taken, g)
		binary.BigEndian.PutUint16(out[lenAt:], uint16(len(out)-lenAt-2))
		return encodeNode(out, n.Fall, g)
	}
	out = append(out, byte(n.Exit.Kind))
	switch n.Exit.Kind {
	case ExitNext:
		idx, _ := vliwIndex(g, n.Exit.Next)
		out = binary.BigEndian.AppendUint16(out, uint16(idx))
	case ExitIndirect:
		out = append(out, encodeRef(n.Exit.Via))
	default:
		out = binary.BigEndian.AppendUint32(out, n.Exit.Target)
	}
	return out
}

func decodeNode(b []byte) (*Node, int, error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("vliw: truncated node")
	}
	n := &Node{}
	count := int(b[0])
	if count > maxNodeParcels {
		return nil, 0, fmt.Errorf("vliw: node with %d parcels", count)
	}
	i := 1
	if count > 0 {
		n.Ops = make([]Parcel, count)
	}
	for k := 0; k < count; k++ {
		sz, err := decodeParcel(&n.Ops[k], b[i:])
		if err != nil {
			return nil, 0, err
		}
		i += sz
	}
	if len(b) < i+1 {
		return nil, 0, fmt.Errorf("vliw: truncated node terminator")
	}
	term := b[i]
	i++
	if term == termCond {
		if len(b) < i+4 {
			return nil, 0, fmt.Errorf("vliw: truncated condition")
		}
		n.Cond = &Cond{CRF: b[i] & 0x7f, Sense: b[i]&0x80 != 0, Bit: b[i+1]}
		if n.Cond.CRF >= NumCRF || n.Cond.Bit > 3 {
			return nil, 0, fmt.Errorf("vliw: condition on cr%d bit %d", n.Cond.CRF, n.Cond.Bit)
		}
		i += 2
		i += 2 // taken length, only needed by hardware-style skipping
		taken, sz, err := decodeNode(b[i:])
		if err != nil {
			return nil, 0, err
		}
		n.Taken = taken
		i += sz
		fall, sz, err := decodeNode(b[i:])
		if err != nil {
			return nil, 0, err
		}
		n.Fall = fall
		i += sz
		return n, i, nil
	}
	n.Exit.Kind = ExitKind(term)
	switch n.Exit.Kind {
	case ExitNext:
		if len(b) < i+2 {
			return nil, 0, fmt.Errorf("vliw: truncated exit")
		}
		// Successor index resolved by DecodeGroup.
		n.Exit.Target = uint32(binary.BigEndian.Uint16(b[i:]))
		i += 2
	case ExitIndirect:
		if len(b) < i+1 {
			return nil, 0, fmt.Errorf("vliw: truncated exit")
		}
		n.Exit.Via = decodeRef(b[i])
		i++
	case ExitEntry, ExitOffpage, ExitSyscall, ExitInterp:
		if len(b) < i+4 {
			return nil, 0, fmt.Errorf("vliw: truncated exit")
		}
		n.Exit.Target = binary.BigEndian.Uint32(b[i:])
		i += 4
	default:
		return nil, 0, fmt.Errorf("vliw: unknown exit kind %d", term)
	}
	return n, i, nil
}

// EncodeGroup serializes a translated group to its binary form, in one
// buffer of exactly CodeSize bytes.
func EncodeGroup(g *Group) ([]byte, error) {
	size, err := CodeSize(g)
	if err != nil {
		return nil, err
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, size), g.Entry)
	out = binary.BigEndian.AppendUint16(out, uint16(len(g.VLIWs)))
	for _, v := range g.VLIWs {
		out = binary.BigEndian.AppendUint32(out, v.EntryBase)
		lenAt := len(out)
		out = append(out, 0, 0)
		out = encodeNode(out, v.Root, g)
		binary.BigEndian.PutUint16(out[lenAt:], uint16(len(out)-lenAt-2))
	}
	return out, nil
}

// CodeSize returns the length of g's encoding without building it: the
// code size of Table 5.1, counted for every group the translator makes.
// It fails exactly where EncodeGroup does.
func CodeSize(g *Group) (int, error) {
	size := 6 // entry, VLIW count
	for _, v := range g.VLIWs {
		body, err := nodeSize(v.Root, g)
		if err != nil {
			return 0, err
		}
		if body > 0xffff {
			return 0, fmt.Errorf("vliw: VLIW body too large (%d bytes)", body)
		}
		size += 6 + body // entry base, body length
	}
	return size, nil
}

// DecodeGroup parses binary VLIW code produced by EncodeGroup. Base
// instruction addresses are not part of the encoding and decode as zero.
func DecodeGroup(b []byte) (*Group, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("vliw: truncated group header")
	}
	g := &Group{Entry: binary.BigEndian.Uint32(b)}
	count := int(binary.BigEndian.Uint16(b[4:]))
	if count == 0 {
		return nil, fmt.Errorf("vliw: group with no VLIWs")
	}
	i := 6
	for k := 0; k < count; k++ {
		if len(b) < i+6 {
			return nil, fmt.Errorf("vliw: truncated VLIW header")
		}
		entryBase := binary.BigEndian.Uint32(b[i:])
		bodyLen := int(binary.BigEndian.Uint16(b[i+4:]))
		i += 6
		if len(b) < i+bodyLen {
			return nil, fmt.Errorf("vliw: truncated VLIW body")
		}
		root, sz, err := decodeNode(b[i : i+bodyLen])
		if err != nil {
			return nil, err
		}
		if sz != bodyLen {
			return nil, fmt.Errorf("vliw: VLIW body length mismatch (%d != %d)", sz, bodyLen)
		}
		i += bodyLen
		v := &VLIW{ID: k, Root: root, EntryBase: entryBase}
		g.VLIWs = append(g.VLIWs, v)
	}
	// Resolve ExitNext indices into pointers.
	for _, v := range g.VLIWs {
		var bad error
		v.Walk(func(n *Node) {
			if n.Leaf() && n.Exit.Kind == ExitNext {
				idx := int(n.Exit.Target)
				if idx >= len(g.VLIWs) {
					bad = fmt.Errorf("vliw: exit to missing VLIW %d", idx)
					return
				}
				n.Exit.Next = g.VLIWs[idx]
				n.Exit.Target = 0
			}
		})
		if bad != nil {
			return nil, bad
		}
	}
	return g, nil
}
