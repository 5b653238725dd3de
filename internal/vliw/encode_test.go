package vliw

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"daisy/internal/ppc"
)

// stripBase zeroes fields that are deliberately not encoded (the paper's
// no-table design: base addresses are recovered by the §3.5 scan).
func stripGroup(g *Group) {
	for _, v := range g.VLIWs {
		v.Addr = 0
		v.FreeGPR = 0
		v.FreeCRF = 0
		v.NALU, v.NMem, v.NBr = 0, 0, 0
		v.Walk(func(n *Node) {
			for i := range n.Ops {
				n.Ops[i].BaseAddr = 0
			}
		})
	}
	g.BaseInsts = 0
	g.Parcels = 0
}

func sampleGroup() *Group {
	v0 := NewVLIW(0, 0x1000)
	v1 := NewVLIW(1, 0x1008)
	v0.Root = &Node{
		Ops: []Parcel{
			{Op: PAdd, D: GPR(1), A: GPR(2), B: GPR(3), EndsInst: true, BaseAddr: 0x1000},
			{Op: PXor, D: GPR(63), A: GPR(5), B: GPR(6), Spec: true},
			{Op: PLoad, D: GPR(40), A: GPR(9), Imm: -8, Size: 4, Spec: true, SpecLoad: true},
			{Op: PAddIC, D: GPR(41), A: GPR(1), Imm: 0x12345, Spec: true},
			{Op: PRlwinm, D: GPR(12), A: GPR(1), SH: 3, MB: 0, ME: 28},
			{Op: PCrand, D: CRF(0), A: CRF(1), B: CRF(2), BD: 1, BA: 2, BB: 3},
			{Op: PMtcrf, A: GPR(9), FXM: 0x81},
			{Op: PAddE, D: GPR(4), A: GPR(1), B: GPR(2), CASrc: GPR(41)},
		},
		Cond:  &Cond{CRF: 0, Bit: ppc.CrEQ, Sense: true},
		Taken: &Node{Exit: Exit{Kind: ExitOffpage, Target: 0x2084}},
		Fall: &Node{
			Ops: []Parcel{
				{Op: PCopy, D: GPR(4), A: GPR(63), EndsInst: true},
				{Op: PStore, D: GPR(4), A: GPR(9), B: GPR(10), Indexed: true, Size: 2},
				{Op: PCopy, D: GPR(5), A: GPR(40), Verify: true, CommitCA: true},
			},
			Exit: Exit{Kind: ExitNext},
		},
	}
	v0.Root.Fall.Exit.Next = v1
	v1.Root = &Node{
		Ops: []Parcel{
			{Op: PLoad, D: GPR(7), A: GPR(9), Size: 2, Signed: true},
			{Op: PMcrf, D: CRF(3), A: CRF(9)},
			{Op: PMfcr, D: GPR(11)},
		},
		Cond:  &Cond{CRF: 9, Bit: ppc.CrLT, Sense: false},
		Taken: &Node{Exit: Exit{Kind: ExitIndirect, Via: LR}},
		Fall:  &Node{Exit: Exit{Kind: ExitEntry, Target: 0x1040}},
	}
	return &Group{Entry: 0x1000, VLIWs: []*VLIW{v0, v1}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := sampleGroup()
	b, err := EncodeGroup(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGroup(b)
	if err != nil {
		t.Fatal(err)
	}
	stripGroup(g)
	stripGroup(got)
	if g.Entry != got.Entry || len(g.VLIWs) != len(got.VLIWs) {
		t.Fatalf("group header mismatch")
	}
	for i := range g.VLIWs {
		a, b := g.VLIWs[i], got.VLIWs[i]
		if a.EntryBase != b.EntryBase {
			t.Errorf("VLIW%d EntryBase %#x != %#x", i, a.EntryBase, b.EntryBase)
		}
		if !equalNode(a.Root, b.Root) {
			t.Errorf("VLIW%d tree mismatch:\nwant %+v\ngot  %+v", i, a.Root, b.Root)
		}
	}
}

func equalNode(a, b *Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !reflect.DeepEqual(a.Ops[i], b.Ops[i]) {
			return false
		}
	}
	if (a.Cond == nil) != (b.Cond == nil) {
		return false
	}
	if a.Cond != nil {
		if *a.Cond != *b.Cond {
			return false
		}
		return equalNode(a.Taken, b.Taken) && equalNode(a.Fall, b.Fall)
	}
	if a.Exit.Kind != b.Exit.Kind || a.Exit.Target != b.Exit.Target || a.Exit.Via != b.Exit.Via {
		return false
	}
	if (a.Exit.Next == nil) != (b.Exit.Next == nil) {
		return false
	}
	if a.Exit.Next != nil && a.Exit.Next.ID != b.Exit.Next.ID {
		return false
	}
	return true
}

func TestCodeSizeNonZero(t *testing.T) {
	g := sampleGroup()
	n, err := CodeSize(g)
	if err != nil {
		t.Fatal(err)
	}
	if n < 40 {
		t.Fatalf("CodeSize = %d, implausibly small", n)
	}
	b, _ := EncodeGroup(g)
	if n != len(b) {
		t.Fatal("CodeSize disagrees with EncodeGroup")
	}
}

// TestEncodeLimits covers the groups the encoding cannot represent:
// CodeSize and EncodeGroup must both reject each one. Of these, decoding
// can produce only the 255-parcel node (a count byte of 0xff), so the
// decoder fuzzer cannot reach the others. A group whose VLIW IDs are not
// their positions still encodes, at the size CodeSize counts.
func TestEncodeLimits(t *testing.T) {
	// wide chains n nodes of 254 ten-byte loads down the Fall side of
	// conditions, so the body grows past 0xffff bytes while every taken
	// subtree stays small.
	wide := func(n int) *Node {
		root := &Node{Exit: Exit{Kind: ExitEntry, Target: 0x1040}}
		for i := 0; i < n; i++ {
			ops := make([]Parcel, 254)
			for k := range ops {
				ops[k] = Parcel{Op: PLoad, D: GPR(40), A: GPR(9), Imm: 0x12345, Size: 4}
			}
			root = &Node{Ops: ops, Cond: &Cond{CRF: 0, Bit: ppc.CrEQ, Sense: true},
				Taken: &Node{Exit: Exit{Kind: ExitEntry, Target: 0x1000}}, Fall: root}
		}
		return root
	}
	for _, c := range []struct {
		want string // the error names this
		mut  func(*Group)
	}{
		{"node with 255 parcels", func(g *Group) { g.VLIWs[1].Root.Ops = make([]Parcel, 255) }},
		{"VLIW body too large", func(g *Group) { g.VLIWs[1].Root = wide(30) }},
		{"taken subtree too large", func(g *Group) { g.VLIWs[1].Root.Taken = wide(30) }},
		{"exit to VLIW outside group", func(g *Group) { g.VLIWs[0].Root.Fall.Exit.Next = NewVLIW(1, 0x1008) }},
	} {
		g := sampleGroup()
		c.mut(g)
		if _, err := CodeSize(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CodeSize error %v", c.want, err)
		}
		if _, err := EncodeGroup(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: EncodeGroup error %v", c.want, err)
		}
	}

	g := sampleGroup()
	g.VLIWs[0].ID, g.VLIWs[1].ID = 7, 0
	n, err := CodeSize(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeGroup(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("renumbered group: CodeSize %d, encoding %d bytes", n, len(b))
	}
	want, _ := EncodeGroup(sampleGroup())
	if !bytes.Equal(b, want) {
		t.Fatal("VLIW IDs changed the encoding")
	}
}

func TestDecodeErrors(t *testing.T) {
	g := sampleGroup()
	b, _ := EncodeGroup(g)
	if _, err := DecodeGroup(b[:3]); err == nil {
		t.Error("truncated header should fail")
	}
	if _, err := DecodeGroup(b[:len(b)/2]); err == nil {
		t.Error("truncated body should fail")
	}
	// Corrupt an exit index to point outside the group.
	bad := append([]byte(nil), b...)
	// Find the ExitNext encoding: kind byte 0 followed by u16 index; we
	// corrupt by brute force and only require that DecodeGroup never panics.
	for i := 6; i < len(bad); i++ {
		bad[i] ^= 0x55
		_, _ = DecodeGroup(bad)
		bad[i] ^= 0x55
	}
	// Well-framed code with contents no translator emits: each must be a
	// decode error, never a group that panics Exec or the dispatcher.
	for _, c := range []struct {
		name string
		mut  func(*Group)
	}{
		{"primitive numPrims", func(g *Group) { g.VLIWs[0].Root.Ops[0].Op = numPrims }},
		{"primitive 0xfe", func(g *Group) { g.VLIWs[0].Root.Ops[0].Op = 0xfe }},
		{"condition on cr16", func(g *Group) { g.VLIWs[0].Root.Cond.CRF = NumCRF }},
		{"condition on cr127", func(g *Group) { g.VLIWs[0].Root.Cond.CRF = 127 }},
		{"condition bit 4", func(g *Group) { g.VLIWs[0].Root.Cond.Bit = 4 }},
		{"exit kind 6", func(g *Group) { g.VLIWs[0].Root.Taken.Exit.Kind = ExitInterp + 1 }},
		{"no VLIWs", func(g *Group) { g.VLIWs = nil }},
	} {
		g := sampleGroup()
		c.mut(g)
		b, err := EncodeGroup(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if _, err := DecodeGroup(b); err == nil {
			t.Errorf("%s: decoded without an error", c.name)
		}
	}

	// Well-framed bytes the encoder refuses to produce: each must be a
	// decode error too, or a cache entry carrying it would install and run
	// but never encode again.
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"node with 255 parcels", nopGroup(255)},
	} {
		if _, err := DecodeGroup(c.b); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: decode error %v", c.name, err)
		}
	}
	if g, err := DecodeGroup(nopGroup(254)); err != nil {
		t.Errorf("254 nops: %v", err)
	} else if _, err := CodeSize(g); err != nil {
		t.Errorf("254 nops: CodeSize: %v", err)
	}
}

// nopGroup hand-encodes a one-VLIW group whose only node holds n nops and
// exits to 0x1004, bypassing EncodeGroup's parcel limit.
func nopGroup(n int) []byte {
	var nop []byte
	nop = encodeParcel(nop, &Parcel{Op: PNop})
	body := []byte{byte(n)}
	for i := 0; i < n; i++ {
		body = append(body, nop...)
	}
	body = append(body, byte(ExitEntry))
	body = binary.BigEndian.AppendUint32(body, 0x1004)
	b := binary.BigEndian.AppendUint32(nil, 0x1000) // group entry
	b = binary.BigEndian.AppendUint16(b, 1)         // one VLIW
	b = binary.BigEndian.AppendUint32(b, 0x1000)    // its entry base
	b = binary.BigEndian.AppendUint16(b, uint16(len(body)))
	return append(b, body...)
}

func TestRegRefEncoding(t *testing.T) {
	refs := []RegRef{GPR(0), GPR(31), GPR(63), CRF(0), CRF(15), LR, CTR, XER, None}
	for _, r := range refs {
		if got := decodeRef(encodeRef(r)); got != r {
			t.Errorf("ref %v -> %v", r, got)
		}
	}
}
