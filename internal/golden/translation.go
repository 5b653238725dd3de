package golden

import (
	"encoding/binary"
	"fmt"

	"daisy/internal/core"
	"daisy/internal/vliw"
)

// AppendTranslation appends to b what the translation golden hashes of
// one page translation: its base, layout order and code size, and for
// each group in layout order its encoding, the fields the encoding leaves
// out (tier, counters, layout addresses and sizes, each parcel's base
// address and deopt tag) and its commit-record table. Two translations
// append the same bytes exactly when they are the same code laid out the
// same way.
func AppendTranslation(b []byte, pt *core.PageTranslation) ([]byte, error) {
	put := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.BigEndian.AppendUint64(b, v)
		}
	}
	var err error
	put(uint64(pt.Base), uint64(len(pt.Order)), uint64(pt.CodeBytes))
	for _, e := range pt.Order {
		g := pt.Groups[e]
		code, encErr := vliw.EncodeGroup(g)
		if encErr != nil && err == nil {
			err = fmt.Errorf("page %#x group %#x: %w", pt.Base, e, encErr)
		}
		put(uint64(e), uint64(g.Tier), uint64(g.BaseInsts), uint64(g.Parcels), uint64(len(code)))
		b = append(b, code...)
		for _, v := range g.VLIWs {
			put(uint64(v.Addr), uint64(v.Bytes))
			v.Walk(func(n *vliw.Node) {
				for i := range n.Ops {
					put(uint64(n.Ops[i].BaseAddr), uint64(int64(n.Ops[i].Deopt)))
				}
			})
		}
		put(uint64(len(g.Deopt)))
		for _, recs := range g.Deopt {
			put(uint64(len(recs)))
			for _, r := range recs {
				put(uint64(r.Arch.Kind), uint64(r.Arch.N), uint64(r.Ren.Kind), uint64(r.Ren.N),
					uint64(r.Addr), b2u(r.Verify))
			}
		}
	}
	return b, err
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
