package core

import (
	"runtime"
	"testing"
	"unsafe"

	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/workload"
)

// retranslateMargin is what a warm retranslation of c_sieve's code pages
// may allocate beyond the groups it returns (keptBytes): the page shells
// (each PageTranslation, its group map and layout order, the worklists)
// and up to one partly used chunk each of the nodes (64), VLIWs (64) and
// conditions (32) the groups are carved from, about 10 KiB. The pages
// measured 1.5 KiB over their groups when the margin was set. Scratch the
// translator makes again instead of reusing — a path struct is 1.2 KiB, a
// parcel-slot chunk 20 KiB — lands above it: a translator that kept no
// scratch across groups measured 33 KiB over.
const retranslateMargin = 12 << 10

// keptBytes returns the bytes of what pt's groups keep: each group, its
// VLIW list, VLIWs, nodes, conditions, parcels and commit-record tables.
func keptBytes(pt *PageTranslation) uint64 {
	var n uintptr
	for _, g := range pt.Groups {
		n += unsafe.Sizeof(*g) + uintptr(cap(g.VLIWs))*unsafe.Sizeof(g.VLIWs[0])
		for _, v := range g.VLIWs {
			n += unsafe.Sizeof(*v)
			v.Walk(func(nd *vliw.Node) {
				n += unsafe.Sizeof(*nd) + uintptr(cap(nd.Ops))*unsafe.Sizeof(vliw.Parcel{})
				if nd.Cond != nil {
					n += unsafe.Sizeof(*nd.Cond)
				}
			})
		}
		for _, recs := range g.Deopt {
			n += unsafe.Sizeof(recs) + uintptr(cap(recs))*unsafe.Sizeof(vliw.DeoptRec{})
		}
	}
	return uint64(n)
}

// TestRetranslationAllocatesItsOutput translates c_sieve's code pages —
// its entry page, whose entry group is one call into the runtime, and the
// runtime page — twice on one translator. The second pass must allocate no more
// than the groups it returns plus retranslateMargin: the paths, rename
// records, commit parcels, parcel slots and per-address maps of the first
// pass are reused, not made again.
func TestRetranslationAllocatesItsOutput(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(8 << 20)
	if err := prog.Load(m); err != nil {
		t.Fatal(err)
	}
	tr := New(m, DefaultOptions())
	pass := func() (pts []*PageTranslation) {
		for _, c := range prog.Chunks {
			pt, err := tr.TranslatePage(c.Addr)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, pt)
		}
		return pts
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pts := pass()
	runtime.ReadMemStats(&after)
	var kept uint64
	for _, pt := range pts {
		kept += keptBytes(pt)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("retranslating %d pages allocated %d B; their groups keep %d B", len(pts), got, kept)
	if got > kept+retranslateMargin {
		t.Fatalf("retranslation allocated %d B, over its groups' %d B plus the %d B margin",
			got, kept, retranslateMargin)
	}
}
