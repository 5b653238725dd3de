package vliw_test

import (
	"bytes"
	"testing"

	"daisy/internal/core"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/workload"
)

// FuzzDecodeGroup feeds arbitrary bytes to DecodeGroup, the parser every
// translation-cache hit passes through. It must never panic. Every group
// it accepts must size and encode again: CodeSize succeeds, EncodeGroup
// succeeds with exactly that many bytes, and the encoding decodes and
// encodes again to the same bytes. The seeds are the hand-built sample
// group, a group whose node's parcel count (255) is one past what the
// encoder accepts, and the groups of compress's entry page.
func FuzzDecodeGroup(f *testing.F) {
	add := func(g *vliw.Group) {
		b, err := vliw.EncodeGroup(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(vliw.SampleGroup())
	f.Add(vliw.NopGroup(255))
	w, err := workload.ByName("compress")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		f.Fatal(err)
	}
	m := mem.New(8 << 20)
	if err := prog.Load(m); err != nil {
		f.Fatal(err)
	}
	pt, err := core.New(m, core.DefaultOptions()).TranslatePage(prog.Entry())
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range pt.Order {
		add(pt.Groups[e])
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := vliw.DecodeGroup(b)
		if err != nil {
			return
		}
		size, err := vliw.CodeSize(g)
		if err != nil {
			t.Fatalf("CodeSize of a decoded group: %v", err)
		}
		enc, err := vliw.EncodeGroup(g)
		if err != nil {
			t.Fatalf("EncodeGroup of a decoded group: %v", err)
		}
		if size != len(enc) {
			t.Fatalf("CodeSize %d, encoding %d bytes", size, len(enc))
		}
		g2, err := vliw.DecodeGroup(enc)
		if err != nil {
			t.Fatalf("re-decoding the encoding: %v", err)
		}
		enc2, err := vliw.EncodeGroup(g2)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not stable:\n%x\n%x", enc, enc2)
		}
	})
}
