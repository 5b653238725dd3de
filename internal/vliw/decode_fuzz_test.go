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
// translation-cache hit passes through. It must never panic. For every
// group it accepts, CodeSize must agree with EncodeGroup (both fail or
// neither does, and on success the size is the encoding's length), and
// the encoding must decode and encode again to the same bytes. The seeds
// are the hand-built sample group and the groups of compress's entry page.
func FuzzDecodeGroup(f *testing.F) {
	add := func(g *vliw.Group) {
		b, err := vliw.EncodeGroup(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(vliw.SampleGroup())
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
		size, sizeErr := vliw.CodeSize(g)
		enc, encErr := vliw.EncodeGroup(g)
		if (sizeErr == nil) != (encErr == nil) {
			t.Fatalf("CodeSize error %v, EncodeGroup error %v", sizeErr, encErr)
		}
		if encErr != nil {
			return
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
