package txcache

// Internal tests of the entry decoder: the raw-length bound, and a fuzzer
// that frames arbitrary bodies as checksum-valid entries, so its inputs
// reach the decompressor and the group decoder.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"daisy/internal/core"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/workload"
)

func deflate(t testing.TB, raw []byte) []byte {
	var b bytes.Buffer
	fw, err := flate.NewWriter(&b, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestLoadBoundsRawLength stores a checksum-valid entry under the right
// name whose header claims a 1 GiB body, over a flate blob that inflates
// past maxRawLen. Load must count it a corrupt miss without inflating it:
// the Load allocates less than twice the bound.
func TestLoadBoundsRawLength(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{PageBase: 0x10000, OptFP: Fingerprint("bound")}
	blob := deflate(t, make([]byte, maxRawLen+1<<20))
	if err := os.WriteFile(filepath.Join(dir, k.filename()), encodeEntry(k, codecFlate, 1<<30, blob), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, reason := s.LoadReason(k)
	runtime.ReadMemStats(&after)
	if reason != MissCorrupt || s.Stats().Corrupt != 1 {
		t.Fatalf("entry claiming 1 GiB: reason %v, stats %+v; want one corrupt miss", reason, s.Stats())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*maxRawLen {
		t.Fatalf("rejecting the entry allocated %d bytes, bound %d", got, maxRawLen)
	}
}

// TestSaveRefusesOversizeBody pins the other side of the bound: Save
// returns an error for a body over maxRawLen, so it never stores an entry
// every Load would reject.
func TestSaveRefusesOversizeBody(t *testing.T) {
	k, _, body := savedPage(t)
	groups, _, reason := decodeEntry(k, encodeEntry(k, codecRaw, len(body), body))
	if reason != MissNone {
		t.Fatalf("the saved page does not decode: %v", reason)
	}
	var many []*vliw.Group
	for size := 2; size <= maxRawLen; size += len(body) - 2 { // each copy adds the body less its group count
		many = append(many, groups...)
	}
	s := OpenMemory()
	if stored, err := s.Save(k, many); err == nil || stored || s.Len() != 0 {
		t.Fatalf("Save of a %d-group page: stored %v, err %v, %d entries; want an error and nothing stored",
			len(many), stored, err, s.Len())
	}
}

// savedPage returns the entry a real Save writes for c_sieve's runtime
// page, the key it is stored under, and its raw body.
func savedPage(t testing.TB) (Key, []byte, []byte) {
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
	pt, err := core.New(m, core.DefaultOptions()).TranslatePage(prog.Chunks[len(prog.Chunks)-1].Addr)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]*vliw.Group, 0, len(pt.Order))
	for _, e := range pt.Order {
		groups = append(groups, pt.Groups[e])
	}
	k := Key{PageBase: pt.Base, OptFP: Fingerprint("fuzz")}
	s := OpenMemory()
	if _, err := s.Save(k, groups); err != nil {
		t.Fatal(err)
	}
	body, err := encodeBody(groups)
	if err != nil {
		t.Fatal(err)
	}
	return k, s.mem[k.filename()], body
}

// FuzzDecodeEntry frames its bytes as a checksum-valid entry with the
// right key echo: mode 0 as a raw body, mode 1 as a body stored
// compressed, mode 2 as a compressed blob claiming rawLen bytes. The
// decoder must never panic, a rejected entry must say why, and every
// group it accepts must size and re-encode.
func FuzzDecodeEntry(f *testing.F) {
	k, saved, body := savedPage(f)
	if _, _, reason := decodeEntry(k, saved); reason != MissNone {
		f.Fatalf("the saved page does not decode: %v", reason)
	}
	f.Add(uint8(0), uint32(0), body)
	f.Add(uint8(1), uint32(0), body)
	f.Add(uint8(2), binary.BigEndian.Uint32(saved[51:]), saved[headerSize:len(saved)-4])
	f.Add(uint8(2), uint32(1<<30), deflate(f, make([]byte, 1<<16)))
	f.Fuzz(func(t *testing.T, mode uint8, rawLen uint32, data []byte) {
		codec, blob := byte(codecRaw), data
		switch mode % 3 {
		case 0:
			rawLen = uint32(len(data))
		case 1:
			codec, blob, rawLen = codecFlate, deflate(t, data), uint32(len(data))
		default:
			codec = codecFlate
		}
		groups, n, reason := decodeEntry(k, encodeEntry(k, codec, int(rawLen), blob))
		if reason != MissNone {
			if groups != nil || n != 0 {
				t.Fatalf("rejected (%v) entry returned %d groups, %d bytes", reason, len(groups), n)
			}
			return
		}
		if n != int(rawLen) {
			t.Fatalf("accepted entry reports %d raw bytes, header says %d", n, rawLen)
		}
		for _, g := range groups {
			size, err := vliw.CodeSize(g)
			if err != nil {
				t.Fatalf("accepted group %#x: CodeSize: %v", g.Entry, err)
			}
			code, err := vliw.EncodeGroup(g)
			if err != nil {
				t.Fatalf("accepted group %#x: EncodeGroup: %v", g.Entry, err)
			}
			if len(code) != size {
				t.Fatalf("accepted group %#x: CodeSize %d, encoding %d bytes", g.Entry, size, len(code))
			}
		}
	})
}
