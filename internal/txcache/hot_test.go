package txcache

// In-package test for the hot tier's size bound, which is fixed; only
// the package's tests can shrink it (hotMaxBytes).

import (
	"testing"

	"daisy/internal/vliw"
)

// TestHotTierBound pins the hot tier's size bound and LRU eviction: with
// room for two entries, loading four leaves the two most recently used
// resident, and a key that fell out goes back to the backing tier.
func TestHotTierBound(t *testing.T) {
	s := OpenMemory()
	keys := make([]Key, 4)
	for i := range keys {
		// A one-VLIW group that exits to its own entry: every entry
		// has the same payload size, which the bound below relies on.
		base := uint32(0x10000 + i*0x1000)
		v := vliw.NewVLIW(0, base)
		v.Root.Exit = vliw.Exit{Kind: vliw.ExitEntry, Target: base}
		keys[i] = Key{PageBase: base, OptFP: Fingerprint("hot-bound")}
		if _, err := s.Save(keys[i], []*vliw.Group{{Entry: base, VLIWs: []*vliw.VLIW{v}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Size one resident entry, then bound the tier to two of them.
	if _, ok := s.Load(keys[0]); !ok {
		t.Fatal("load missed")
	}
	_, one := s.HotTier()
	if one <= 0 {
		t.Fatal("no hot occupancy after a load")
	}
	defer func(n int64) { hotMaxBytes = n }(hotMaxBytes)
	hotMaxBytes = 2 * one
	for _, k := range keys {
		if _, ok := s.Load(k); !ok {
			t.Fatalf("load %#x missed", k.PageBase)
		}
	}
	n, b := s.HotTier()
	if n != 2 || b > 2*one {
		t.Fatalf("hot tier %d entries / %d bytes, want 2 entries <= %d bytes", n, b, 2*one)
	}
	if st := s.Stats(); st.HotEvictions == 0 {
		t.Fatalf("no hot evictions counted: %+v", st)
	}
	// LRU: keys 2 and 3 are resident; key 0 must re-read the backing tier.
	before := s.Stats().DiskReads
	if _, ok := s.Load(keys[3]); !ok {
		t.Fatal("resident load missed")
	}
	if got := s.Stats().DiskReads; got != before {
		t.Fatalf("resident key read the backing tier (%d -> %d)", before, got)
	}
	if _, ok := s.Load(keys[0]); !ok {
		t.Fatal("evicted load missed")
	}
	if got := s.Stats().DiskReads; got != before+1 {
		t.Fatalf("evicted key served without a backing read")
	}
}
