package vmm

// Tests for the persistent cross-run translation cache as the VMM uses
// it: warm runs must replay the cold run's translations bit-for-bit
// (every Load re-encodes and compares bytes inside txcache), and damaged
// or version-skewed entries must degrade to fresh translation, never
// crash or corrupt execution. `make ci` runs this file as the cache
// round-trip gate.

import (
	"testing"

	"daisy/internal/txcache"
	"daisy/internal/vliw"
	"daisy/internal/workload"
)

func cacheOptions(store *txcache.Store) Options {
	opt := DefaultOptions()
	opt.Cache = store
	return opt
}

// TestWarmCacheAllWorkloads round-trips every workload's translations
// through an on-disk store: a cold run populates it, a warm run replays
// it, and the two executions must be indistinguishable. The byte-identical
// re-encode assertion for every stored group lives in
// internal/txcache's TestRoundTrip; here the whole-machine equivalence is
// the check.
func TestWarmCacheAllWorkloads(t *testing.T) {
	store, err := txcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.All() {
		cold, coldOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
		if cold.Stats.CacheStores == 0 {
			t.Fatalf("%s: cold run stored nothing", w.Name)
		}
		warm, warmOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
		if warm.Stats.CacheHits == 0 {
			t.Fatalf("%s: warm run hit nothing (misses=%d)", w.Name, warm.Stats.CacheMisses)
		}
		if string(warmOut) != string(coldOut) {
			t.Errorf("%s: warm output differs from cold (%d vs %d bytes)",
				w.Name, len(warmOut), len(coldOut))
		}
		if warm.St != cold.St {
			t.Errorf("%s: warm final state differs\nwarm %+v\ncold %+v", w.Name, warm.St, cold.St)
		}
		if warm.Stats.BaseInsts() != cold.Stats.BaseInsts() {
			t.Errorf("%s: warm completed %d insts, cold %d",
				w.Name, warm.Stats.BaseInsts(), cold.Stats.BaseInsts())
		}
	}
	st := store.Stats()
	if st.Corrupt != 0 || st.VersionSkew != 0 {
		t.Fatalf("clean store reported damage: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatal("store saw no hits")
	}
}

// TestAsyncWarmCache combines the tentpole's two halves: an async machine
// over a warm store installs cached pages immediately (no hotness dues,
// no queue trip) and still matches the synchronous cold run exactly.
func TestAsyncWarmCache(t *testing.T) {
	store := txcache.OpenMemory()
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	cold, coldOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	opt := cacheOptions(store)
	opt.AsyncTranslate = true
	warm, warmOut := runWorkloadVMM(t, w, 1, opt)
	if warm.Stats.CacheHits == 0 {
		t.Fatal("async warm run hit nothing")
	}
	if string(warmOut) != string(coldOut) || warm.St != cold.St {
		t.Fatal("async warm run diverged from sync cold run")
	}
}

// TestCacheCorruptFallsBack damages every stored entry and re-runs: the
// machine must translate fresh (misses, not hits), produce identical
// results, and the store must account the damage.
func TestCacheCorruptFallsBack(t *testing.T) {
	store, err := txcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	cold, coldOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	if n := store.Corrupt(); n == 0 {
		t.Fatal("nothing to corrupt")
	}
	warm, warmOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	if warm.Stats.CacheHits != 0 {
		t.Fatalf("corrupt entries served %d hits", warm.Stats.CacheHits)
	}
	if warm.Stats.CacheMisses == 0 {
		t.Fatal("corrupt entries never consulted")
	}
	if store.Stats().Corrupt == 0 {
		t.Fatal("store did not account the corruption")
	}
	if string(warmOut) != string(coldOut) || warm.St != cold.St {
		t.Fatal("corrupt-cache run diverged from cold run")
	}
}

// TestCacheUnknownOpcodeIsCorrupt re-saves every page's entry with a
// valid checksum but one parcel naming a primitive that does not exist.
// The decoder must reject such an entry, so the machine counts a corrupt
// miss and translates afresh instead of executing the bad parcel.
func TestCacheUnknownOpcodeIsCorrupt(t *testing.T) {
	store := txcache.OpenMemory()
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	cold, coldOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	damaged := 0
	for _, base := range cold.TranslatedPages() {
		pt := livePT(cold, base)
		k, ok := cold.cacheKey(base)
		if !ok {
			continue
		}
		groups := make([]*vliw.Group, 0, len(pt.Order))
		for _, e := range pt.Order {
			groups = append(groups, vliw.CloneGroup(pt.Groups[e]))
		}
		for _, g := range groups {
			if ops := g.VLIWs[0].Root.Ops; len(ops) > 0 {
				ops[0].Op = 0xfe
				break
			}
		}
		if _, err := store.Save(k, groups); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no page to damage")
	}
	warm, warmOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	if warm.Stats.CacheHits != 0 {
		t.Fatalf("entries with an unknown opcode served %d hits", warm.Stats.CacheHits)
	}
	if warm.Stats.CacheMissCorrupt == 0 {
		t.Fatalf("entries with an unknown opcode were not counted corrupt: %d misses", warm.Stats.CacheMisses)
	}
	if string(warmOut) != string(coldOut) || warm.St != cold.St {
		t.Fatal("run over entries with an unknown opcode diverged from the cold run")
	}
}

// TestCacheVersionSkewFallsBack rewrites every entry's format version (with
// a valid checksum, so only the version gate can reject it) and re-runs.
func TestCacheVersionSkewFallsBack(t *testing.T) {
	store, err := txcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	cold, coldOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	if n := store.SkewVersion(txcache.Version + 1); n == 0 {
		t.Fatal("nothing to skew")
	}
	warm, warmOut := runWorkloadVMM(t, w, 1, cacheOptions(store))
	if warm.Stats.CacheHits != 0 {
		t.Fatalf("skewed entries served %d hits", warm.Stats.CacheHits)
	}
	if store.Stats().VersionSkew == 0 {
		t.Fatal("store did not account the version skew")
	}
	if string(warmOut) != string(coldOut) || warm.St != cold.St {
		t.Fatal("skewed-cache run diverged from cold run")
	}
}

// TestCacheOptionsFingerprint pins the safety rule that distinct
// translator options must never share entries: a store warmed under one
// machine width yields no hits under another.
func TestCacheOptionsFingerprint(t *testing.T) {
	store := txcache.OpenMemory()
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	if _, _ = runWorkloadVMM(t, w, 1, cacheOptions(store)); store.Stats().Stores == 0 {
		t.Fatal("cold run stored nothing")
	}
	opt := cacheOptions(store)
	opt.Trans.Window /= 2 // any schedule-shaping change must miss
	warm, _ := runWorkloadVMM(t, w, 1, opt)
	if warm.Stats.CacheHits != 0 {
		t.Fatalf("different options shared %d cache entries", warm.Stats.CacheHits)
	}
}

// TestCacheBypassModes pins cacheUsable's gating: machines whose
// translations are not pure functions of (bytes, base, options) must not
// touch the store.
func TestCacheBypassModes(t *testing.T) {
	store := txcache.OpenMemory()
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	opt := cacheOptions(store)
	opt.Interpretive = true
	m, _ := runWorkloadVMM(t, w, 1, opt)
	if m.Stats.CacheHits+m.Stats.CacheMisses+m.Stats.CacheStores != 0 {
		t.Fatalf("interpretive machine touched the cache: %+v", m.Stats)
	}
	if store.Len() != 0 {
		t.Fatalf("interpretive machine stored %d entries", store.Len())
	}
}
