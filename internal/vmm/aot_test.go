package vmm

// Precompile-then-run equivalence: a machine brought up over a cache that
// was populated by whole-binary pre-translation — no guest execution —
// must be indistinguishable from a synchronous cold machine on every
// golden workload. `make aot-soak` runs this file under -race.

import (
	"testing"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/txcache"
	"daisy/internal/workload"
)

// precompileEntries mirrors the daisy.Precompile facade (which this
// in-package test cannot import): every page a program chunk touches,
// translated from the program entry when it lives in that page.
func precompileEntries(prog *asm.Program, pageSize uint32) []uint32 {
	entry := prog.Entry()
	var entries []uint32
	for _, c := range prog.Chunks {
		if len(c.Data) == 0 {
			continue
		}
		end := c.Addr + uint32(len(c.Data))
		for base := c.Addr &^ (pageSize - 1); base < end; base += pageSize {
			e := base
			if entry >= base && entry < base+pageSize {
				e = entry
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// precompiled builds a machine over the workload image and runs the AOT
// pass against store, returning the report.
func precompiled(t *testing.T, w workload.Workload, store *txcache.Store) PrecompileReport {
	t.Helper()
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Cache = store
	ma := New(mm, &interp.Env{}, opt)
	defer ma.Close()
	rep, err := ma.Precompile(precompileEntries(prog, opt.Trans.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPrecompileReport pins the pass accounting: a fresh store gets every
// translatable page stored, a second pass finds them all already cached
// (and reads nothing), and a machine without a cache refuses the pass.
func TestPrecompileReport(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	store := txcache.OpenMemory()
	rep := precompiled(t, w, store)
	if rep.Stored == 0 || rep.Translated != rep.Stored+rep.Stale {
		t.Fatalf("first pass stored nothing: %v", rep)
	}
	if rep.AlreadyCached != 0 {
		t.Fatalf("first pass over an empty store found entries: %v", rep)
	}
	rep2 := precompiled(t, w, store)
	if rep2.AlreadyCached != rep.Stored {
		t.Fatalf("second pass: %v, want %d already cached", rep2, rep.Stored)
	}
	if rep2.Translated != 0 || rep2.Stored != 0 {
		t.Fatalf("second pass retranslated: %v", rep2)
	}
	// No cache, no pass.
	mm := mem.New(1 << 20)
	ma := New(mm, &interp.Env{}, DefaultOptions())
	if _, err := ma.Precompile([]uint32{0}); err != ErrNoCache {
		t.Fatalf("precompile without a cache: err=%v, want ErrNoCache", err)
	}
}

// TestPrecompileThenRunAllWorkloads is the AOT equivalence wall: for
// every golden workload, a precompiled+warm machine (sync and async) must
// produce byte-identical output, the same final architected state, and
// the same completed-instruction count as a synchronous cold machine —
// and must actually hit the cache it was precompiled into.
func TestPrecompileThenRunAllWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cold, coldOut := runWorkloadVMM(t, w, 1, DefaultOptions())
			store, err := txcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rep := precompiled(t, w, store)
			if rep.Stored == 0 {
				t.Fatalf("precompile stored nothing: %v", rep)
			}
			for _, async := range []bool{false, true} {
				opt := DefaultOptions()
				opt.Cache = store
				opt.AsyncTranslate = async
				warm, warmOut := runWorkloadVMM(t, w, 1, opt)
				if warm.Stats.CacheHits == 0 {
					t.Fatalf("async=%v: precompiled run hit nothing (misses=%d)",
						async, warm.Stats.CacheMisses)
				}
				if string(warmOut) != string(coldOut) {
					t.Errorf("async=%v: output differs from sync cold (%d vs %d bytes)",
						async, len(warmOut), len(coldOut))
				}
				if warm.St != cold.St {
					t.Errorf("async=%v: final state differs\nwarm %+v\ncold %+v",
						async, warm.St, cold.St)
				}
				if warm.Stats.BaseInsts() != cold.Stats.BaseInsts() {
					t.Errorf("async=%v: completed %d insts, cold completed %d",
						async, warm.Stats.BaseInsts(), cold.Stats.BaseInsts())
				}
			}
			if st := store.Stats(); st.Corrupt != 0 || st.VersionSkew != 0 || st.OptionsMismatch != 0 {
				t.Fatalf("clean precompiled store reported damage: %+v", st)
			}
		})
	}
}

// TestPrecompileFleetHotTier brings four async machines up over one
// precompiled on-disk store, as a fleet booting one image would. Every
// machine must match a synchronous cold machine, and once the fleet's
// entry set settles the hot tier must absorb every load: machine 0 may
// extend precompiled pages with entry points it discovers (each
// write-through rewrite drops the hot copy, by design), machine 1
// re-decodes those entries once, and from then on the store decodes
// nothing. Four is the smallest fleet in which a hot tier that forgets an
// entry after serving it shows up as a late decode.
func TestPrecompileFleetHotTier(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cold, coldOut := runWorkloadVMM(t, w, 1, DefaultOptions())
	store, err := txcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep := precompiled(t, w, store); rep.Stored == 0 {
		t.Fatalf("precompile stored nothing: %v", rep)
	}
	var settled uint64
	for i := 0; i < 4; i++ {
		opt := DefaultOptions()
		opt.Cache = store
		opt.AsyncTranslate = true
		m, out := runWorkloadVMM(t, w, 1, opt)
		if string(out) != string(coldOut) {
			t.Errorf("machine %d: output differs from sync cold (%d vs %d bytes)", i, len(out), len(coldOut))
		}
		if m.St != cold.St {
			t.Errorf("machine %d: final state differs\nfleet %+v\ncold  %+v", i, m.St, cold.St)
		}
		if i == 1 {
			settled = store.Stats().Decodes
		}
	}
	st := store.Stats()
	if st.HotHits == 0 {
		t.Fatalf("hot tier never served the fleet: %+v", st)
	}
	if late := st.Decodes - settled; late != 0 {
		t.Fatalf("hot tier leaked to disk after the fleet settled: %d late decodes (%d total)", late, st.Decodes)
	}
}

// TestPrecompileComposesWithLiveMachine pins the publish-safety rule on a
// live machine: precompiling between runs of a machine that already has
// pages installed must not disturb them, and a page whose bytes changed
// after the pass re-keys and misses rather than executing stale code.
func TestPrecompileComposesWithLiveMachine(t *testing.T) {
	w, err := workload.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	store := txcache.OpenMemory()
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Cache = store
	ma := New(mm, &interp.Env{In: w.Input(1)}, opt)
	defer ma.Close()
	if err := ma.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	livePages := ma.Stats.PagesBuilt
	rep, err := ma.Precompile(precompileEntries(prog, opt.Trans.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	// The run already write-through-populated the executed pages; the
	// pass must not have rebuilt or reinstalled anything that was live.
	if ma.Stats.PagesBuilt != livePages {
		t.Fatalf("precompile installed pages into a live machine (%d -> %d)",
			livePages, ma.Stats.PagesBuilt)
	}
	if rep.AlreadyCached == 0 {
		t.Fatalf("live machine's write-through invisible to the pass: %v", rep)
	}
}
