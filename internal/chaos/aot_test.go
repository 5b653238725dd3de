package chaos

import (
	"bytes"
	"testing"

	"daisy/internal/txcache"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// aotPrepare returns a Scenario.Prepare that pre-translates the whole
// workload image into the machine's cache before the run starts, as
// daisy.Precompile does. It runs on every machine the scenario builds
// (lockstep run and bisection replays), exactly like an injector fault,
// so divergence localization still works.
func aotPrepare(t *testing.T, w workload.Workload) func(m *vmm.Machine) {
	t.Helper()
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	return func(m *vmm.Machine) {
		if _, err := m.Precompile(prog); err != nil {
			panic(err) // Prepare has no error path; a refused pass is a bug here
		}
	}
}

// TestPrecompileUnderChaos is the acceptance gate for AOT publish safety:
// a machine whose cache was populated by whole-binary pre-translation
// must stay bit-identical to the reference interpreter even while the
// injectors rewrite guest code under it (smc-storm — every precompiled
// page it touches is invalidated and re-keyed) or damage the cache
// behind it (cache-bitflip, cache-skew — precompiled entries get
// corrupted or version-skewed and must degrade to clean misses).
func TestPrecompileUnderChaos(t *testing.T) {
	injectors := []string{"smc-storm", "cache-bitflip", "cache-skew"}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, w := range workload.All() {
		w := w
		for _, name := range injectors {
			name := name
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				inj, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				prep := aotPrepare(t, w)
				want := w.Model(w.Input(1))
				for _, seed := range seeds {
					sc := Scenario{Workload: w, Seed: seed, Injector: inj, Prepare: prep}
					if name == "smc-storm" {
						// smc-storm does not tune a cache in; give the
						// pass a sink so precompiled pages are what the
						// storm invalidates.
						opt := DefaultOptions()
						opt.Cache = txcache.OpenMemory()
						sc.Options = &opt
					}
					rep, err := Run(sc)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if d := rep.Divergence; d != nil {
						t.Fatalf("seed %d: compatibility violated: %v\nwindow %v\n%s",
							seed, d, d.Window, d.GroupDump)
					}
					if !rep.Halted {
						t.Fatalf("seed %d: run did not halt (%d insts)", seed, rep.Insts)
					}
					if !bytes.Equal(rep.Output, want) {
						t.Fatalf("seed %d: output disagrees with oracle model", seed)
					}
					if rep.Stats.CacheHits == 0 {
						t.Errorf("seed %d: precompiled run never hit the cache", seed)
					}
				}
			})
		}
	}
}
