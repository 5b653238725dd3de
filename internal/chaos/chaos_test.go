package chaos

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// TestLockstepMatrix is the harness's headline assertion: every workload,
// under every injector, for several seeds, stays bit-identical to the
// reference interpreter at every precise boundary — and, independently,
// matches the workload's oracle model, which shares no code with either
// execution engine.
func TestLockstepMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	injectors := append([]Injector{nil}, Injectors()...)
	for _, w := range workload.All() {
		w := w
		for _, inj := range injectors {
			inj := inj
			name := "none"
			if inj != nil {
				name = inj.Name()
			}
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				runSeeds := seeds
				if inj == nil {
					// Without an injector the run is seed-independent.
					runSeeds = seeds[:1]
				}
				want := w.Model(w.Input(1))
				var injected uint64
				for _, seed := range runSeeds {
					rep, err := Run(Scenario{Workload: w, Seed: seed, Injector: inj})
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
					injected += rep.Stats.InjectedFaults
				}
				if inj != nil && injected == 0 {
					t.Logf("note: %s never fired on %s", name, w.Name)
				}
			})
		}
	}
}

// TestQuarantineEngagesUnderStorm checks graceful degradation end to end
// inside the harness: an SMC storm on a workload must eventually drive
// pages into interpret-only quarantine, later release them, and through
// it all keep the output oracle-correct.
func TestQuarantineEngagesUnderStorm(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := ByName("smc-storm")
	if err != nil {
		t.Fatal(err)
	}
	var sawQuarantine, sawRelease bool
	for seed := int64(1); seed <= 8; seed++ {
		rep, err := Run(Scenario{Workload: w, Seed: seed, Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Divergence != nil {
			t.Fatalf("seed %d: %v", seed, rep.Divergence)
		}
		sawQuarantine = sawQuarantine || rep.Stats.Quarantines > 0
		sawRelease = sawRelease || rep.Stats.QuarantineReleases > 0
	}
	if !sawQuarantine {
		t.Error("smc-storm never drove a page into quarantine")
	}
	if !sawRelease {
		t.Error("no quarantine was ever released")
	}
}

// TestInjectorRegistry checks the name-based lookup the CLI uses.
func TestInjectorRegistry(t *testing.T) {
	for _, in := range Injectors() {
		got, err := ByName(in.Name())
		if err != nil || got == nil || got.Name() != in.Name() {
			t.Errorf("ByName(%q) = %v, %v", in.Name(), got, err)
		}
	}
	if in, err := ByName("none"); err != nil || in != nil {
		t.Errorf("ByName(none) = %v, %v; want nil, nil", in, err)
	}
	if _, err := ByName("no-such-injector"); err == nil {
		t.Error("ByName(no-such-injector) succeeded")
	}
}

// TestSharedCacheInjectorArmsItsOwnMachine pins that one cache injector
// instance serves interleaved scenarios, as TestLockstepMatrix's parallel
// subtests share it: tuned for scenario A and then for scenario B, and
// armed on A's machine, it must damage A's store, not B's.
func TestSharedCacheInjectorArmsItsOwnMachine(t *testing.T) {
	for _, tc := range []struct {
		injector, workload string
		fired              func(s *vmm.Stats) bool
	}{
		{"cache-bitflip", "gcc", func(s *vmm.Stats) bool { return s.InjectedFaults > 0 }},
		{"cache-skew", "gcc", func(s *vmm.Stats) bool { return s.InjectedFaults > 0 }},
		// Flapping A's store lets some saves through and fails others.
		{"cache-enospc", "gcc", func(s *vmm.Stats) bool { return s.CacheStores > 0 && s.CacheSaveErrors > 0 }},
		// sort reads its own torn entries back; gcc at scale 1 never does.
		{"cache-shortwrite", "sort", func(s *vmm.Stats) bool { return s.CacheMissCorrupt > 0 }},
	} {
		inj, err := ByName(tc.injector)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		optA, optB := DefaultOptions(), DefaultOptions()
		inj.Tune(&optA)
		inj.Tune(&optB)
		mm := mem.New(defaultMemSize)
		if err := prog.Load(mm); err != nil {
			t.Fatal(err)
		}
		ma, err := vmm.NewMachine(mm, &interp.Env{In: w.Input(1)}, optA)
		if err != nil {
			t.Fatal(err)
		}
		inj.Arm(ma, rand.New(rand.NewSource(1)))
		if err := ma.Run(prog.Entry(), defaultMaxInsts); err != nil {
			t.Fatalf("%s: %v", tc.injector, err)
		}
		ma.Close()
		if !tc.fired(&ma.Stats) {
			t.Errorf("%s on %s never reached scenario A's store: %+v", tc.injector, tc.workload, ma.Stats)
		}
	}
}

// TestBoundaryCheckAllocatesNothing pins the cost of the lockstep's
// per-boundary comparison: once its unit buffer has grown, checking the
// registers, both sides' dirty units and the new output allocates nothing.
func TestBoundaryCheckAllocatesNothing(t *testing.T) {
	w, err := workload.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Workload: w}
	ma, ref, entry, err := sc.build()
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	ma.Mem.TrackWrites(true)
	ref.Mem.TrackWrites(true)
	c := &checker{ma: ma, ref: ref}
	// Stop at a budget: the machine halts before a VLIW, where Exec.RF
	// holds the architected registers.
	ma.Start(entry, 2000)
	for {
		if _, err := ma.StepGroup(); errors.Is(err, vmm.ErrBudget) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	now := ma.Stats.BaseInsts()
	const data = 0x700000 // a unit no code lives in
	allocs := testing.AllocsPerRun(100, func() {
		_ = ma.Mem.Write8(data, 1)
		_ = ref.Mem.Write8(data, 1)
		c.boundary(now)
	})
	if c.div != nil {
		t.Fatalf("boundary check diverged: %v", c.div)
	}
	if c.compares < 100 {
		t.Fatalf("%d comparisons, want one per call", c.compares)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per boundary check, want 0", allocs)
	}
}
