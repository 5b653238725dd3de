package experiments

import "testing"

// TestMeasureFleetSmall runs the fleet measurement end to end at a small
// shape (4 machines, 1 rep) so the harness itself — both configurations
// from empty stores, the output cross-check, the per-tier accounting —
// stays exercised in CI. Machine 0 decodes from disk and may rewrite
// entries it extends, machine 1 re-decodes those, and machines 2 and 3
// ride the hot tier. Four is the smallest fleet in which a hot tier that
// forgets an entry after serving it shows up as a late decode. This pins
// the plumbing and the hot-tier invariant, not the wall clock.
func TestMeasureFleetSmall(t *testing.T) {
	f, err := MeasureFleet("gcc", 1, 4, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Workload != "gcc" || f.Machines != 4 {
		t.Fatalf("wrong shape: %+v", f)
	}
	if f.Baseline == 0 || f.Aot == 0 || f.PrecompileWall == 0 {
		t.Fatalf("unmeasured configuration: %+v", f)
	}
	if f.PrecompileWall >= f.Aot {
		t.Fatalf("precompile pass (%v) not included in the AOT aggregate (%v)", f.PrecompileWall, f.Aot)
	}
	if f.Stored == 0 {
		t.Fatal("precompile pass stored nothing")
	}
	if f.OutputFNV == 0 {
		t.Fatal("no output digest recorded")
	}
	if f.AotHotHits == 0 || f.AotHotBytes == 0 {
		t.Fatalf("hot tier never served the AOT fleet: %+v", f)
	}
	// Once the fleet has settled (machine 2 on), every load must be
	// absorbed by the hot tier: no further disk decodes.
	if f.AotLateDecodes != 0 {
		t.Fatalf("hot tier leaked to disk after the fleet settled: %d late decodes (%d total, %d stored pages)",
			f.AotLateDecodes, f.AotDecodes, f.Stored)
	}
	if f.BaselineDiskBytes == 0 {
		t.Fatalf("baseline fleet never read the disk tier: %+v", f)
	}
	// Reduction is wall-clock and may legitimately be negative at this
	// tiny shape; it just must be a finite percentage of the baseline.
	if r := f.Reduction(); r > 100 || r != r {
		t.Fatalf("implausible reduction %v", r)
	}
}

// TestMeasureFleetUnknownWorkload pins the error path.
func TestMeasureFleetUnknownWorkload(t *testing.T) {
	if _, err := MeasureFleet("no-such-workload", 1, 2, t.TempDir(), 1); err == nil {
		t.Fatal("unknown workload did not error")
	}
}
