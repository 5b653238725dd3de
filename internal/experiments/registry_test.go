package experiments

import (
	"strings"
	"testing"

	"daisy/internal/txcache"
)

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("malformed entry: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	// The grid the paper harness promises: every published table id.
	for _, id := range []string{"t51", "f51", "t52", "t53", "t54", "f52", "t55",
		"t56", "t57", "f53", "f54", "f55", "t58", "t59", "cost", "oracle",
		"trace", "ablate", "pipeline", "aot", "tier2"} {
		if !seen[id] {
			t.Errorf("registry missing %q", id)
		}
	}
	for _, id := range []string{"cost", "pipeline", "aot"} {
		if e := ExperimentByID(id); e == nil || !e.Wallclock {
			t.Fatalf("%s must be registered as wall-clock", id)
		}
	}
	if ExperimentByID("t51") == nil || ExperimentByID("t51").Wallclock {
		t.Fatal("t51 must be registered as deterministic")
	}
	if ExperimentByID("nope") != nil {
		t.Fatal("unknown id resolved")
	}
}

// TestRegistryTableGolden runs the cheapest deterministic experiment
// (t58 is the analytic model — no workload execution) end to end through
// the registry and pins its CSV and markdown renderings: this is the
// byte format run folders archive.
func TestRegistryTableGolden(t *testing.T) {
	r := NewRunner(1)
	tbl, err := ExperimentByID("t58").Run(r)
	if err != nil {
		t.Fatal(err)
	}
	csv := tbl.CSV()
	md := tbl.Markdown()
	if !strings.HasPrefix(csv, "Ins to compile 1 ins,Unique pages,Reuse factor,Time change %\n") {
		t.Fatalf("t58 CSV header drifted:\n%s", csv)
	}
	if !strings.HasPrefix(md, "**Table 5.8: Overhead of dynamic compilation (analytic model of §5.1)**\n\n"+
		"| Ins to compile 1 ins | Unique pages | Reuse factor | Time change % |\n"+
		"|---|---|---|---|\n") {
		t.Fatalf("t58 markdown header drifted:\n%s", md)
	}
	if lines := strings.Count(csv, "\n"); lines != tbl.Rows()+1 {
		t.Fatalf("CSV row count %d != table rows %d + header", lines, tbl.Rows())
	}
	// Rendering is deterministic: a second run is byte-identical.
	tbl2, err := ExperimentByID("t58").Run(NewRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.CSV() != csv || tbl2.Markdown() != md {
		t.Fatal("t58 rendering is nondeterministic")
	}
}

func TestOutputFNV(t *testing.T) {
	// FNV-1a test vectors.
	if got := OutputFNV(nil); got != 0xcbf29ce484222325 {
		t.Fatalf("empty FNV %#x", got)
	}
	if got := OutputFNV([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("FNV(a) %#x", got)
	}
}

// TestSampleRetention runs a tiny pipeline set and checks the per-rep
// walls survive alongside the min, and land in the runner's sample log.
func TestSampleRetention(t *testing.T) {
	store := txcache.OpenMemory()
	if err := PrimeCache("wc", 1, store); err != nil {
		t.Fatal(err)
	}
	const reps = 3
	ms, err := MeasurePipelineSet("wc", 1, PipelineModes(), store, reps)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range PipelineModes() {
		m := ms[mode]
		if len(m.WallsMS) != reps {
			t.Fatalf("%s: retained %d walls, want %d", mode, len(m.WallsMS), reps)
		}
		min := m.WallsMS[0]
		for _, w := range m.WallsMS {
			if w < min {
				min = w
			}
			if w <= 0 {
				t.Fatalf("%s: non-positive wall %v", mode, w)
			}
		}
		if got := float64(m.Wall.Microseconds()) / 1000; got != min {
			t.Fatalf("%s: summary wall %v is not the min of %v", mode, got, m.WallsMS)
		}
	}

	r := NewRunner(1)
	r.RecordSamples("b/series", "ms", []float64{2, 1})
	r.RecordSamples("a/series", "ms", []float64{3})
	log := r.SampleLog()
	if len(log) != 2 || log[0].Name != "a/series" || log[1].Name != "b/series" {
		t.Fatalf("sample log order: %+v", log)
	}
	// The log holds copies.
	log[1].Values[0] = 99
	if r.SampleLog()[1].Values[0] != 2 {
		t.Fatal("SampleLog must return copies")
	}
}

func TestRunnerRepKnobs(t *testing.T) {
	r := NewRunner(0)
	if r.Scale != 2 || r.PipelineReps != PipelineReps ||
		r.FleetReps != FleetReps || r.FleetMachines != FleetMachines {
		t.Fatalf("defaults: %+v", r)
	}
}
