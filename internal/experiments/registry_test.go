package experiments

import (
	"strings"
	"testing"
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
	// The grid the paper harness promises: every published table id, and
	// nothing else.
	want := []string{"t51", "f51", "t52", "t53", "t54", "f52", "t55",
		"t56", "t57", "f53", "f54", "f55", "t58", "t59", "cost", "oracle",
		"trace", "ablate", "tier2"}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("registry missing %q", id)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("registry has %d ids, want %d", len(seen), len(want))
	}
	// cost (§5.1) is the one table with host wall-clock cells.
	for _, e := range Experiments() {
		if e.Wallclock != (e.ID == "cost") {
			t.Errorf("%s: Wallclock = %v", e.ID, e.Wallclock)
		}
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

func TestNewRunnerDefaultScale(t *testing.T) {
	if r := NewRunner(0); r.Scale != 2 {
		t.Fatalf("NewRunner(0).Scale = %d, want the default 2", r.Scale)
	}
}
