package perfwall

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daisy/internal/stats"
)

// TestDecodeRejectsBareArray: a headerless JSON array of results is not a
// snapshot; it must fail with an error, not decode to an empty one.
func TestDecodeRejectsBareArray(t *testing.T) {
	bare := `[
  {"name": "BenchmarkExecutorThroughput", "iters": 1,
   "metrics": {"B/op": 9233080, "allocs/op": 782, "ns/op": 3348965}}
]`
	if s, err := Decode([]byte(bare)); err == nil {
		t.Fatalf("bare array accepted: %+v", s)
	}
}

// TestCommittedHistoryParses walks the real repository history: every
// committed BENCH_*.json must load, and the trend gate must pass over
// every consecutive pair (the acceptance bar for `daisy-trend check`).
func TestCommittedHistoryParses(t *testing.T) {
	repoRoot := "../.."
	paths, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Skipf("no committed snapshots found: %v", err)
	}
	SortHistoryPaths(paths)
	files, err := LoadHistory(paths)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(files); i++ {
		res, failed := Check(files[i-1].Snap, files[i].Snap, nil, nil, CompareOptions{})
		if failed {
			for _, r := range res {
				if r.Delta != nil && r.Delta.Regression {
					t.Errorf("%s -> %s: gate failed on %s: %+v",
						files[i-1].Label, files[i].Label, r.Key, *r.Delta)
				}
			}
		}
	}
	// And the wall renders every file as a column.
	w := WallTable(files)
	if len(w.Columns) != len(files)+3 {
		t.Fatalf("wall columns: %v", w.Columns)
	}
	if w.Rows() == 0 {
		t.Fatal("empty wall")
	}
}

func TestSortHistoryPaths(t *testing.T) {
	paths := []string{
		"BENCH_2026-08-05_telemetry.json",
		"BENCH_2026-08-08_aot.json",
		"BENCH_2026-08-05.json",
		"BENCH_2026-08-05_pre.json",
		"BENCH_2026-08-08_tier2.json",
		"BENCH_2026-08-05_pipeline.json",
	}
	SortHistoryPaths(paths)
	want := []string{
		"BENCH_2026-08-05_pre.json", // a _pre "before" leads its date group
		"BENCH_2026-08-05.json",
		"BENCH_2026-08-05_pipeline.json",
		"BENCH_2026-08-05_telemetry.json",
		"BENCH_2026-08-08_aot.json",
		"BENCH_2026-08-08_tier2.json",
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, paths[i], want[i], paths)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Manifest: CollectManifest("test"),
		Results: []Result{
			{Name: "Z", Iters: 2, Metrics: map[string]float64{"ns/op": 5},
				Samples: map[string][]float64{"ns/op": {6, 5}}},
			{Name: "A", Iters: 1, Metrics: map[string]float64{"ns/op": 1}},
		},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest == nil || got.Manifest.Schema != SchemaVersion || got.Manifest.Tool != "test" {
		t.Fatalf("manifest round-trip: %+v", got.Manifest)
	}
	if got.Manifest.GoVersion == "" || got.Manifest.GOMAXPROCS == 0 || got.Manifest.Date == "" {
		t.Fatalf("manifest provenance fields empty: %+v", got.Manifest)
	}
	if len(got.Results) != 2 || got.Results[0].Name != "A" {
		t.Fatalf("results not sorted: %+v", got.Results)
	}
	if v := got.Result("Z").SampleValues("ns/op"); len(v) != 2 || v[0] != 6 {
		t.Fatalf("samples lost: %v", v)
	}
}

func TestDecodeRejectsFutureSchema(t *testing.T) {
	_, err := Decode([]byte(`{"manifest":{"schema":99},"results":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema accepted: %v", err)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := Decode([]byte("  \n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSameHost(t *testing.T) {
	a := &Manifest{CPU: "x", GOOS: "linux", GOARCH: "amd64"}
	b := &Manifest{CPU: "x", GOOS: "linux", GOARCH: "amd64"}
	if !SameHost(a, b) {
		t.Fatal("identical hosts")
	}
	if SameHost(a, nil) || SameHost(nil, b) {
		t.Fatal("nil manifest matched")
	}
	if SameHost(a, &Manifest{CPU: "y", GOOS: "linux", GOARCH: "amd64"}) {
		t.Fatal("different CPU matched")
	}
	if SameHost(&Manifest{GOOS: "linux", GOARCH: "amd64"}, b) {
		t.Fatal("CPU-less manifest matched")
	}
}

// TestRunFolder exercises the run-folder writer and its validator.
func TestRunFolder(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	rf, err := NewRunFolder(dir, CollectManifest("daisy-paper"), 1, []string{"-scale", "1"})
	if err != nil {
		t.Fatal(err)
	}
	tb := stats.NewTable("Table 5.1 (test)", "Program", "ILP")
	tb.Row("wc", 3.09)
	if err := rf.AddTable("t51", tb, 12.5); err != nil {
		t.Fatal(err)
	}
	if err := rf.WriteSamples([]SampleSeries{{Name: "pipeline/wc/sync", Unit: "ms", Values: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := rf.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := Validate(dir); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Deleting a rendering must fail validation.
	if err := os.Remove(filepath.Join(dir, "tables", "t51.csv")); err != nil {
		t.Fatal(err)
	}
	if err := Validate(dir); err == nil {
		t.Fatal("validation passed with a missing table rendering")
	}
}

func TestSparklineSVG(t *testing.T) {
	svg := string(Sparkline("BenchmarkX ns/op", []string{"a", "b", "c"}, []float64{1, 3, 2}, 0, 0))
	for _, want := range []string{"<svg", "polyline", "BenchmarkX ns/op", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q:\n%s", want, svg)
		}
	}
	// Escaping and empty data must not produce broken XML.
	svg = string(Sparkline(`a<b>&"c`, nil, nil, 100, 50))
	if strings.Contains(svg, "<b>") || !strings.Contains(svg, "no data") {
		t.Fatalf("svg escape/empty: %s", svg)
	}
	// NaN gaps are skipped, not plotted.
	svg = string(Sparkline("gap", []string{"a", "b", "c"}, []float64{1, nan(), 2}, 0, 0))
	if c := strings.Count(svg, "<circle"); c != 2 {
		t.Fatalf("want 2 points around a NaN gap, got %d", c)
	}
}

func nan() float64 { v := 0.0; return v / v }
