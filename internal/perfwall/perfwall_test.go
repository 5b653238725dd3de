package perfwall

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daisy/internal/stats"
)

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
