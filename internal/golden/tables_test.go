package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"daisy/internal/experiments"
)

// TestPaperTableGoldens runs every experiment of the paper grid whose
// cells are deterministic (not marked Wallclock) at scale 1 and pins each
// table's text, exactly as daisy-paper prints it, to
// testdata/golden/tables/<id>.txt. This is the gate on the paper's
// simulated outputs: mean and finite ILP, cross-page branches, aliases,
// oracle ILP, the ablations and the tier-2 cycle reduction.
func TestPaperTableGoldens(t *testing.T) {
	r := experiments.NewRunner(goldenScale)
	// Warm the memo cache in parallel, as a full daisy-paper run does;
	// the tables then replay cached measurements in registry order.
	if err := r.MeasureAll(experiments.SuiteRequests()); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.Experiments() {
		if e.Wallclock {
			continue
		}
		tbl, err := e.Run(r)
		if err != nil {
			t.Fatalf("experiment %s: %v", e.ID, err)
		}
		checkGolden(t, filepath.Join("tables", e.ID+".txt"), []byte(tbl.String()))
	}
}

// checkGolden compares data byte for byte against testdata/golden/<name>,
// or rewrites that file under -update.
func checkGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to record): %v", name, err)
	}
	if bytes.Equal(data, want) {
		return
	}
	got, exp := bytes.Split(data, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(got) && line < len(exp) && bytes.Equal(got[line], exp[line]) {
		line++
	}
	var g, w []byte
	if line < len(got) {
		g = got[line]
	}
	if line < len(exp) {
		w = exp[line]
	}
	t.Errorf("%s differs from golden (%d vs %d bytes), first at line %d:\n got  %q\n want %q\nrerun with -update if intended",
		name, len(data), len(want), line+1, g, w)
}
