package perfwall

import (
	"os"
	"path/filepath"
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
