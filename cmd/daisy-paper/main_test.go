package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownIDs pins that -only takes registry ids and
// nothing else: an unknown id fails before any run folder is created,
// and the error lists the ids that exist.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	for _, only := range []string{"nosuch", "pipeline", "aot", "t51,nosuch"} {
		out := t.TempDir()
		err := run(1, only, out, "r", 0, "", true)
		if err == nil {
			t.Fatalf("-only %s: run succeeded", only)
		}
		if msg := err.Error(); !strings.Contains(msg, "t51,f51,") || !strings.Contains(msg, ",tier2") {
			t.Errorf("-only %s: error does not list the registry ids: %v", only, err)
		}
		if _, err := os.Stat(filepath.Join(out, "r")); !os.IsNotExist(err) {
			t.Errorf("-only %s: run folder exists (stat: %v)", only, err)
		}
	}
}

// TestOnlySlice runs a one-table slice end to end. t58 is the analytic
// model and runs no workload, so the run is the output cross-check
// against the reference interpreter and the committed scale-1 goldens;
// the folder must hold exactly the selected table and the cross-check.
func TestOnlySlice(t *testing.T) {
	out := t.TempDir()
	if err := run(1, " t58 ", out, "r", 0, "../../internal/golden/testdata/golden", true); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(out, "r", "tables"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	sort.Strings(got)
	want := "crosscheck.csv crosscheck.md crosscheck.txt t58.csv t58.md t58.txt"
	if strings.Join(got, " ") != want {
		t.Fatalf("tables/ holds %v, want %s", got, want)
	}
	cc, err := os.ReadFile(filepath.Join(out, "r", "tables", "crosscheck.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// Every workload row carries its golden digest, so the golden
	// comparison ran rather than being skipped.
	for _, line := range strings.Split(strings.TrimSpace(string(cc)), "\n")[1:] {
		if f := strings.Split(line, ","); len(f) != 5 || f[3] == "" || f[4] != "ok" {
			t.Errorf("cross-check row %q: want a golden digest and status ok", line)
		}
	}
}
