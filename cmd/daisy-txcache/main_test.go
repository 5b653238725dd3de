package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"daisy"
)

// precompiled fills a fresh on-disk store by precompiling c_sieve into
// it and returns the directory and its entry files, sorted by name.
func precompiled(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	w, err := daisy.WorkloadByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := daisy.NewMemory(8 << 20)
	if err := prog.Load(m); err != nil {
		t.Fatal(err)
	}
	opt := daisy.DefaultOptions()
	if opt.Cache, err = daisy.OpenTranslationCache(dir); err != nil {
		t.Fatal(err)
	}
	ma, err := daisy.NewMachine(m, &daisy.Env{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	if rep, err := daisy.Precompile(ma, prog); err != nil || rep.Stored < 2 {
		t.Fatalf("precompile: %v, %v; the tests need two entries", rep, err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.dtx"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, entries
}

// stdout runs f with standard output sent to a file and returns what f
// printed.
func stdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	ferr := f()
	os.Stdout = saved
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), ferr
}

// TestStat checks the entry count and, with -deep, that a second pass
// over the store is served from the hot tier.
func TestStat(t *testing.T) {
	dir, entries := precompiled(t)
	out, err := stdout(t, func() error { return runStat([]string{"-dir", dir, "-deep"}) })
	if err != nil {
		t.Fatal(err)
	}
	n := len(entries)
	for _, want := range []string{
		fmt.Sprintf("%s: %d entries", dir, n),
		fmt.Sprintf("deep: %d loads: %d hot / %d disk", 2*n, n, n),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output lacks %q:\n%s", want, out)
		}
	}
}

// TestFsck checks a clean store, then damages one entry: fsck must fail
// without -repair, and -repair must remove exactly that entry.
func TestFsck(t *testing.T) {
	dir, entries := precompiled(t)
	fsck := func(args ...string) (string, error) {
		return stdout(t, func() error { return runFsck(append([]string{"-dir", dir}, args...)) })
	}
	if out, err := fsck(); err != nil || !strings.Contains(out, fmt.Sprintf("%d ok, 0 corrupt", len(entries))) {
		t.Fatalf("clean store: %v\n%s", err, out)
	}
	if err := os.WriteFile(entries[0], []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := fsck(); err == nil || !strings.Contains(out, "1 corrupt") {
		t.Fatalf("damaged store passed fsck: %v\n%s", err, out)
	}
	if out, err := fsck("-repair"); err != nil || !strings.Contains(out, "1 removed") {
		t.Fatalf("repair: %v\n%s", err, out)
	}
	if _, err := os.Stat(entries[0]); !os.IsNotExist(err) {
		t.Fatalf("repair kept the damaged entry (stat: %v)", err)
	}
	if out, err := fsck(); err != nil {
		t.Fatalf("repaired store fails fsck: %v\n%s", err, out)
	}
}

// TestGC dates the entry that sorts last by name a day back: gc down to
// the other entries' size must remove exactly that entry.
func TestGC(t *testing.T) {
	dir, entries := precompiled(t)
	oldest := entries[len(entries)-1]
	var keep int64
	for _, e := range entries[:len(entries)-1] {
		info, err := os.Stat(e)
		if err != nil {
			t.Fatal(err)
		}
		keep += info.Size()
	}
	day := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(oldest, day, day); err != nil {
		t.Fatal(err)
	}
	out, err := stdout(t, func() error { return runGC([]string{"-dir", dir, "-max-bytes", fmt.Sprint(keep)}) })
	if err != nil || !strings.Contains(out, "removed 1 entries") {
		t.Fatalf("gc: %v\n%s", err, out)
	}
	if _, err := os.Stat(oldest); !os.IsNotExist(err) {
		t.Fatalf("gc kept the oldest write (stat: %v)", err)
	}
}

// TestOpenRejectsMissingDir checks that a maintenance command pointed at
// a directory that does not exist fails instead of creating it.
func TestOpenRejectsMissingDir(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := open(missing); err == nil {
		t.Fatal("open accepted a missing directory")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("open created the directory (stat: %v)", err)
	}
	if _, err := open(""); err == nil {
		t.Fatal("open accepted an empty -dir")
	}
}
