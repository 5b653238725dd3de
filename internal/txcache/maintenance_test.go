package txcache_test

// Tests for the crash-safety and maintenance layer (maintenance.go):
// write-failure bypass, torn writes degrading to counted corrupt misses,
// GC's oldest-write-first order and newborn rule, and fsck
// detection/repair.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"daisy/internal/txcache"
)

// keyAt returns a distinct content-address per page index (same groups,
// different PageBase — entries all have identical payload size, which the
// GC tests rely on).
func keyAt(base txcache.Key, i int) txcache.Key {
	k := base
	k.PageBase += uint32(i) * 0x1000
	return k
}

// TestSaveFailureBypass pins the three-strikes rule: consecutive write
// failures are counted errors until the threshold, after which the write
// path disables itself (counted bypass, no error, no syscalls) — and
// clearing the failure re-arms it.
func TestSaveFailureBypass(t *testing.T) {
	pt, groups := translated(t)
	s := txcache.OpenMemory()
	k := key(pt)
	s.SetFailMode(txcache.FailENOSPC)
	for i := 0; i < 3; i++ {
		if stored, err := s.Save(k, groups); stored || err == nil {
			t.Fatalf("save %d: stored=%v err=%v, want false, error", i, stored, err)
		}
	}
	if stored, err := s.Save(k, groups); stored || err != nil {
		t.Fatalf("bypassed save: stored=%v err=%v, want false, nil (degraded, not failed)", stored, err)
	}
	st := s.Stats()
	if st.SaveErrors != 3 || st.SaveBypassed != 1 {
		t.Fatalf("stats %+v, want 3 save errors and 1 bypass", st)
	}
	// The volume comes back: clearing the mode re-arms the write path.
	s.SetFailMode(txcache.FailNone)
	if stored, err := s.Save(k, groups); !stored || err != nil {
		t.Fatalf("save after recovery: stored=%v err=%v", stored, err)
	}
	if _, ok := s.Load(k); !ok {
		t.Fatal("entry unreadable after recovery")
	}
}

// TestShortWriteDegradesToCorruptMiss pins torn-write handling: a write
// that lands truncated (as if the process died mid-write) is served as a
// counted corrupt miss, never an error, and the next clean save heals it.
func TestShortWriteDegradesToCorruptMiss(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	disk, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*txcache.Store{"mem": txcache.OpenMemory(), "disk": disk} {
		k := key(pt)
		s.SetFailMode(txcache.FailShortWrite)
		// The write itself "succeeds" — the damage is only visible on read,
		// exactly like a torn write that got renamed into place.
		if stored, err := s.Save(k, groups); !stored || err != nil {
			t.Fatalf("%s: torn save: stored=%v err=%v", name, stored, err)
		}
		if _, ok := s.Load(k); ok {
			t.Fatalf("%s: truncated entry served", name)
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Fatalf("%s: torn write not a corrupt miss: %+v", name, st)
		}
		s.SetFailMode(txcache.FailNone)
		if stored, err := s.Save(k, groups); !stored || err != nil {
			t.Fatalf("%s: healing save: stored=%v err=%v", name, stored, err)
		}
		if _, ok := s.Load(k); !ok {
			t.Fatalf("%s: entry unreadable after healing save", name)
		}
	}
}

// TestGC pins the maintenance sweep on a disk store: shrinking to zero
// removes everything but a newborn — an entry whose time is after the
// sweep started, as if a live machine wrote it mid-sweep — and reports
// what it freed; a second pass is a no-op.
func TestGC(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := key(pt)
	for i := 0; i < 4; i++ {
		if _, err := s.Save(keyAt(base, i), groups); err != nil {
			t.Fatal(err)
		}
	}
	newborn := filepath.Join(dir, txcacheFilename(keyAt(base, 0)))
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(newborn, future, future); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := s.GC(0)
	if err != nil || removed != 3 || freed <= 0 {
		t.Fatalf("GC: removed=%d freed=%d err=%v, want 3 removals", removed, freed, err)
	}
	if _, err := os.Stat(newborn); err != nil || s.Len() != 1 {
		t.Fatalf("GC(0) left %d entries, want only the newborn (stat: %v)", s.Len(), err)
	}
	if st := s.Stats(); st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	if removed, freed, err := s.GC(0); err != nil || removed != 0 || freed != 0 {
		t.Fatalf("second GC: removed=%d freed=%d err=%v, want no-op", removed, freed, err)
	}
}

// TestGCOldestWriteFirst pins GC's order and that reads leave the store
// alone: a Load does not touch the entry's time, so GC still removes the
// entry written longest ago even right after that entry was loaded. The
// older entry sorts last by name, so a name-ordered sweep would fail too.
func TestGCOldestWriteFirst(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := key(pt)
	older, newer := keyAt(base, 1), keyAt(base, 0)
	path := func(k txcache.Key) string { return filepath.Join(dir, txcacheFilename(k)) }
	now := time.Now()
	for k, age := range map[txcache.Key]time.Duration{older: 2 * time.Hour, newer: time.Hour} {
		if _, err := s.Save(k, groups); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path(k), now.Add(-age), now.Add(-age)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path(older))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(older); !ok {
		t.Fatal("older entry missed")
	}
	after, err := os.Stat(path(older))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("Load moved the entry's time from %v to %v", before.ModTime(), after.ModTime())
	}
	if removed, _, err := s.GC(after.Size()); err != nil || removed != 1 {
		t.Fatalf("GC to one entry: removed=%d err=%v, want 1", removed, err)
	}
	if _, err := os.Stat(path(older)); !os.IsNotExist(err) {
		t.Fatalf("GC kept the oldest write (stat: %v)", err)
	}
	if _, err := os.Stat(path(newer)); err != nil {
		t.Fatalf("GC removed the newer write: %v", err)
	}
}

// TestFsck pins detection and repair: corruption, version skew, foreign
// filenames and orphaned temp files are each classified, repair removes
// exactly the invalid files, and a healthy store passes clean.
func TestFsck(t *testing.T) {
	pt, groups := translated(t)
	dir := t.TempDir()
	s, err := txcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := key(pt)
	for i := 0; i < 2; i++ {
		if _, err := s.Save(keyAt(base, i), groups); err != nil {
			t.Fatal(err)
		}
	}
	if rep := s.Fsck(false); rep.Bad() || rep.OK != 2 {
		t.Fatalf("healthy store flagged: %v", rep)
	}

	// Damage everything on disk, then litter the directory.
	if n := s.Corrupt(); n != 2 {
		t.Fatalf("corrupted %d entries, want 2", n)
	}
	for _, f := range []string{"00000000-0000000000000000-00.tmp", "not-a-cache-entry.dtx", "README"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Fsck(false)
	if rep.Corrupt != 2 || rep.BadName != 1 || rep.TmpFiles != 1 || rep.Removed != 0 {
		t.Fatalf("detection pass: %v", rep)
	}
	if !rep.Bad() {
		t.Fatal("damaged store not flagged")
	}

	rep = s.Fsck(true)
	if rep.Removed != 4 {
		t.Fatalf("repair removed %d files, want 4 (2 corrupt + bad name + tmp)", rep.Removed)
	}
	if rep := s.Fsck(false); rep.Bad() || rep.Scanned != 0 {
		t.Fatalf("store not clean after repair: %v", rep)
	}
	// The unrelated file is not ours to delete.
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("repair deleted an unrelated file: %v", err)
	}
	// The repaired store keeps working.
	if stored, err := s.Save(base, groups); !stored || err != nil {
		t.Fatalf("save after repair: stored=%v err=%v", stored, err)
	}
	if _, ok := s.Load(base); !ok {
		t.Fatal("load after repair missed")
	}
}

// TestFsckVersionSkew pins the remaining classification: an entry written
// by a different format version is VersionSkew, not Corrupt.
func TestFsckVersionSkew(t *testing.T) {
	pt, groups := translated(t)
	s := txcache.OpenMemory()
	if _, err := s.Save(key(pt), groups); err != nil {
		t.Fatal(err)
	}
	if n := s.SkewVersion(txcache.Version + 1); n != 1 {
		t.Fatalf("skewed %d entries, want 1", n)
	}
	rep := s.Fsck(false)
	if rep.VersionSkew != 1 || rep.Corrupt != 0 {
		t.Fatalf("skew classified wrong: %v", rep)
	}
}
