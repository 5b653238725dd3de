package txcache

// Crash-safety and maintenance for the persistent store: injected I/O
// failure modes for the chaos harness, a generation-safe garbage
// collector — the store's one size bound, removing the oldest writes
// first — and an fsck that validates (and optionally repairs) every entry
// on disk. The design rule is the same one the Load path already obeys:
// the cache is an accelerator, never a dependency — every failure here
// degrades to counted misses or bypassed writes, and nothing in this file
// can fail the guest.

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FailMode is an injected I/O failure for the chaos harness. Modes apply
// to writes only: read-side damage is injected with Corrupt/SkewVersion,
// which model what is actually on a bad disk rather than how it got there.
type FailMode int

const (
	FailNone       FailMode = iota
	FailENOSPC              // every write fails as if the volume were full
	FailShortWrite          // writes land truncated (a torn write Load must absorb)
)

// errNoSpace is the simulated disk-full error (kept distinguishable from
// a real one for tests).
var errNoSpace = errors.New("no space left on device (injected)")

// saveBypassThreshold is how many consecutive Save failures disable the
// write path. Three strikes: one failure may be transient, three in a row
// is a dead or full volume, and hammering it would cost a syscall per
// translated page for the rest of the run.
const saveBypassThreshold = 3

// SetFailMode arms (or clears, with FailNone) an injected write-failure
// mode. Clearing also re-arms a store that had bypassed its write path,
// so chaos scenarios can model a volume coming back.
func (s *Store) SetFailMode(f FailMode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = f
	if f == FailNone {
		s.bypassed = false
		s.failStreak = 0
	}
}

// ---- Garbage collection ----

// GC shrinks the store to at most maxBytes of entry payload, removing the
// oldest writes first: disk entries by modification time, ties broken by
// name, and memory entries (which have no times) by name. Only Save sets
// an entry's time — Load never writes to the directory — so the order is
// the same from every process that reads the store. GC is
// generation-safe: an entry whose time is after the scan started was
// written by a live machine (writes rename into place atomically) and is
// skipped rather than collected by the sweep that missed its birth.
// Returns the number of entries removed and the bytes freed.
func (s *Store) GC(maxBytes int64) (removed int, freed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	type entry struct {
		name string
		size int64
		mod  time.Time
	}
	var ents []entry
	var total int64
	if s.dir == "" {
		for name, b := range s.mem {
			ents = append(ents, entry{name: name, size: int64(len(b))})
			total += int64(len(b))
		}
	} else {
		des, err := os.ReadDir(s.dir)
		if err != nil {
			return 0, 0, fmt.Errorf("txcache: gc: %w", err)
		}
		for _, e := range des {
			if filepath.Ext(e.Name()) != ".dtx" {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue // removed since the listing
			}
			ents = append(ents, entry{e.Name(), info.Size(), info.ModTime()})
			total += info.Size()
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		if !ents[i].mod.Equal(ents[j].mod) {
			return ents[i].mod.Before(ents[j].mod)
		}
		return ents[i].name < ents[j].name
	})
	for _, e := range ents {
		if total <= maxBytes {
			break
		}
		if s.dir != "" {
			path := filepath.Join(s.dir, e.name)
			if info, statErr := os.Stat(path); statErr == nil && info.ModTime().After(start) {
				// Born after the scan started: a live writer owns it.
				// Skip it this cycle rather than collect a newborn.
				total -= e.size
				continue
			}
			if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
				return removed, freed, fmt.Errorf("txcache: gc: %w", rmErr)
			}
		} else {
			delete(s.mem, e.name)
		}
		freed += e.size
		total -= e.size
		s.dropHot(e.name)
		removed++
		s.st.Evictions++
	}
	return removed, freed, nil
}

// ---- Usage ----

// UsageReport summarizes the disk tier's space economics from the entry
// headers alone — no body decompression, no hot-tier promotion — so
// `daisy-txcache stat` can report a large directory cheaply.
type UsageReport struct {
	Entries     int    // .dtx entries scanned
	Compressed  int    // entries whose body is DEFLATE-compressed
	PayloadSize uint64 // total file bytes (headers + blobs + checksums)
	StoredSize  uint64 // body blob bytes as stored
	RawSize     uint64 // body bytes after decompression (from the headers)
	Short       int    // entries too short to carry a header (torn writes)
}

// Ratio returns the disk tier's compression ratio, raw bytes per stored
// byte (1.0 = incompressible, higher is better).
func (r UsageReport) Ratio() float64 {
	if r.StoredSize == 0 {
		return 1
	}
	return float64(r.RawSize) / float64(r.StoredSize)
}

// Usage scans every entry's fixed header. A short or unreadable entry is
// counted, not failed: this is accounting, fsck is the validator.
func (s *Store) Usage() UsageReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep UsageReport
	account := func(payload []byte) {
		rep.Entries++
		rep.PayloadSize += uint64(len(payload))
		if len(payload) < headerSize+4 {
			rep.Short++
			return
		}
		if binary.BigEndian.Uint32(payload[0:4]) != magic {
			rep.Short++
			return
		}
		codec := payload[headerSize-5]
		rawLen := binary.BigEndian.Uint32(payload[headerSize-4 : headerSize])
		rep.StoredSize += uint64(len(payload) - headerSize - 4)
		rep.RawSize += uint64(rawLen)
		if codec == codecFlate {
			rep.Compressed++
		}
	}
	if s.dir == "" {
		for _, payload := range s.mem {
			account(payload)
		}
		return rep
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return rep
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".dtx" {
			continue
		}
		payload, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue
		}
		account(payload)
	}
	return rep
}

// ---- Fsck ----

// FsckReport summarizes one consistency pass over the store.
type FsckReport struct {
	Scanned     int // .dtx entries examined
	OK          int // entries that decoded and validated cleanly
	Corrupt     int // checksum/decode failures
	VersionSkew int // format-version or key-echo mismatches
	BadName     int // filenames that do not parse as a content address
	TmpFiles    int // orphaned .tmp files from interrupted writes
	Removed     int // files deleted (repair mode only)
}

// Bad reports whether the pass found anything wrong.
func (r FsckReport) Bad() bool {
	return r.Corrupt+r.VersionSkew+r.BadName+r.TmpFiles > 0
}

func (r FsckReport) String() string {
	return fmt.Sprintf("scanned %d: %d ok, %d corrupt, %d version-skew, %d bad-name, %d orphan tmp, %d removed",
		r.Scanned, r.OK, r.Corrupt, r.VersionSkew, r.BadName, r.TmpFiles, r.Removed)
}

// Fsck validates every entry in the store exactly as the Load path would:
// the filename must parse back to a content-address key, and the payload
// must pass the checksum, version, key-echo and full group-decode checks
// against that key. With repair set, everything invalid — plus orphaned
// .tmp files from interrupted writes — is deleted, so the store is
// afterwards indistinguishable from one that never took the damage.
func (s *Store) Fsck(repair bool) FsckReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep FsckReport
	remove := func(name string) {
		if !repair {
			return
		}
		if s.dir == "" {
			delete(s.mem, name)
		} else if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return
		}
		s.dropHot(name)
		rep.Removed++
	}
	check := func(name string, payload []byte) {
		rep.Scanned++
		k, ok := parseName(name)
		if !ok {
			rep.BadName++
			remove(name)
			return
		}
		switch _, _, reason := decodeEntry(k, payload); reason {
		case MissNone:
			rep.OK++
		case MissVersion, MissOptions:
			rep.VersionSkew++
			remove(name)
		default:
			rep.Corrupt++
			remove(name)
		}
	}
	if s.dir == "" {
		names := make([]string, 0, len(s.mem))
		for name := range s.mem {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			check(name, s.mem[name])
		}
		return rep
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return rep
	}
	for _, e := range ents {
		name := e.Name()
		switch filepath.Ext(name) {
		case ".tmp":
			rep.TmpFiles++
			remove(name)
		case ".dtx":
			payload, err := os.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				rep.Scanned++
				rep.Corrupt++
				remove(name)
				continue
			}
			check(name, payload)
		}
	}
	return rep
}

// ParseName inverts a store filename back to its content-address key.
// Tools that walk a cache directory themselves (daisy-txcache stat -deep)
// use it to turn directory listings into loadable keys.
func ParseName(name string) (Key, bool) { return parseName(name) }

// parseName inverts Key.filename: "%08x-%016x-%x.dtx" with a 64-hex-digit
// digest. Anything else in the directory is not one of ours.
func parseName(name string) (Key, bool) {
	base, found := strings.CutSuffix(name, ".dtx")
	if !found {
		return Key{}, false
	}
	parts := strings.Split(base, "-")
	if len(parts) != 3 || len(parts[0]) != 8 || len(parts[1]) != 16 || len(parts[2]) != 64 {
		return Key{}, false
	}
	pageBase, err1 := strconv.ParseUint(parts[0], 16, 32)
	optFP, err2 := strconv.ParseUint(parts[1], 16, 64)
	digest, err3 := hex.DecodeString(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || len(digest) != 32 {
		return Key{}, false
	}
	k := Key{PageBase: uint32(pageBase), OptFP: optFP}
	copy(k.Digest[:], digest)
	return k, true
}
