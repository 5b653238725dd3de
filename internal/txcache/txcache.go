// Package txcache implements DAISY's persistent cross-run translation
// cache. The paper's dominant cost is translation itself (§4.4 measures
// ~4315 host instructions per base instruction), and §5.1's analytic
// model shows that cost is only viable when amortized across reuse.
// Re-running the same binary re-pays it from scratch, so this package
// stores finished translations content-addressed by what they are a pure
// function of: the page's bytes, the page's base address (groups encode
// absolute targets), and the translator options that shaped the schedule.
//
// The store is two-tiered. The backing tier serializes each group through
// the existing internal/vliw binary encoding, flate-compressed, plus a
// small header carrying the group order the page layout used, so a
// reloaded page is laid out address-for-address like the original. Over
// it sits an in-memory hot tier: a size-bounded LRU of pristine decoded
// groups, so repeat Loads of one key — N machines of a fleet starting the
// same binary — skip the disk read, the decompression and the decode
// entirely and pay only a structure clone. Decode itself is single-
// flight: concurrent Loads of one key elect a leader and everyone else is
// served from its result.
//
// Every backing-tier load is validated structurally: a checksum over the
// file, a format version, a full key echo, and a clean decode of every
// group (the test wall additionally asserts byte-identical re-encode, so
// a decode that succeeds is known to reproduce the stored bytes).
// Anything that fails — a corrupt entry, a version bump, a truncated
// write — degrades to a cache miss and a fresh translation, never an
// error on the execution path.
package txcache

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"daisy/internal/vliw"
)

// Version is the on-disk format version. Bump it whenever the entry
// layout or the vliw binary encoding changes shape; old entries then read
// as version-skew misses and are re-translated rather than misdecoded.
// Version 2 added the compression codec byte and the raw-length field.
const Version = 2

const magic = 0x44545831 // "DTX1"

// Entry body codecs.
const (
	codecRaw   = 0 // body stored uncompressed
	codecFlate = 1 // body stored DEFLATE-compressed
)

// headerSize is the fixed prefix before the body blob: magic, version,
// key echo, codec byte, raw body length.
const headerSize = 4 + 2 + 8 + 4 + 32 + 1 + 4

// maxRawLen bounds an entry's raw (uncompressed) body. The largest body
// Save writes for any workload page is 25,465 bytes (the eight workloads
// at scale 8, synchronous, async and precompiled); the bound is 160 times
// that. A header claiming more is damage, rejected before anything is
// inflated, so a checksum-valid entry under the right name can make one
// Load allocate at most this much, not the 4 GiB its 32-bit length field
// can claim. Save refuses a body over it, so it never writes what Load
// would reject.
const maxRawLen = 4 << 20

// hotMaxBytes bounds the decoded hot tier: 64 MiB of raw entry payload,
// enough for the decoded working set of every workload in the repo many
// times over while staying irrelevant next to the guest memory image. It
// is a variable only so the package's tests can shrink it.
var hotMaxBytes int64 = 64 << 20

// Key addresses one page translation. Translation output is a pure
// function of the three fields (given a fixed translator version), which
// is what makes the cache safe to share across runs and across binaries
// that happen to map identical code at the same address.
type Key struct {
	PageBase uint32   // base-architecture page address
	OptFP    uint64   // fingerprint of the translator options (Fingerprint)
	Digest   [32]byte // SHA-256 of the page's bytes at translation time
}

// filename is the content address: every field of the key appears, so
// distinct keys can never collide on a path.
func (k Key) filename() string {
	return fmt.Sprintf("%08x-%016x-%x.dtx", k.PageBase, k.OptFP, k.Digest)
}

// Stats counts cache outcomes. HotHits is a subset of Hits; the four
// miss-reason counters partition Misses completely — every miss is
// exactly one of absent, corrupt, version-skew or options/key mismatch.
type Stats struct {
	Hits    uint64 // Loads served (both tiers)
	HotHits uint64 // subset of Hits served without touching the backing tier
	Misses  uint64
	Stores  uint64

	// Miss taxonomy.
	Absent          uint64 // no entry under the key
	Corrupt         uint64 // checksum/decode/validation failures
	VersionSkew     uint64 // format-version mismatches
	OptionsMismatch uint64 // key echo (options fingerprint/base/digest) disagrees with the filename

	// Tier mechanics. DiskReads counts payload fetches from the backing
	// tier; Decodes counts full binary decodes — with single-flight, at
	// most one per key per hot-tier residency, so a fleet of machines
	// loading one key shows DiskReads == Decodes == 1. BytesServed* count
	// raw (uncompressed) entry payload served per tier.
	DiskReads       uint64
	Decodes         uint64
	BytesServedHot  uint64
	BytesServedDisk uint64
	HotEvictions    uint64 // hot-tier entries dropped: past the bound, or their backing entry rewritten, damaged or removed

	// Compression accounting for written entries: raw body bytes in,
	// stored bytes out (header and checksum excluded on both sides).
	BytesRaw    uint64
	BytesStored uint64

	// Crash-safety counters (maintenance.go). SaveErrors are writes that
	// failed (disk full, unwritable dir); SaveBypassed are writes skipped
	// after repeated failures disabled the write path; Evictions are
	// backing entries removed by GC. None of them is ever an error on the
	// execution path.
	SaveErrors   uint64
	SaveBypassed uint64
	Evictions    uint64
}

// hotEntry is one decoded translation resident in the hot tier. groups is
// pristine — never handed to a machine directly (machines mutate layout
// addresses and chain links), always cloned on the way out.
type hotEntry struct {
	groups []*vliw.Group
	bytes  int64 // raw body size, the hot tier's accounting unit
}

// flightCall is one in-progress backing-tier load. Concurrent Loads of
// the same key wait on done and are served from the leader's result.
type flightCall struct {
	done   chan struct{}
	groups []*vliw.Group // pristine decoded set; nil if the leader missed
	bytes  int64
	reason MissReason // the leader's miss reason when groups is nil
}

// Store is a translation cache. With a directory it persists across
// runs; OpenMemory gives a process-local store with identical semantics
// (the encode/decode/validate path is shared) for tests and benchmarks.
//
// A Store is safe for concurrent use by multiple machines.
type Store struct {
	dir string

	mu  sync.Mutex
	mem map[string][]byte // in-memory entries when dir == ""
	st  Stats

	// Hot tier: pristine decoded groups over the backing tier, LRU by
	// raw payload bytes, bounded by hotMaxBytes.
	hot      map[string]*hotEntry
	hotOrder []string // LRU order, least recently used first
	hotBytes int64

	// flight holds in-progress backing-tier loads for single-flight
	// decode.
	flight map[string]*flightCall

	// Crash-safety state (maintenance.go): the injected failure mode and
	// the consecutive-failure streak that trips the write bypass.
	fail       FailMode
	failStreak int
	bypassed   bool
}

// Open returns a persistent store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// OpenMemory returns a store that lives only in this process.
func OpenMemory() *Store {
	return &Store{mem: make(map[string][]byte)}
}

// Dir returns the backing directory ("" for an in-memory store).
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Len reports the number of entries currently readable from the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return len(s.mem)
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".dtx" {
			n++
		}
	}
	return n
}

// Fingerprint hashes an options-description string into the OptFP key
// field. Callers must fold in every option that can change the emitted
// schedule; the format Version is folded in here so a format bump
// invalidates by key as well as by header.
func Fingerprint(desc string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%s", Version, desc)
	return h.Sum64()
}

// encodeBody serializes the group records (the part of an entry that is
// compressed on disk and resident in the hot tier).
func encodeBody(groups []*vliw.Group) ([]byte, error) {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, uint16(len(groups)))
	for _, g := range groups {
		code, err := vliw.EncodeGroup(g)
		if err != nil {
			return nil, fmt.Errorf("txcache: encode group %#x: %w", g.Entry, err)
		}
		body = binary.BigEndian.AppendUint32(body, g.Entry)
		body = binary.BigEndian.AppendUint32(body, uint32(g.BaseInsts))
		body = binary.BigEndian.AppendUint32(body, uint32(g.Parcels))
		body = binary.BigEndian.AppendUint32(body, uint32(len(code)))
		body = append(body, code...)
	}
	if len(body) > maxRawLen {
		return nil, fmt.Errorf("txcache: page body of %d bytes is over the %d-byte bound", len(body), maxRawLen)
	}
	return body, nil
}

// encodeEntry frames a body blob as the entry stored under k: header
// (magic, version, key echo, codec, raw body length), blob, checksum.
func encodeEntry(k Key, codec byte, rawLen int, blob []byte) []byte {
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, magic)
	payload = binary.BigEndian.AppendUint16(payload, Version)
	payload = binary.BigEndian.AppendUint64(payload, k.OptFP)
	payload = binary.BigEndian.AppendUint32(payload, k.PageBase)
	payload = append(payload, k.Digest[:]...)
	payload = append(payload, codec)
	payload = binary.BigEndian.AppendUint32(payload, uint32(rawLen))
	payload = append(payload, blob...)
	return binary.BigEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
}

// Save serializes groups (in page-layout order) under k. BaseInsts and
// Parcels ride alongside each group's binary code because the vliw
// encoding intentionally omits them (they are statistics, not semantics).
// The body is DEFLATE-compressed unless that would grow it (tiny
// entries). Save does not populate the hot tier: promotion happens on
// first Load, after the written bytes have actually been validated —
// which is also what keeps a torn write observable as the corrupt miss
// the next reader would see.
//
// Save never takes the machine down: a failed write (disk full,
// unwritable directory, injected fault) returns stored=false with the
// error for counting, and after saveBypassThreshold consecutive failures
// the write path disables itself entirely — further Saves return
// (false, nil) and only bump Stats.SaveBypassed, so a dead disk costs one
// counter increment per page instead of a syscall storm. A successful
// write re-arms the streak.
func (s *Store) Save(k Key, groups []*vliw.Group) (stored bool, err error) {
	body, err := encodeBody(groups)
	if err != nil {
		return false, err
	}
	codec := byte(codecRaw)
	blob := body
	var comp bytes.Buffer
	if fw, ferr := flate.NewWriter(&comp, flate.BestSpeed); ferr == nil {
		if _, werr := fw.Write(body); werr == nil && fw.Close() == nil && comp.Len() < len(body) {
			codec = codecFlate
			blob = comp.Bytes()
		}
	}
	payload := encodeEntry(k, codec, len(body), blob)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bypassed {
		s.st.SaveBypassed++
		return false, nil
	}
	name := k.filename()
	if err := s.writeEntry(name, payload); err != nil {
		s.st.SaveErrors++
		s.failStreak++
		if s.failStreak >= saveBypassThreshold {
			s.bypassed = true
		}
		return false, fmt.Errorf("txcache: %w", err)
	}
	s.failStreak = 0
	s.st.Stores++
	s.st.BytesRaw += uint64(len(body))
	s.st.BytesStored += uint64(len(blob))
	// A rewrite of the same content address can carry a larger group set
	// (write-through after entry extension): never serve the stale copy.
	s.dropHot(name)
	return true, nil
}

// writeEntry performs the physical write of one entry under the lock,
// honoring the injected failure mode. Disk entries go through
// write-rename so a crashed run leaves either the old entry or the new
// one, never a torn file; a failed write removes its temp file so broken
// runs do not litter the directory.
func (s *Store) writeEntry(name string, payload []byte) error {
	if s.fail == FailENOSPC {
		return errNoSpace
	}
	if s.fail == FailShortWrite && len(payload) > 8 {
		// A torn write that still gets renamed into place: the entry is
		// present but truncated, which Load's checksum turns into a
		// counted corrupt miss.
		payload = payload[:len(payload)/2]
	}
	if s.dir == "" {
		s.mem[name] = append([]byte(nil), payload...)
		return nil
	}
	final := filepath.Join(s.dir, name)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, payload, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load returns the cached groups for k in their original layout order,
// or ok=false on any miss — absent, corrupt, version-skewed or failing
// validation. It never returns an error: a bad cache entry must degrade
// to a fresh translation, not take the machine down.
//
// Loads are served from the hot tier when the key is resident (no I/O,
// no decode — one structure clone); otherwise the backing entry is read
// and decoded once, single-flight across concurrent callers, and
// promoted. The returned groups are always a private copy: machines
// mutate what they install.
func (s *Store) Load(k Key) (groups []*vliw.Group, ok bool) {
	g, _, reason := s.LoadReason(k)
	return g, reason == MissNone
}

// Has reports whether an entry exists under k, without reading, decoding
// or promoting it. It says nothing about the entry's validity — a corrupt
// entry still "exists" — so it is a pre-translation check (does the fleet
// already have this page?), never a substitute for Load.
func (s *Store) Has(k Key) bool {
	name := k.filename()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		_, ok := s.mem[name]
		return ok
	}
	_, err := os.Stat(filepath.Join(s.dir, name))
	return err == nil
}

// MissReason classifies why a Load missed (LoadReason).
type MissReason int

const (
	MissNone    MissReason = iota // no miss: the load hit
	MissAbsent                    // no entry under the key
	MissCorrupt                   // checksum/decode/validation failure
	MissVersion                   // format-version skew
	MissOptions                   // key echo (options fingerprint/base/digest) mismatch
)

func (r MissReason) String() string {
	switch r {
	case MissNone:
		return "none"
	case MissAbsent:
		return "absent"
	case MissCorrupt:
		return "corrupt"
	case MissVersion:
		return "version-skew"
	case MissOptions:
		return "options-mismatch"
	}
	return "unknown"
}

// LoadReason is Load with the outcome spelled out: hot reports a hit that
// never touched the backing tier, and reason classifies a miss so callers
// (the VMM's per-machine stats, telemetry) can export the taxonomy.
func (s *Store) LoadReason(k Key) (groups []*vliw.Group, hot bool, reason MissReason) {
	name := k.filename()
	s.mu.Lock()
	if h, ok := s.hot[name]; ok {
		s.st.Hits++
		s.st.HotHits++
		s.st.BytesServedHot += uint64(h.bytes)
		s.hotTouch(name)
		s.mu.Unlock()
		return cloneGroups(h.groups), true, MissNone
	}
	if f, ok := s.flight[name]; ok {
		// Another Load is decoding this key right now: wait for it and
		// share its result instead of duplicating the read and decode.
		s.mu.Unlock()
		<-f.done
		s.mu.Lock()
		if f.groups != nil {
			s.st.Hits++
			s.st.HotHits++
			s.st.BytesServedHot += uint64(f.bytes)
			s.mu.Unlock()
			return cloneGroups(f.groups), true, MissNone
		}
		s.countMiss(f.reason)
		s.mu.Unlock()
		return nil, false, f.reason
	}
	// Leader: register the flight, fetch the payload under the lock.
	f := &flightCall{done: make(chan struct{})}
	if s.flight == nil {
		s.flight = make(map[string]*flightCall)
	}
	s.flight[name] = f
	var payload []byte
	if s.dir == "" {
		payload = s.mem[name]
	} else {
		payload, _ = os.ReadFile(filepath.Join(s.dir, name))
	}
	if payload != nil {
		s.st.DiskReads++
	}
	s.mu.Unlock()

	reason = MissAbsent
	var raw int
	if payload != nil {
		groups, raw, reason = decodeEntry(k, payload)
	}

	s.mu.Lock()
	delete(s.flight, name)
	if payload != nil {
		s.st.Decodes++
	}
	if reason != MissNone {
		f.reason = reason
		s.countMiss(reason)
		s.mu.Unlock()
		close(f.done)
		return nil, false, reason
	}
	s.st.Hits++
	s.st.BytesServedDisk += uint64(raw)
	f.groups, f.bytes = groups, int64(raw)
	s.hotAdd(name, groups, int64(raw))
	s.mu.Unlock()
	close(f.done)
	// groups is now owned by the hot tier (and visible to waiters): serve
	// the caller a private copy like every other path.
	return cloneGroups(groups), false, MissNone
}

func cloneGroups(gs []*vliw.Group) []*vliw.Group {
	out := make([]*vliw.Group, len(gs))
	for i, g := range gs {
		out[i] = vliw.CloneGroup(g)
	}
	return out
}

// ---- Hot tier (all methods run under s.mu) ----

// HotTier reports the hot tier's current occupancy: resident entries and
// their raw payload bytes.
func (s *Store) HotTier() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hot), s.hotBytes
}

func (s *Store) hotAdd(name string, groups []*vliw.Group, raw int64) {
	if _, ok := s.hot[name]; ok {
		return
	}
	if s.hot == nil {
		s.hot = make(map[string]*hotEntry)
	}
	s.hot[name] = &hotEntry{groups: groups, bytes: raw}
	s.hotOrder = append(s.hotOrder, name)
	s.hotBytes += raw
	for s.hotBytes > hotMaxBytes && len(s.hotOrder) > 0 {
		victim := s.hotOrder[0]
		s.hotOrder = s.hotOrder[1:]
		if h, ok := s.hot[victim]; ok {
			s.hotBytes -= h.bytes
			delete(s.hot, victim)
			s.st.HotEvictions++
		}
	}
}

func (s *Store) hotTouch(name string) {
	for i, n := range s.hotOrder {
		if n == name {
			s.hotOrder = append(s.hotOrder[:i], s.hotOrder[i+1:]...)
			s.hotOrder = append(s.hotOrder, name)
			return
		}
	}
}

// dropHot removes one key's decoded copy, keeping the hot tier a subset
// of the backing tier (called when GC or fsck removes the backing entry,
// when a damage injector rewrites it, and on Save).
func (s *Store) dropHot(name string) {
	h, ok := s.hot[name]
	if !ok {
		return
	}
	s.hotBytes -= h.bytes
	delete(s.hot, name)
	for i, n := range s.hotOrder {
		if n == name {
			s.hotOrder = append(s.hotOrder[:i], s.hotOrder[i+1:]...)
			break
		}
	}
	s.st.HotEvictions++
}

func (s *Store) countMiss(r MissReason) {
	s.st.Misses++
	switch r {
	case MissAbsent:
		s.st.Absent++
	case MissCorrupt:
		s.st.Corrupt++
	case MissVersion:
		s.st.VersionSkew++
	case MissOptions:
		s.st.OptionsMismatch++
	}
}

// decodeEntry parses and fully validates one serialized entry, returning
// the decoded groups and the raw (uncompressed) body size.
func decodeEntry(k Key, payload []byte) ([]*vliw.Group, int, MissReason) {
	if len(payload) < headerSize+4 {
		return nil, 0, MissCorrupt
	}
	body, sum := payload[:len(payload)-4], payload[len(payload)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, 0, MissCorrupt
	}
	if binary.BigEndian.Uint32(body) != magic {
		return nil, 0, MissCorrupt
	}
	if binary.BigEndian.Uint16(body[4:]) != Version {
		return nil, 0, MissVersion
	}
	if binary.BigEndian.Uint64(body[6:]) != k.OptFP ||
		binary.BigEndian.Uint32(body[14:]) != k.PageBase ||
		!bytes.Equal(body[18:50], k.Digest[:]) {
		// The payload's key echo disagrees with the content address it
		// was loaded under: a renamed or cross-copied entry, classified
		// as an options/key mismatch (the fingerprint is the only echo
		// field the filename cannot verify by construction).
		return nil, 0, MissOptions
	}
	codec := body[50]
	rawLen := int(binary.BigEndian.Uint32(body[51:]))
	if rawLen > maxRawLen {
		return nil, 0, MissCorrupt
	}
	blob := body[headerSize:]
	var raw []byte
	switch codec {
	case codecRaw:
		if len(blob) != rawLen {
			return nil, 0, MissCorrupt
		}
		raw = blob
	case codecFlate:
		fr := flate.NewReader(bytes.NewReader(blob))
		b, err := io.ReadAll(io.LimitReader(fr, int64(rawLen)+1))
		fr.Close()
		if err != nil || len(b) != rawLen {
			return nil, 0, MissCorrupt
		}
		raw = b
	default:
		return nil, 0, MissCorrupt
	}
	if len(raw) < 2 {
		return nil, 0, MissCorrupt
	}
	count := int(binary.BigEndian.Uint16(raw))
	i := 2
	groups := make([]*vliw.Group, 0, count)
	for n := 0; n < count; n++ {
		if len(raw) < i+16 {
			return nil, 0, MissCorrupt
		}
		entry := binary.BigEndian.Uint32(raw[i:])
		baseInsts := binary.BigEndian.Uint32(raw[i+4:])
		parcels := binary.BigEndian.Uint32(raw[i+8:])
		codeLen := int(binary.BigEndian.Uint32(raw[i+12:]))
		i += 16
		if codeLen < 0 || len(raw) < i+codeLen {
			return nil, 0, MissCorrupt
		}
		code := raw[i : i+codeLen]
		i += codeLen
		g, err := vliw.DecodeGroup(code)
		if err != nil || g.Entry != entry {
			return nil, 0, MissCorrupt
		}
		g.BaseInsts = int(baseInsts)
		g.Parcels = int(parcels)
		groups = append(groups, g)
	}
	if i != len(raw) {
		return nil, 0, MissCorrupt
	}
	return groups, rawLen, MissNone
}

// SkewVersion rewrites every stored entry's format version to v and
// re-checksums it, simulating entries written by a different translator
// build (fault-injection tests). Returns the number of entries rewritten.
// Hot-tier copies of the skewed entries are flushed so the next Load
// actually reads the damaged bytes.
func (s *Store) SkewVersion(v uint16) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	rewrite := func(b []byte) []byte {
		if len(b) < 10 {
			return nil
		}
		binary.BigEndian.PutUint16(b[4:], v)
		body := b[:len(b)-4]
		binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
		return b
	}
	if s.dir == "" {
		for name, b := range s.mem {
			if nb := rewrite(b); nb != nil {
				s.mem[name] = nb
				s.dropHot(name)
				n++
			}
		}
		return n
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".dtx" {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if nb := rewrite(b); nb != nil && os.WriteFile(path, nb, 0o644) == nil {
			s.dropHot(e.Name())
			n++
		}
	}
	return n
}

// Corrupt flips one byte inside every stored entry's body blob (not
// the trailing checksum), for fault-injection tests. It returns the
// number of entries damaged. Hot-tier copies are flushed so the next
// Load actually reads the damaged bytes.
func (s *Store) Corrupt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	damage := func(b []byte) bool {
		if len(b) <= headerSize+8+4 {
			return false
		}
		b[headerSize+8] ^= 0x40 // inside the body blob
		return true
	}
	if s.dir == "" {
		for name, b := range s.mem {
			if damage(b) {
				s.mem[name] = b
				s.dropHot(name)
				n++
			}
		}
		return n
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".dtx" {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil || !damage(b) {
			continue
		}
		if os.WriteFile(path, b, 0o644) == nil {
			s.dropHot(e.Name())
			n++
		}
	}
	return n
}
