package telemetry

// pprof-compatible export of the guest profile. The payload is the
// proto3 wire encoding of pprof's profile.proto — hand-rolled here
// (varints, length-delimited submessages, packed repeated scalars) so the
// repo stays stdlib-only — wrapped in gzip as `go tool pprof` expects.
//
// Shape: three sample values per PC (cycles, insts, wall ns), one
// location per PC at the guest address with a synthetic two-frame stack
// [pc, page] so `pprof -top` lists base-PC frames flat while cumulative
// views roll up by translation page. default_sample_type is cycles, the
// machine's deterministic clock.
//
// The gzip header Go writes is deterministic (zero mtime, OS=255), so a
// Canonical profile exports byte-identically across runs.

import (
	"compress/gzip"
	"fmt"
	"io"
)

// pbuf is a minimal proto3 wire-format writer.
type pbuf struct{ b []byte }

func (p *pbuf) uvarint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) key(field, wire int) { p.uvarint(uint64(field)<<3 | uint64(wire)) }

// varint emits a varint-typed field (skipping proto3 zero defaults).
func (p *pbuf) varint(field int, v uint64) {
	if v == 0 {
		return
	}
	p.key(field, 0)
	p.uvarint(v)
}

func (p *pbuf) bytes(field int, data []byte) {
	p.key(field, 2)
	p.uvarint(uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pbuf) str(field int, s string) { p.bytes(field, []byte(s)) }

func (p *pbuf) msg(field int, m *pbuf) { p.bytes(field, m.b) }

// packed emits a packed repeated varint field (including empty lists,
// which are simply omitted).
func (p *pbuf) packed(field int, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	var inner pbuf
	for _, v := range vals {
		inner.uvarint(v)
	}
	p.bytes(field, inner.b)
}

// profile.proto field numbers (github.com/google/pprof/proto/profile.proto).
const (
	pfSampleType        = 1
	pfSample            = 2
	pfMapping           = 3
	pfLocation          = 4
	pfFunction          = 5
	pfStringTable       = 6
	pfPeriodType        = 11
	pfPeriod            = 12
	pfDefaultSampleType = 14

	vtType = 1
	vtUnit = 2

	smLocationID = 1
	smValue      = 2

	mpID          = 1
	mpMemoryStart = 2
	mpMemoryLimit = 3
	mpFilename    = 5

	locID        = 1
	locMappingID = 2
	locAddress   = 3
	locLine      = 4

	lnFunctionID = 1

	fnID   = 1
	fnName = 2
)

// strTab interns strings for the profile string table (index 0 must be "").
type strTab struct {
	idx map[string]uint64
	tab []string
}

func newStrTab() *strTab {
	return &strTab{idx: map[string]uint64{"": 0}, tab: []string{""}}
}

func (t *strTab) id(s string) uint64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint64(len(t.tab))
	t.idx[s] = i
	t.tab = append(t.tab, s)
	return i
}

func valueType(typ, unit uint64) *pbuf {
	var b pbuf
	b.varint(vtType, typ)
	b.varint(vtUnit, unit)
	return &b
}

// WritePprof writes the profile as a gzipped pprof protobuf payload.
func (p *Profile) WritePprof(w io.Writer) error {
	samples := p.Samples()
	mask := ^(p.PageSize() - 1)
	st := newStrTab()

	var out pbuf
	out.msg(pfSampleType, valueType(st.id("cycles"), st.id("count")))
	out.msg(pfSampleType, valueType(st.id("insts"), st.id("count")))
	out.msg(pfSampleType, valueType(st.id("wall"), st.id("nanoseconds")))

	// One mapping covering the 32-bit guest address space.
	var mp pbuf
	mp.varint(mpID, 1)
	// memory_start 0 is the proto3 default and therefore omitted.
	mp.varint(mpMemoryLimit, 1<<32)
	mp.varint(mpFilename, st.id("[guest]"))
	out.msg(pfMapping, &mp)

	// Locations and functions: one per PC, one per page; the page frame is
	// the synthetic caller so cumulative views group by translation page.
	// IDs are assigned in sample order (hottest first), which is the
	// profile's deterministic order.
	locOf := make(map[uint32]uint64, len(samples))
	nextLoc := uint64(1)
	nextFn := uint64(1)
	addLoc := func(addr uint32, name string) uint64 {
		if id, ok := locOf[addr]; ok {
			return id
		}
		fnid := nextFn
		nextFn++
		var fn pbuf
		fn.varint(fnID, fnid)
		fn.varint(fnName, st.id(name))
		out.msg(pfFunction, &fn)

		id := nextLoc
		nextLoc++
		var loc pbuf
		loc.varint(locID, id)
		loc.varint(locMappingID, 1)
		loc.varint(locAddress, uint64(addr))
		var line pbuf
		line.varint(lnFunctionID, fnid)
		loc.msg(locLine, &line)
		out.msg(pfLocation, &loc)
		locOf[addr] = id
		return id
	}

	for _, s := range samples {
		pcLoc := addLoc(s.PC, fmt.Sprintf("0x%08x", s.PC))
		pageLoc := addLoc(s.PC&mask, fmt.Sprintf("page 0x%08x", s.PC&mask))
		var sm pbuf
		sm.packed(smLocationID, []uint64{pcLoc, pageLoc})
		sm.packed(smValue, []uint64{s.Cycles, s.Insts, s.WallNs})
		out.msg(pfSample, &sm)
	}

	out.msg(pfPeriodType, valueType(st.id("group_runs"), st.id("count")))
	out.varint(pfPeriod, p.Period())
	out.varint(pfDefaultSampleType, st.id("cycles"))
	for _, s := range st.tab {
		out.str(pfStringTable, s)
	}

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.b); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// ---- payload validation (make profile-smoke, daisy-run -profile) ----

// pprofSummary is what ValidatePprof extracts from a payload.
type pprofSummary struct {
	SampleTypes int
	Samples     int
	Locations   int
	Functions   int
	Strings     int
	TotalValue  []uint64 // per-sample-type column sums
}

func (s pprofSummary) String() string {
	return fmt.Sprintf("%d samples x %d types, %d locations, %d functions, %d strings, totals %v",
		s.Samples, s.SampleTypes, s.Locations, s.Functions, s.Strings, s.TotalValue)
}

// ValidatePprof gunzips and structurally parses a pprof payload: every
// field must decode as valid proto3 wire format, every sample must carry
// one value per sample type and reference only defined locations. It
// returns a summary for reporting. This is the profile-smoke CI gate —
// cheaper and more portable than shelling out to `go tool pprof`.
func ValidatePprof(r io.Reader) (*pprofSummary, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("pprof payload is not gzip: %w", err)
	}
	defer gz.Close()
	raw, err := io.ReadAll(gz)
	if err != nil {
		return nil, err
	}

	sum := &pprofSummary{}
	locIDs := make(map[uint64]bool)
	var sampleMsgs [][]byte
	if err := walkFields(raw, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case pfSampleType:
			sum.SampleTypes++
		case pfSample:
			sum.Samples++
			sampleMsgs = append(sampleMsgs, data)
		case pfLocation:
			sum.Locations++
			id, err := scalarField(data, locID)
			if err != nil {
				return err
			}
			locIDs[id] = true
		case pfFunction:
			sum.Functions++
		case pfStringTable:
			sum.Strings++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if sum.SampleTypes == 0 {
		return nil, fmt.Errorf("pprof payload has no sample types")
	}
	sum.TotalValue = make([]uint64, sum.SampleTypes)
	for _, sm := range sampleMsgs {
		var locs, vals []uint64
		if err := walkFields(sm, func(field, wire int, v uint64, data []byte) error {
			switch field {
			case smLocationID:
				locs = appendRepeated(locs, wire, v, data)
			case smValue:
				vals = appendRepeated(vals, wire, v, data)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(vals) != sum.SampleTypes {
			return nil, fmt.Errorf("sample has %d values for %d sample types", len(vals), sum.SampleTypes)
		}
		if len(locs) == 0 {
			return nil, fmt.Errorf("sample has no locations")
		}
		for _, l := range locs {
			if !locIDs[l] {
				return nil, fmt.Errorf("sample references undefined location %d", l)
			}
		}
		for i, v := range vals {
			sum.TotalValue[i] += v
		}
	}
	return sum, nil
}

// walkFields iterates the top-level fields of one proto3 message. For
// varint fields v is the value; for length-delimited fields data is the
// payload. Other wire types are skipped structurally.
func walkFields(b []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := readUvarint(b)
		if n <= 0 {
			return fmt.Errorf("truncated field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			v, n := readUvarint(b)
			if n <= 0 {
				return fmt.Errorf("truncated varint in field %d", field)
			}
			b = b[n:]
			if err := f(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("truncated fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := readUvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated bytes in field %d", field)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("truncated fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendRepeated accumulates a repeated scalar that may arrive packed
// (wire 2) or unpacked (wire 0).
func appendRepeated(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := readUvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// scalarField returns the value of one varint field of a submessage.
func scalarField(msg []byte, want int) (uint64, error) {
	var out uint64
	err := walkFields(msg, func(field, wire int, v uint64, data []byte) error {
		if field == want && wire == 0 {
			out = v
		}
		return nil
	})
	return out, err
}

func readUvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}
