package telemetry

// Unit tests for the guest attribution profile (profile.go) and its
// pprof export (pprof.go), plus the Prometheus cumulative-histogram pin
// the span latency series rides on.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestProfileAddRun(t *testing.T) {
	p := NewProfile(4)
	if p.Period() != 4 {
		t.Fatalf("period = %d, want 4", p.Period())
	}
	p.AddRun([]PCCharge{
		{PC: 0x1000, Cycles: 6, Insts: 10},
		{PC: 0x1004, Cycles: 2, Insts: 3},
	}, 800)
	p.AddRun([]PCCharge{{PC: 0x1000, Cycles: 2, Insts: 1}}, 100)
	p.AddRun(nil, 999) // empty runs contribute nothing

	s := p.Samples()
	if len(s) != 2 {
		t.Fatalf("samples = %d, want 2", len(s))
	}
	// Hottest first: 0x1000 has 8 cycles, 0x1004 has 2.
	want := []PCSample{
		{PC: 0x1000, Cycles: 8, Insts: 11, WallNs: 600 + 100},
		{PC: 0x1004, Cycles: 2, Insts: 3, WallNs: 200},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("samples = %+v, want %+v", s, want)
	}
	if p.TotalCycles() != 10 {
		t.Fatalf("total cycles = %d, want 10", p.TotalCycles())
	}
}

func TestProfilePagesRollup(t *testing.T) {
	p := NewProfile(1)
	p.SetPageSize(0x1000)
	p.AddRun([]PCCharge{
		{PC: 0x1000, Cycles: 3, Insts: 3},
		{PC: 0x1ffc, Cycles: 1, Insts: 1},
		{PC: 0x2000, Cycles: 5, Insts: 5},
	}, 0)
	pages := p.Pages()
	if len(pages) != 2 {
		t.Fatalf("pages = %d, want 2", len(pages))
	}
	if pages[0].Base != 0x2000 || pages[0].Cycles != 5 || pages[0].PCs != 1 {
		t.Fatalf("hottest page = %+v", pages[0])
	}
	if pages[1].Base != 0x1000 || pages[1].Cycles != 4 || pages[1].PCs != 2 {
		t.Fatalf("second page = %+v", pages[1])
	}
}

func TestProfileCanonicalZeroesWall(t *testing.T) {
	p := NewProfile(1)
	p.AddRun([]PCCharge{{PC: 0x1000, Cycles: 1, Insts: 1}}, 12345)
	c := p.Canonical()
	for _, s := range c.Samples() {
		if s.WallNs != 0 {
			t.Fatalf("canonical sample has WallNs=%d", s.WallNs)
		}
	}
	// The original is untouched.
	if p.Samples()[0].WallNs == 0 {
		t.Fatal("Canonical mutated the source profile")
	}
}

func TestProfileRenderTop(t *testing.T) {
	p := NewProfile(8)
	p.AddRun([]PCCharge{
		{PC: 0x10040, Cycles: 30, Insts: 60},
		{PC: 0x10044, Cycles: 10, Insts: 20},
	}, 0)
	out := p.RenderTop(10)
	for _, want := range []string{
		"2 PCs, 40 cycles, 80 insts (sampled 1-in-8 group runs)",
		"0x00010040", "75.0%", "by page:", "0x00010000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTop missing %q in:\n%s", want, out)
		}
	}
	if empty := NewProfile(1).RenderTop(5); !strings.Contains(empty, "0 PCs") {
		t.Errorf("empty profile rendered %q", empty)
	}
}

// TestPprofRoundTrip writes a profile and re-reads it through the
// structural validator: field counts and per-type value sums must survive
// the encode.
func TestPprofRoundTrip(t *testing.T) {
	p := NewProfile(2)
	p.SetPageSize(0x1000)
	p.AddRun([]PCCharge{
		{PC: 0x1000, Cycles: 7, Insts: 9},
		{PC: 0x1010, Cycles: 3, Insts: 4},
		{PC: 0x2020, Cycles: 1, Insts: 1},
	}, 500)
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidatePprof(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SampleTypes != 3 {
		t.Errorf("sample types = %d, want 3 (cycles/insts/wall)", sum.SampleTypes)
	}
	if sum.Samples != 3 {
		t.Errorf("samples = %d, want 3", sum.Samples)
	}
	// 3 PC locations + 2 page locations (0x1000 doubles as its own page
	// frame, interned once).
	if sum.Locations != 4 {
		t.Errorf("locations = %d, want 4", sum.Locations)
	}
	if sum.TotalValue[0] != 11 || sum.TotalValue[1] != 14 {
		t.Errorf("value totals = %v, want cycles 11, insts 14", sum.TotalValue)
	}
}

// TestPprofDeterministic pins byte-determinism of the canonical export —
// the property the golden test and cross-run diffing rely on.
func TestPprofDeterministic(t *testing.T) {
	mk := func() []byte {
		p := NewProfile(1)
		p.AddRun([]PCCharge{
			{PC: 0x3000, Cycles: 5, Insts: 5},
			{PC: 0x3004, Cycles: 5, Insts: 5}, // tie: broken by ascending PC
			{PC: 0x4000, Cycles: 1, Insts: 2},
		}, 777)
		var buf bytes.Buffer
		if err := p.Canonical().WritePprof(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("two canonical exports of the same profile differ byte-wise")
	}
}

func TestValidatePprofRejectsGarbage(t *testing.T) {
	if _, err := ValidatePprof(strings.NewReader("not gzip")); err == nil {
		t.Fatal("plain text accepted")
	}
}

// TestPrometheusHistogramCumulative pins the exposition-format contract
// for histograms (the span latency series among them): _bucket values are
// cumulative with a trailing +Inf, and _sum/_count close the family.
func TestPrometheusHistogramCumulative(t *testing.T) {
	tel := New(Options{})
	h := tel.Histogram("daisy_span_queue_wait_ns", []float64{10, 100})
	for _, v := range []float64{5, 50, 60, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := tel.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`daisy_span_queue_wait_ns_bucket{le="10"} 1`,
		`daisy_span_queue_wait_ns_bucket{le="100"} 3`,
		`daisy_span_queue_wait_ns_bucket{le="+Inf"} 4`,
		`daisy_span_queue_wait_ns_count 4`,
		`daisy_span_queue_wait_ns_sum 1115`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus text missing %q in:\n%s", want, out)
		}
	}
}

// TestOptionsProfile pins the wiring: the Profile option surfaces through
// its accessor and stays off by default.
func TestOptionsProfile(t *testing.T) {
	tel := New(Options{Profile: true, SampleEvery: 2})
	if tel.Profile() == nil {
		t.Fatal("Profile() nil with Options.Profile")
	}
	if tel.Profile().Period() != 2 {
		t.Fatalf("profile period = %d, want the sample stride", tel.Profile().Period())
	}
	if New(DefaultOptions()).Profile() != nil {
		t.Fatal("profiler on by default")
	}
}
