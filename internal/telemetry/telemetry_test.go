package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryIdentity(t *testing.T) {
	tel := New(DefaultOptions())
	c1 := tel.Counter("a")
	c2 := tel.Counter("a")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Add(3)
	c2.Inc()
	if got := tel.Counter("a").Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
	g := tel.Gauge("g")
	g.Set(2.5)
	if got := tel.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge value = %v, want 2.5", got)
	}
	h1 := tel.Histogram("h", []float64{1, 2, 4})
	h2 := tel.Histogram("h", nil) // existing histogram wins; bounds ignored
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
}

func TestHistogramBuckets(t *testing.T) {
	tel := New(DefaultOptions())
	h := tel.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Mean(), (0.5+1+1.5+3+100)/5; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	s := tel.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot histograms = %d, want 1", len(s.Histograms))
	}
	hs := s.Histograms[0]
	// Non-cumulative per-bucket counts: (≤1)=2, (≤2)=1, (≤4)=1, overflow=1.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

func TestCanonicalZeroesTimeBase(t *testing.T) {
	tel := New(DefaultOptions())
	tel.Counter("steady").Add(7)
	tel.TimeCounter("wall_ns").Add(123456)
	tel.TimeHistogram("ns_hist", []float64{10, 100}).Observe(55)
	tel.Histogram("pure", []float64{10, 100}).Observe(55)

	c := tel.Snapshot().Canonical()
	for _, m := range c.Counters {
		switch m.Name {
		case "steady":
			if m.Value != 7 {
				t.Fatalf("steady counter clobbered: %v", m.Value)
			}
		case "wall_ns":
			if m.Value != 0 {
				t.Fatalf("time counter not zeroed: %v", m.Value)
			}
			if !m.TimeBase {
				t.Fatal("time counter lost its TimeBase flag")
			}
		}
	}
	for _, h := range c.Histograms {
		switch h.Name {
		case "ns_hist":
			if h.Count != 0 || h.Sum != 0 {
				t.Fatalf("time histogram not zeroed: %+v", h)
			}
		case "pure":
			if h.Count != 1 {
				t.Fatalf("pure histogram clobbered: %+v", h)
			}
		}
	}
}

func TestTracerWrapAround(t *testing.T) {
	tel := New(Options{SampleEvery: 1, TraceCap: 8})
	tr := tel.Tracer()
	const n = 100
	for i := 0; i < n; i++ {
		tel.Event(EvDispatch, uint64(i), uint32(i), 0x1000, 0)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d (must count wrapped-out events)", tr.Len(), n)
	}
	if got := tr.CountByKind()["dispatch"]; got != n {
		t.Fatalf("CountByKind[dispatch] = %d, want %d", got, n)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained window = %d events, want 8", len(evs))
	}
	// Oldest-first, ending at the last appended sequence number.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events out of order: %v", evs)
		}
	}
	if evs[len(evs)-1].Seq != n-1 {
		t.Fatalf("last seq = %d, want %d", evs[len(evs)-1].Seq, n-1)
	}
	// The digest covers all n events: a tracer fed only the retained
	// window must disagree.
	short := newTracer(8)
	for _, e := range evs {
		short.Append(Event{Insts: e.Insts, Kind: e.Kind, PC: e.PC, Page: e.Page, Arg: e.Arg})
	}
	if short.Digest() == tr.Digest() {
		t.Fatal("digest ignored wrapped-out events")
	}
}

func TestTracerExportFormats(t *testing.T) {
	tel := New(Options{SampleEvery: 1, TraceCap: 16})
	tel.Event(EvTranslate, 10, 0x1000, 0x1000, 42)
	tel.Event(EvDispatch, 20, 0x1010, 0x1000, 64)
	tel.Event(EvException, 30, 0x1020, 0x1000, 0)

	var jl bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	for _, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		for _, k := range []string{"seq", "insts", "kind", "pc", "page"} {
			if _, ok := obj[k]; !ok {
				t.Fatalf("JSONL line missing %q: %s", k, ln)
			}
		}
	}

	var ct bytes.Buffer
	if err := tel.Tracer().WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(ct.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc) != 3 {
		t.Fatalf("chrome trace events = %d, want 3", len(doc))
	}
	if ph := doc[0]["ph"]; ph != "X" {
		t.Fatalf("translate event phase = %v, want X (duration)", ph)
	}
}

func TestSnapshotSortedAndPrometheus(t *testing.T) {
	tel := New(DefaultOptions())
	tel.Counter("zz").Inc()
	tel.Counter("aa").Add(2)
	tel.Histogram("hh", []float64{1}).Observe(0.5)
	tel.NotePage(0x4000)
	tel.NotePage(0x4000)
	tel.NotePage(0x8000)

	s := tel.Snapshot()
	if s.Counters[0].Name != "aa" || s.Counters[1].Name != "zz" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if len(s.HotPages) != 2 || s.HotPages[0].Addr != 0x4000 || s.HotPages[0].Count != 2 {
		t.Fatalf("hot pages wrong: %+v", s.HotPages)
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aa counter",
		"aa 2",
		"# TYPE hh histogram",
		`hh_bucket{le="+Inf"} 1`,
		"hh_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotWriteFiles(t *testing.T) {
	tel := New(DefaultOptions())
	tel.Counter("aa").Add(3)
	dir := filepath.Join(t.TempDir(), "profile")
	if err := tel.Snapshot().WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	j, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(j, &s); err != nil {
		t.Fatalf("telemetry.json does not round-trip: %v", err)
	}
	p, err := os.ReadFile(filepath.Join(dir, "telemetry.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(p), "aa 3") {
		t.Fatalf("telemetry.prom missing counter:\n%s", p)
	}
}

func TestRenderTopShape(t *testing.T) {
	tel := New(DefaultOptions())
	tel.Counter(MBaseInsts).Add(1000)
	tel.Counter(MVLIWs).Add(250)
	tel.NoteGroup(0x1000)
	s := tel.Snapshot()
	out := RenderTop(s, 0, TopOptions{Rows: 5})
	if !strings.HasPrefix(out, "daisy-top\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if strings.Contains(out, "wall") {
		t.Fatalf("wall line must be omitted when wall<=0:\n%s", out)
	}
	if !strings.Contains(out, "ilp=4.00") {
		t.Fatalf("ILP not derived from counters:\n%s", out)
	}
	withWall := RenderTop(s, 1500*time.Millisecond, TopOptions{})
	if !strings.Contains(withWall, "wall 1.500s") {
		t.Fatalf("wall line missing:\n%s", withWall)
	}
}

// TestConcurrentAccess exercises the documented cross-goroutine contract:
// probes on one goroutine, snapshots/exports on another, under -race.
func TestConcurrentAccess(t *testing.T) {
	tel := New(Options{SampleEvery: 1, TraceCap: 64})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tel.Counter(MBaseInsts).Inc()
			tel.Histogram(HILPPerGroup, BoundsILP).Observe(float64(i % 7))
			tel.Event(EvDispatch, uint64(i), uint32(i), 0, 0)
			tel.NotePage(uint32(i) & 0xf000)
		}
	}()
	for i := 0; i < 50; i++ {
		s := tel.Snapshot()
		var buf bytes.Buffer
		if err := s.WritePrometheus(&buf); err != nil {
			t.Error(err)
		}
		_ = RenderTop(s, time.Millisecond, TopOptions{})
		_ = tel.Tracer().Events()
	}
	close(stop)
	wg.Wait()
}

// TestPeriodicStopWaits: stop returns only after the writer goroutine has
// exited, so the caller may read (or print after) the stream at once;
// under -race a frame written after stop would be reported.
func TestPeriodicStopWaits(t *testing.T) {
	var b strings.Builder
	drawn := make(chan struct{}, 1)
	stop := Periodic(&b, time.Millisecond, func(elapsed time.Duration) string {
		select {
		case drawn <- struct{}{}:
		default:
		}
		return "frame\n"
	})
	<-drawn
	stop()
	if !strings.HasPrefix(b.String(), "frame\n") {
		t.Fatalf("no frame written: %q", b.String())
	}
}
