package golden

import (
	"bytes"
	"testing"
	"time"

	"daisy/internal/telemetry"
	"daisy/internal/workload"
)

// exporterTelOpt uses a deliberately tiny ring so the JSONL/Chrome goldens
// stay small: they lock down the retained window plus the formatting.
// Spans are on so the goldens also pin the page-lifecycle begin/end
// records (deterministic on the synchronous machine: live spans only,
// stamped with the virtual clock).
var exporterTelOpt = telemetry.Options{SampleEvery: 8, TraceCap: 256, Spans: true}

// captureExporters runs c_sieve once and renders every exporter from the
// canonical snapshot (host-clock metrics zeroed), so the outputs are
// byte-deterministic.
func captureExporters(t *testing.T) map[string][]byte {
	t.Helper()
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(exporterTelOpt)
	if _, err := CaptureRun(w, 1, tel); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot().Canonical()

	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var jsonl, chrome bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tel.Tracer().WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	top := telemetry.RenderTop(snap, 0, telemetry.TopOptions{Rows: 5})

	return map[string][]byte{
		"c_sieve.prom":         prom.Bytes(),
		"c_sieve.trace.jsonl":  jsonl.Bytes(),
		"c_sieve.trace.chrome": chrome.Bytes(),
		"c_sieve.top":          []byte(top),
	}
}

// TestExporterGoldens locks the Prometheus text, JSONL trace, Chrome
// trace_event file and daisy-top screen for a full c_sieve run to the
// committed golden files (acceptance: exporters verified by golden-file
// tests, not eyeballing).
func TestExporterGoldens(t *testing.T) {
	for name, data := range captureExporters(t) {
		checkGolden(t, name, data)
	}
}

// TestRenderTopWithWall smoke-checks the non-deterministic parts RenderTop
// omits from the golden: a positive wall duration must add the wall line
// and, with live (non-canonical) time counters, the time-split line.
func TestRenderTopWithWall(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(exporterTelOpt)
	if _, err := CaptureRun(w, 1, tel); err != nil {
		t.Fatal(err)
	}
	out := telemetry.RenderTop(tel.Snapshot(), 2*time.Second, telemetry.TopOptions{})
	for _, want := range []string{"wall 2.000s", "time split: translate"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("RenderTop missing %q in:\n%s", want, out)
		}
	}
}
