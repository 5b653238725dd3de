package golden

// Golden-file tests for the guest attribution profiler: the flat report,
// the annotated disassembly, and the pprof payload (stored uncompressed —
// the gzip layer is Go-version-dependent in principle, the proto payload
// is ours alone) for a c_sieve run attributed at sample=1.

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// captureProfile runs c_sieve with the profiler on (every dispatch
// attributed) and returns the machine plus the canonical profile.
func captureProfile(t *testing.T) (*vmm.Machine, *telemetry.Profile) {
	t.Helper()
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		t.Fatal(err)
	}
	ma := vmm.New(m, &interp.Env{In: w.Input(1)}, vmm.DefaultOptions())
	t.Cleanup(ma.Close)
	tel := telemetry.New(telemetry.Options{SampleEvery: 1, Profile: true})
	ma.AttachTelemetry(tel)
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatal(err)
	}
	ma.SyncTelemetry()
	return ma, tel.Profile().Canonical()
}

// TestProfileGoldens locks the profiler's three views down byte-for-byte.
func TestProfileGoldens(t *testing.T) {
	ma, prof := captureProfile(t)

	var gzipped bytes.Buffer
	if err := prof.WritePprof(&gzipped); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(gzipped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	pages := prof.Pages()
	if len(pages) == 0 {
		t.Fatal("profile attributed nothing")
	}
	got := map[string][]byte{
		"c_sieve.profile.pb":    proto,
		"c_sieve.profile.top":   []byte(prof.RenderTop(10)),
		"c_sieve.profile.annot": []byte(ma.AnnotatedDisassembly(prof, pages[0].Base)),
	}
	for name, data := range got {
		checkGolden(t, name, data)
	}

	// The exported payload must also pass the structural validator — the
	// same gate make profile-smoke runs.
	sum, err := telemetry.ValidatePprof(&gzipped)
	if err != nil {
		t.Fatalf("golden pprof payload invalid: %v", err)
	}
	if sum.Samples == 0 {
		t.Fatal("golden pprof payload has no samples")
	}
}

// TestProfileGoldenDeterminism re-captures the profile and insists the
// canonical pprof payload is byte-identical — the profiler's equivalent of
// TestGoldenDeterminism.
func TestProfileGoldenDeterminism(t *testing.T) {
	_, p1 := captureProfile(t)
	_, p2 := captureProfile(t)
	var b1, b2 bytes.Buffer
	if err := p1.WritePprof(&b1); err != nil {
		t.Fatal(err)
	}
	if err := p2.WritePprof(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical profiled runs exported different pprof payloads")
	}
}
