package vmm

// Tests for the guest attribution profiler (profile.go): cycle-exact
// attribution at sample=1, run-to-run determinism of the canonical
// profile, the annotated disassembly renderer, and the detached-machine
// guarantee that Profile off means no probe state at all.

import (
	"reflect"
	"strings"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/workload"
)

// profiledWorkload runs one workload to completion with the profiler
// attached and returns the machine and the telemetry instance, synced.
func profiledWorkload(t *testing.T, wlName string, scale, sample int, opt Options) (*Machine, *telemetry.Telemetry) {
	t.Helper()
	w, err := workload.ByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	m := New(mm, &interp.Env{In: w.Input(scale)}, opt)
	t.Cleanup(m.Close)
	tel := telemetry.New(telemetry.Options{SampleEvery: sample, Profile: true})
	m.AttachTelemetry(tel)
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatalf("%s: %v", wlName, err)
	}
	m.SyncTelemetry()
	return m, tel
}

// TestProfileCycleAttribution pins the acceptance bound: at sample=1 every
// group run is attributed, so the profile's cycle total must sit within
// 2% of the machine's VLIW issue-cycle counter (the design charges exactly
// one cycle per executed VLIW, so the totals should in fact be equal).
func TestProfileCycleAttribution(t *testing.T) {
	for _, wl := range []string{"c_sieve", "gcc"} {
		m, tel := profiledWorkload(t, wl, 1, 1, DefaultOptions())
		prof := tel.Profile()
		if prof == nil {
			t.Fatalf("%s: telemetry built without a profile", wl)
		}
		got, want := prof.TotalCycles(), m.Stats.Cycles
		if want == 0 {
			t.Fatalf("%s: no dispatch cycles executed; workload never left the interpreter", wl)
		}
		diff := float64(got) - float64(want)
		if diff < 0 {
			diff = -diff
		}
		if diff/float64(want) > 0.02 {
			t.Errorf("%s: attributed %d cycles, machine counted %d (>2%% apart)", wl, got, want)
		}
		if got != want {
			t.Logf("%s: attributed %d vs counted %d (within tolerance, but not exact)", wl, got, want)
		}
		// Attributed instructions can not exceed what actually completed.
		var insts uint64
		for _, s := range prof.Samples() {
			insts += s.Insts
			if s.PC == 0 {
				t.Errorf("%s: charge against PC 0", wl)
			}
		}
		if insts > m.Stats.BaseInsts() {
			t.Errorf("%s: attributed %d insts > %d completed", wl, insts, m.Stats.BaseInsts())
		}
	}
}

// TestProfileSamplingAccuracy pins what group-run sampling buys: at the
// tools' default 1-in-64, chained code is sampled like any other, so the
// profile scaled by the period lands within 10% of the machine's cycle
// count, and its instructions per cycle within 10% of the machine's.
func TestProfileSamplingAccuracy(t *testing.T) {
	const sample = 64
	within := func(got, want float64) bool { return got >= 0.9*want && got <= 1.1*want }
	for _, wl := range []string{"c_sieve", "wc", "compress", "lex"} {
		m, tel := profiledWorkload(t, wl, 4, sample, DefaultOptions())
		prof := tel.Profile()
		var insts uint64
		for _, s := range prof.Samples() {
			insts += s.Insts
		}
		cycles := float64(prof.TotalCycles())
		if got, want := cycles*sample, float64(m.Stats.Cycles); !within(got, want) {
			t.Errorf("%s: profile cycles x %d = %.0f, machine counted %.0f (outside 10%%)", wl, sample, got, want)
		}
		if cycles == 0 {
			continue
		}
		got, want := float64(insts)/cycles, float64(m.Stats.Exec.BaseInsts)/float64(m.Stats.Cycles)
		if !within(got, want) {
			t.Errorf("%s: profile insts/cycle %.3f, machine %.3f (outside 10%%)", wl, got, want)
		}
	}
}

// TestProfileDeterminism runs the same workload twice and requires the
// canonical (host-clock-free) profiles to be identical, sample by sample.
func TestProfileDeterminism(t *testing.T) {
	_, tel1 := profiledWorkload(t, "c_sieve", 1, 4, DefaultOptions())
	_, tel2 := profiledWorkload(t, "c_sieve", 1, 4, DefaultOptions())
	s1 := tel1.Profile().Canonical().Samples()
	s2 := tel2.Profile().Canonical().Samples()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("two identical runs produced different profiles:\nrun1 %d PCs\nrun2 %d PCs", len(s1), len(s2))
	}
	if len(s1) == 0 {
		t.Fatal("empty profile")
	}
	for _, s := range s1 {
		if s.WallNs != 0 {
			t.Fatalf("Canonical left WallNs=%d at pc %#x", s.WallNs, s.PC)
		}
	}
}

// TestProfileSampledSubset checks that a sparser sampling period
// attributes at most what sample=1 does, and that the per-page rollup is
// consistent with the flat samples.
func TestProfileSampledSubset(t *testing.T) {
	mExact, telExact := profiledWorkload(t, "c_sieve", 1, 1, DefaultOptions())
	_, telSparse := profiledWorkload(t, "c_sieve", 1, 64, DefaultOptions())
	exact, sparse := telExact.Profile(), telSparse.Profile()
	if sparse.TotalCycles() > exact.TotalCycles() {
		t.Errorf("sample=64 attributed %d cycles > sample=1's %d",
			sparse.TotalCycles(), exact.TotalCycles())
	}
	var pageCycles uint64
	for _, ps := range exact.Pages() {
		pageCycles += ps.Cycles
		if ps.Base&(mExact.Trans.Opt.PageSize-1) != 0 {
			t.Errorf("page base %#x not page-aligned", ps.Base)
		}
	}
	if pageCycles != exact.TotalCycles() {
		t.Errorf("page rollup %d cycles != flat total %d", pageCycles, exact.TotalCycles())
	}
}

// TestAnnotatedDisassembly pins the renderer: a hot page renders one line
// per charged base PC with its disassembly and the VLIW parcels scheduled
// from it; an untranslated page reports so instead of crashing.
func TestAnnotatedDisassembly(t *testing.T) {
	m, tel := profiledWorkload(t, "c_sieve", 1, 1, DefaultOptions())
	prof := tel.Profile()
	pages := prof.Pages()
	if len(pages) == 0 {
		t.Fatal("no pages in profile")
	}
	out := m.AnnotatedDisassembly(prof, pages[0].Base)
	if !strings.Contains(out, "page 0x") {
		t.Fatalf("missing page header in:\n%s", out)
	}
	// Every rendered line pairs a base instruction with parcels: the
	// separator must appear, and at least one parcel tagged with its VLIW.
	if !strings.Contains(out, "| V") {
		t.Fatalf("no side-by-side parcel annotation in:\n%s", out)
	}
	// A PC the profile charged must show its share.
	if !strings.Contains(out, "%") {
		t.Fatalf("no cycle shares in:\n%s", out)
	}
	if got := m.AnnotatedDisassembly(prof, 0xdead000); !strings.Contains(got, "not translated") {
		t.Fatalf("untranslated page did not report: %q", got)
	}
}

// TestProfileDetached pins the zero-cost contract: without Options.Profile
// the telemetry instance carries no profile and its observer no buffers.
func TestProfileDetached(t *testing.T) {
	tel := telemetry.New(telemetry.Options{SampleEvery: 8})
	if tel.Profile() != nil {
		t.Fatal("Profile() non-nil without Options.Profile")
	}
	m := New(mem.New(1<<16), &interp.Env{}, DefaultOptions())
	m.AttachTelemetry(tel)
	o := m.telObs()
	if o == nil {
		t.Fatal("attached telemetry is not in the observer slot")
	}
	if o.prof != nil || o.profBuf != nil || o.profIdx != nil {
		t.Fatal("observer allocated profiler state without Options.Profile")
	}
}
