package vmm

// Tests for the telemetry observer (telemetry.go): attaching it changes
// nothing the machine does, and every `metric`-tagged Stats field reaches
// the registry under its tag with the machine's exact value, no name is
// declared twice, and the untagged fields stay machine-local so the
// exporter goldens keep their shape.

import (
	"reflect"
	"slices"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/txcache"
	"daisy/internal/workload"
)

// TestStatsMetricTags runs one machine with async translation, a warm
// translation cache and tier-2 on, so the cache and tier-2 counters carry
// live values rather than the zeros the c_sieve prom golden pins.
func TestStatsMetricTags(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	store := txcache.OpenMemory()
	runWorkloadVMM(t, w, 1, cacheOptions(store)) // warm the cache

	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	opt := cacheOptions(store)
	opt.AsyncTranslate = true
	opt.Tier2 = true
	m := New(mm, &interp.Env{In: w.Input(2)}, opt)
	defer m.Close()
	tel := telemetry.New(telemetry.DefaultOptions())
	m.AttachTelemetry(tel)
	if err := m.Run(prog.Entry(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	m.SyncTelemetry()

	got := make(map[string]float64)
	for _, c := range tel.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	want := map[string]uint64{
		"daisy_base_insts": m.Exec.Stats.BaseInsts,
		"daisy_vliws":      m.Exec.Stats.VLIWs,
	}
	var untagged []string
	st := reflect.ValueOf(m.Stats)
	for i := 0; i < st.NumField(); i++ {
		f := st.Type().Field(i)
		name := f.Tag.Get("metric")
		if name == "" {
			untagged = append(untagged, f.Name)
			continue
		}
		if _, dup := want[name]; dup {
			t.Errorf("metric %q is declared twice (again on Stats.%s)", name, f.Name)
		}
		want[name] = st.Field(i).Uint()
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != float64(v) {
			t.Errorf("counter %s = %v (registered %v), machine has %d", name, g, ok, v)
		}
	}
	owned := []string{telemetry.MTranslateNs, telemetry.MExecuteNs, telemetry.MGroupRunsSampled}
	for name := range got {
		if _, ok := want[name]; !ok && !slices.Contains(owned, name) {
			t.Errorf("unexpected counter %s in the registry", name)
		}
	}
	wantUntagged := []string{"Exec", "Syscalls", "CrossDirect", "CrossLR", "CrossCTR", "IntraEntry",
		"AliasRecoveries", "AliasRetranslations", "TraceRecInsts", "InjectedFaults", "StallCycles"}
	if !slices.Equal(untagged, wantUntagged) {
		t.Errorf("untagged Stats fields = %v, want %v", untagged, wantUntagged)
	}
	for _, name := range []string{"daisy_pages_built", "daisy_txcache_hits", "daisy_tier2_profile_insts"} {
		if got[name] == 0 {
			t.Errorf("counter %s is 0: the run did not exercise its path", name)
		}
	}
}

// TestTelemetryNonInterference runs c_sieve and wc on the default machine
// and on a tier-2 machine, bare and with telemetry attached at its most
// intrusive (every group run and boundary sampled, the profiler on), and
// requires identical Stats and architected state.
func TestTelemetryNonInterference(t *testing.T) {
	tier2 := DefaultOptions()
	tier2.Tier2 = true
	for _, mode := range []struct {
		name string
		opt  Options
	}{{"default", DefaultOptions()}, {"tier2", tier2}} {
		for _, wl := range []string{"c_sieve", "wc"} {
			w, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			run := func(tel *telemetry.Telemetry) *Machine {
				mm := mem.New(8 << 20)
				if err := prog.Load(mm); err != nil {
					t.Fatal(err)
				}
				m := New(mm, &interp.Env{In: w.Input(1)}, mode.opt)
				defer m.Close()
				if tel != nil {
					m.AttachTelemetry(tel)
				}
				if err := m.Run(prog.Entry(), 200_000_000); err != nil {
					t.Fatalf("%s/%s: %v", mode.name, wl, err)
				}
				m.SyncTelemetry()
				return m
			}
			bare := run(nil)
			tel := telemetry.New(telemetry.Options{SampleEvery: 1, TraceCap: 1 << 10, Profile: true})
			obs := run(tel)
			if tel.Profile().TotalCycles() == 0 {
				t.Errorf("%s/%s: the profiler attributed nothing", mode.name, wl)
			}
			if !reflect.DeepEqual(obs.Stats, bare.Stats) {
				t.Errorf("%s/%s: Stats differ with telemetry attached\nobserved %+v\nbare     %+v", mode.name, wl, obs.Stats, bare.Stats)
			}
			if obs.St != bare.St {
				t.Errorf("%s/%s: architected state differs with telemetry attached", mode.name, wl)
			}
		}
	}
}
