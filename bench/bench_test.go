package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs a workload on a shrunken job list for the minimum
// number of passes, with short probes.
func tinyConfig(t *testing.T, trace bool) config {
	return config{
		seed:      1,
		budget:    time.Millisecond,
		trace:     trace,
		workdir:   t.TempDir(),
		shrink:    16,
		setupN:    1,
		probeTime: time.Millisecond,
		stderr:    io.Discard,
	}
}

// metricValue finds a metric by name in a result.
func metricValue(t *testing.T, r result, name string) float64 {
	t.Helper()
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("%s: no metric %s", r.workload, name)
	return 0
}

// TestEveryWorkloadPrintsItsMetrics runs every workload timed and traced
// at a tiny budget: no job may fail, and the printed lines must carry
// every metric of BENCHMARK.json with its unit.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, mode := range []struct {
			trace bool
			want  []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, err := runWorkload(w, tinyConfig(t, mode.trace))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, mode.trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d jobs failed", w.name, mode.trace, res.failed, res.attempted)
			}
			var out bytes.Buffer
			printResult(&out, res)
			for _, m := range mode.want {
				prefix := w.name + " " + m.Name + " "
				found := false
				for _, line := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(line, prefix) && strings.HasSuffix(line, " "+m.Unit) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s (traced %v): no line %q...%q in\n%s", w.name, mode.trace, prefix, m.Unit, out.String())
				}
			}
			if got := summary([]result{res}).Metrics; len(got) != len(mode.want) {
				t.Errorf("%s (traced %v): JSON result has %d metrics, BENCHMARK.json lists %d", w.name, mode.trace, len(got), len(mode.want))
			}
		}
	}
}

// TestSeedDeterminesJobs checks that a seed fixes the job list and the
// simulated schedule, and that another seed draws other inputs.
func TestSeedDeterminesJobs(t *testing.T) {
	w, err := workloadByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	list := func(seed int64) ([]*job, float64) {
		cfg := tinyConfig(t, false)
		cfg.seed = seed
		st, _, _, err := setup(w, cfg.workdir)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := prepare(w.jobs, st.progs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return jobs, metricValue(t, timed(jobs, w.opts(nil), cfg, func() {}), "sim_cycles_per_inst")
	}
	same := func(a, b []*job) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].prog.name != b[i].prog.name || !bytes.Equal(a[i].input, b[i].input) {
				return false
			}
		}
		return true
	}
	a, cyclesA := list(1)
	b, cyclesB := list(1)
	c, _ := list(2)
	if !same(a, b) {
		t.Error("seed 1 drew two different job lists")
	}
	if cyclesA != cyclesB {
		t.Errorf("seed 1: sim_cycles_per_inst %v then %v", cyclesA, cyclesB)
	}
	if same(a, c) {
		t.Error("seeds 1 and 2 drew the same job list")
	}
}

// TestWrongOutputCountsAsFailure plants a wrong expected output: the run
// must finish, counting the job in fail_rate.
func TestWrongOutputCountsAsFailure(t *testing.T) {
	w, err := workloadByName("cold")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t, false)
	st, _, _, err := setup(w, cfg.workdir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := prepare(w.jobs, st.progs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs[0].want = append([]byte("planted "), jobs[0].want...)
	res := timed(jobs, w.opts(nil), cfg, func() {})
	// A 1ms budget runs the minimum number of passes; the planted job fails
	// in each of them and no other job fails.
	if res.failed != minTimedPasses || res.attempted != minTimedPasses*len(jobs) {
		t.Errorf("failed %d of %d, want the planted job once in each of %d passes over %d jobs",
			res.failed, res.attempted, minTimedPasses, len(jobs))
	}
	if got, want := metricValue(t, res, "fail_rate"), float64(res.failed)/float64(res.attempted); got != want {
		t.Errorf("fail_rate %v, want %v", got, want)
	}
	if summary([]result{res}).Correct {
		t.Error("a run with a failed job reports correct")
	}
}

// TestCompareFlagsRegressions feeds -compare two result files that differ
// by more than a bound, two that agree, and two where one lacks a metric.
func TestCompareFlagsRegressions(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// write stores two runs of steady with every end-to-end metric at 1,
	// except ns_per_inst at ns, and without the metric named drop.
	write := func(name string, ns float64, drop string) string {
		metrics := map[string]jsonMetric{}
		for _, m := range spec.EndToEnd {
			if m.Name != drop {
				metrics[m.Name] = jsonMetric{1, m.Unit}
			}
		}
		metrics["ns_per_inst"] = jsonMetric{ns, "ns"}
		l, err := json.Marshal(outLine{Workload: "steady", Seed: 1, Attempted: 10, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, bytes.Repeat(append(l, '\n'), 2), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, "")
	for _, c := range []struct {
		name, b, want string
		code          int
	}{
		{"50% slower", write("b.json", 150, ""), "WORSE", 1},
		{"1% slower", write("c.json", 101, ""), "ok", 0},
		{"setup_s dropped", write("d.json", 100, "setup_s"), "missing from", 1},
	} {
		var out bytes.Buffer
		if code := run([]string{"-compare", a, c.b}, &out, io.Discard); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}
