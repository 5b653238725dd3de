package perfwall

import (
	"math"
	"math/rand"
	"testing"
)

// snap builds a one-benchmark snapshot with retained samples; the summary
// metric is the min (what daisy-bench writes).
func snap(host string, bench, metric string, samples ...float64) *Snapshot {
	min := samples[0]
	for _, v := range samples {
		min = math.Min(min, v)
	}
	var man *Manifest
	if host != "" {
		man = &Manifest{Schema: SchemaVersion, Tool: "test", Date: "2026-08-08T00:00:00Z",
			GoVersion: "go1.x", GOOS: "linux", GOARCH: "amd64", CPU: host}
	}
	return &Snapshot{
		Manifest: man,
		Results: []Result{{
			Name: bench, Iters: int64(len(samples)),
			Metrics: map[string]float64{metric: min},
			Samples: map[string][]float64{metric: samples},
		}},
	}
}

// jitter returns n samples around center with +-spread relative noise,
// deterministic per seed.
func jitter(seed int64, center, spread float64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 + spread*(2*rng.Float64()-1))
	}
	return out
}

// TestRegressionFlagged is the acceptance case: a synthetic 10% ns/op
// regression with realistic 1% run-to-run noise must be flagged as a
// statistically significant regression.
func TestRegressionFlagged(t *testing.T) {
	old := snap("cpuA", "BenchmarkExecutorThroughput", "ns/op", jitter(1, 1000, 0.01, 8)...)
	new := snap("cpuA", "BenchmarkExecutorThroughput", "ns/op", jitter(2, 1100, 0.01, 8)...)
	deltas := CompareSnapshots(old, new, CompareOptions{})
	if len(deltas) != 1 {
		t.Fatalf("want 1 delta, got %v", deltas)
	}
	d := deltas[0]
	if !d.Significant || !d.Regression {
		t.Fatalf("10%% regression not flagged: %+v", d)
	}
	if d.P >= 0.05 {
		t.Fatalf("p-value too high for a clean 10%% shift: %v", d.P)
	}
	// And the gate fails on it.
	_, failed := Check(old, new, []Key{{"BenchmarkExecutorThroughput", "ns/op"}}, nil, CompareOptions{})
	if !failed {
		t.Fatal("Check must fail on an unacknowledged regression")
	}
	// Unless it is acknowledged.
	_, failed = Check(old, new, []Key{{"BenchmarkExecutorThroughput", "ns/op"}},
		[]string{"BenchmarkExecutorThroughput/ns/op"}, CompareOptions{})
	if failed {
		t.Fatal("an acked regression must pass the gate")
	}
}

// TestWithinNoiseNotFlagged: same center, 2% jitter — no regression.
func TestWithinNoiseNotFlagged(t *testing.T) {
	old := snap("cpuA", "BenchmarkExecutorThroughput", "ns/op", jitter(3, 1000, 0.02, 8)...)
	new := snap("cpuA", "BenchmarkExecutorThroughput", "ns/op", jitter(4, 1000, 0.02, 8)...)
	d := CompareSnapshots(old, new, CompareOptions{})[0]
	if d.Regression {
		t.Fatalf("within-noise delta flagged as regression: %+v", d)
	}
	if _, failed := Check(old, new, nil, nil, CompareOptions{}); failed {
		t.Fatal("gate failed on noise")
	}
}

// TestImprovementNeverFails: a large improvement is significant but not
// a regression.
func TestImprovementNeverFails(t *testing.T) {
	old := snap("cpuA", "B", "ns/op", jitter(5, 1000, 0.01, 8)...)
	new := snap("cpuA", "B", "ns/op", jitter(6, 700, 0.01, 8)...)
	d := CompareSnapshots(old, new, CompareOptions{})[0]
	if !d.Significant || d.Regression {
		t.Fatalf("improvement misclassified: %+v", d)
	}
}

// TestCrossHostTimeMetricsNeverGate: wall-clock metrics between
// different hosts (or manifest-less snapshots) are informational.
func TestCrossHostTimeMetricsNeverGate(t *testing.T) {
	cases := []struct{ hostA, hostB string }{
		{"cpuA", "cpuB"}, // different hosts
		{"", "cpuB"},     // old snapshot has no manifest
		{"", ""},         // neither has one
	}
	for _, c := range cases {
		old := snap(c.hostA, "B", "ns/op", 1000)
		new := snap(c.hostB, "B", "ns/op", 3000) // 3x slower "machine"
		d := CompareSnapshots(old, new, CompareOptions{})[0]
		if d.Regression {
			t.Fatalf("cross-host (%q vs %q) time metric gated: %+v", c.hostA, c.hostB, d)
		}
		if _, failed := Check(old, new, []Key{{"B", "ns/op"}}, nil, CompareOptions{}); failed {
			t.Fatalf("cross-host gate failure (%q vs %q)", c.hostA, c.hostB)
		}
	}
}

// TestDeterministicMetricsGateEverywhere: a deterministic metric (model
// cycle count) regresses even across hosts, with single samples.
func TestDeterministicMetricsGateEverywhere(t *testing.T) {
	old := snap("", "BenchmarkTier2", "t2-cycles/inst", 0.240)
	new := snap("cpuB", "BenchmarkTier2", "t2-cycles/inst", 0.280) // +16%
	d := CompareSnapshots(old, new, CompareOptions{})[0]
	if !d.Regression {
		t.Fatalf("deterministic regression not flagged cross-host: %+v", d)
	}
	// Small drift below the threshold passes (782 -> 788 allocs is the
	// real history's drift).
	old = snap("", "BenchmarkExecutorThroughput", "allocs/op", 782)
	new = snap("cpuB", "BenchmarkExecutorThroughput", "allocs/op", 788)
	d = CompareSnapshots(old, new, CompareOptions{})[0]
	if d.Regression {
		t.Fatalf("sub-threshold deterministic drift flagged: %+v", d)
	}
}

// TestHigherIsBetterDirection: an ILP drop is the regression direction.
func TestHigherIsBetterDirection(t *testing.T) {
	old := snap("cpuA", "B", "mean-ILP-24issue", 3.57)
	new := snap("cpuA", "B", "mean-ILP-24issue", 3.20) // -10%
	d := CompareSnapshots(old, new, CompareOptions{})[0]
	if !d.Regression {
		t.Fatalf("ILP drop not a regression: %+v", d)
	}
	new = snap("cpuA", "B", "mean-ILP-24issue", 3.90) // rise = improvement
	d = CompareSnapshots(old, new, CompareOptions{})[0]
	if d.Regression {
		t.Fatalf("ILP rise misclassified: %+v", d)
	}
}

func TestMannWhitney(t *testing.T) {
	// Clearly separated samples: tiny p.
	p := MannWhitneyP([]float64{1, 2, 3, 4, 5}, []float64{10, 11, 12, 13, 14})
	if p > 0.02 {
		t.Fatalf("separated samples p=%v", p)
	}
	// Identical samples: p = 1.
	if p := MannWhitneyP([]float64{5, 5, 5, 5}, []float64{5, 5, 5, 5}); p < 0.99 {
		t.Fatalf("identical samples p=%v", p)
	}
	// Single samples: no conclusion.
	if p := MannWhitneyP([]float64{1}, []float64{100}); p != 1 {
		t.Fatalf("n=1 must return 1, got %v", p)
	}
	// Interleaved: large p.
	if p := MannWhitneyP([]float64{1, 3, 5, 7}, []float64{2, 4, 6, 8}); p < 0.3 {
		t.Fatalf("interleaved samples p=%v", p)
	}
	// Symmetry.
	a, b := jitter(7, 100, 0.05, 6), jitter(8, 110, 0.05, 6)
	if p1, p2 := MannWhitneyP(a, b), MannWhitneyP(b, a); math.Abs(p1-p2) > 1e-12 {
		t.Fatalf("asymmetric p: %v vs %v", p1, p2)
	}
	// Normal-approximation path (large n) still detects separation.
	big1, big2 := jitter(9, 100, 0.01, 40), jitter(10, 110, 0.01, 40)
	if p := MannWhitneyP(big1, big2); p > 0.001 {
		t.Fatalf("large-sample separation p=%v", p)
	}
}

func TestKeyAbsenceIsNotFailure(t *testing.T) {
	old := snap("cpuA", "B", "ns/op", 1000)
	new := snap("cpuA", "B", "ns/op", 1001)
	// Default keys reference benchmarks absent from these snapshots.
	res, failed := Check(old, new, nil, nil, CompareOptions{})
	if failed {
		t.Fatal("absent keys must not fail the gate")
	}
	for _, r := range res {
		if r.Delta != nil {
			t.Fatalf("unexpected delta for absent key %s", r.Key)
		}
	}
}
