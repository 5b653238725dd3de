package main

// The layered host-cost model: one benchmark per layer, run with
//
//	go test -run '^$' -bench Layer .
//
// from bench/. Each runs the same round as the traced run's probe for
// that layer (probes.go), b.N times, and reports the round's measured
// nanoseconds per unit of work (word, base instruction, group, page).
// Building the inputs, and the untimed part of each round, stay outside
// the reported metric.

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"daisy/internal/mem"
)

// benchRound runs r b.N times and reports its nanoseconds per unit.
func benchRound(b *testing.B, r round, unit string) {
	var el time.Duration
	var units uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, u, err := r()
		if err != nil {
			b.Fatal(err)
		}
		el, units = el+t, units+u
	}
	b.ReportMetric(float64(el)/float64(units), "ns/"+unit)
}

// layerPrograms assembles every program.
func layerPrograms(b *testing.B) map[string]*program {
	b.Helper()
	st, _, _, err := setup(workloads[0], b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	return st.progs
}

func layerInputsFor(b *testing.B) *layerInputs {
	b.Helper()
	in, err := newLayerInputs(layerPrograms(b))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkLayerDecode(b *testing.B) { benchRound(b, layerInputsFor(b).decode, "word") }

func BenchmarkLayerTranslatePage(b *testing.B) {
	in := layerInputsFor(b)
	benchRound(b, in.translate, "inst")
	b.ReportMetric(ratio(in.stats.WorkUnits, in.stats.BaseInsts), "work/inst")
}

func BenchmarkLayerEncodeGroup(b *testing.B) { benchRound(b, layerInputsFor(b).encode, "group") }

func BenchmarkLayerDecodeGroup(b *testing.B) { benchRound(b, layerInputsFor(b).decodeGroups, "group") }

func BenchmarkLayerCloneGroup(b *testing.B) { benchRound(b, layerInputsFor(b).clone, "group") }

// txcacheFor builds the txcache probe's stores in a temporary directory.
func txcacheFor(b *testing.B) *txcacheProbe {
	b.Helper()
	tx, err := newTxcacheProbe(layerInputsFor(b).trs, filepath.Join(b.TempDir(), "txcache"))
	if err != nil {
		b.Fatal(err)
	}
	return tx
}

func BenchmarkLayerTxcacheSave(b *testing.B) { benchRound(b, txcacheFor(b).save, "page") }

func BenchmarkLayerTxcacheLoadDisk(b *testing.B) { benchRound(b, txcacheFor(b).loadDisk, "page") }

func BenchmarkLayerTxcacheLoadHot(b *testing.B) { benchRound(b, txcacheFor(b).loadHot, "page") }

// BenchmarkLayerInterp runs jobs of 50k instructions, one per program, on
// the reference interpreter.
func BenchmarkLayerInterp(b *testing.B) {
	progs := layerPrograms(b)
	spec := longJobs
	spec.n, spec.lo, spec.hi = len(spec.progs), 50e3, 50e3
	for _, name := range spec.progs {
		if err := calibrate(progs[name]); err != nil {
			b.Fatal(err)
		}
	}
	jobs, err := makeJobs(spec, progs, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	r, err := interpRound(jobs)
	if err != nil {
		b.Fatal(err)
	}
	benchRound(b, r, "inst")
}

var memSink *mem.Memory

func BenchmarkLayerMemNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		memSink = mem.New(memSize)
	}
}
