package experiments

// The translation-pipeline evaluation (ISSUE 4): end-to-end host
// time-to-completion — translation stalls included — of the same workload
// under the four pipeline modes, plus the warm-cache payoff the analytic
// reuse model (§5.1, Table 5.8) predicts. These numbers are host
// wall-clock measurements, so the registry marks the table Wallclock and
// no golden pins it.

import (
	"fmt"
	"runtime"
	"time"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/stats"
	"daisy/internal/txcache"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// PipelineMode names one translation-pipeline configuration.
type PipelineMode string

const (
	ModeSync      PipelineMode = "sync"       // paper baseline: translate on first touch, stalled
	ModeAsync     PipelineMode = "async"      // worker pool + hotness tiering, cold cache
	ModeSyncWarm  PipelineMode = "sync-warm"  // synchronous, persistent cache pre-populated
	ModeAsyncWarm PipelineMode = "async-warm" // pipeline + warm cache: the ISSUE 4 headline
)

// PipelineModes lists every mode in presentation order.
func PipelineModes() []PipelineMode {
	return []PipelineMode{ModeSync, ModeAsync, ModeSyncWarm, ModeAsyncWarm}
}

// PipelineOptions returns machine options for one mode. The store is used
// only by the warm modes (pass nil otherwise).
func PipelineOptions(mode PipelineMode, store *txcache.Store) (vmm.Options, error) {
	opt := vmm.DefaultOptions()
	switch mode {
	case ModeSync:
	case ModeAsync:
		opt.AsyncTranslate = true
	case ModeSyncWarm:
		opt.Cache = store
	case ModeAsyncWarm:
		opt.AsyncTranslate = true
		opt.Cache = store
	default:
		return opt, fmt.Errorf("experiments: unknown pipeline mode %q", mode)
	}
	return opt, nil
}

// PipelineM is one timed pipeline run.
type PipelineM struct {
	Workload string
	Mode     PipelineMode
	Wall     time.Duration
	Insts    uint64

	TransNanos     uint64 // host ns inside the translator (either thread)
	CacheHits      uint64
	CacheStores    uint64
	AsyncPublishes uint64
	StaleDropped   uint64
	OutputFNV      uint64 // output digest, for cross-mode validation

	// WallsMS retains every rep's wall time in milliseconds, capture
	// order, when the measurement came from MeasurePipelineSet — the raw
	// distribution behind the reported minimum. Nil for a single run.
	WallsMS []float64
}

// MeasurePipeline times one workload end-to-end in one mode. The warm
// modes consult store; priming it is the caller's job (PrimeCache).
func MeasurePipeline(name string, scale int, mode PipelineMode, store *txcache.Store) (*PipelineM, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	in := w.Input(scale)
	opt, err := PipelineOptions(mode, store)
	if err != nil {
		return nil, err
	}
	mm := mem.New(MemSize)
	if err := prog.Load(mm); err != nil {
		return nil, err
	}
	env := &interp.Env{In: in}
	ma := vmm.New(mm, env, opt)
	defer ma.Close()
	// Collect the previous run's garbage outside the timed region: a run
	// is a few milliseconds, so inheriting another mode's GC debt (write
	// barriers on, assists) would skew exactly the cross-mode ratios this
	// measurement exists for.
	runtime.GC()
	start := time.Now()
	if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
		return nil, fmt.Errorf("experiments: pipeline %s/%s: %w", name, mode, err)
	}
	wall := time.Since(start)
	fnv := OutputFNV(env.Out)
	return &PipelineM{
		Workload:       name,
		Mode:           mode,
		Wall:           wall,
		Insts:          ma.Stats.BaseInsts(),
		TransNanos:     ma.Trans.Stats.Nanos,
		CacheHits:      ma.Stats.CacheHits,
		CacheStores:    ma.Stats.CacheStores,
		AsyncPublishes: ma.Stats.AsyncPublishes,
		StaleDropped:   ma.Stats.StaleTranslationsDropped,
		OutputFNV:      fnv,
	}, nil
}

// PrimeCache populates store with the workload's translations (one
// untimed synchronous run with write-through enabled).
func PrimeCache(name string, scale int, store *txcache.Store) error {
	_, err := MeasurePipeline(name, scale, ModeSyncWarm, store)
	return err
}

// PipelineReps is how many times PipelineTable re-runs each mode; the
// minimum wall time is reported (the standard way to strip scheduler and
// frequency-scaling noise from millisecond-scale measurements). Sixteen
// interleaved reps per mode is what it takes for the minima to stabilize
// on a busy shared host, where single runs of the same mode vary by 2-3x.
const PipelineReps = 16

// MeasurePipelineSet measures every mode reps times in a round-robin —
// mode A, B, C, D, then A again — keeping each mode's minimum wall time.
// Interleaving matters: host frequency scaling drifts over milliseconds,
// and measuring one mode in a block would fold that drift into the
// cross-mode ratios the pipeline comparison exists to report.
func MeasurePipelineSet(name string, scale int, modes []PipelineMode, store *txcache.Store, reps int) (map[PipelineMode]*PipelineM, error) {
	best := make(map[PipelineMode]*PipelineM, len(modes))
	walls := make(map[PipelineMode][]float64, len(modes))
	for i := 0; i < reps; i++ {
		for _, mode := range modes {
			m, err := MeasurePipeline(name, scale, mode, store)
			if err != nil {
				return nil, err
			}
			walls[mode] = append(walls[mode], float64(m.Wall.Microseconds())/1000)
			if b := best[mode]; b == nil || m.Wall < b.Wall {
				best[mode] = m
			}
		}
	}
	for mode, m := range best {
		m.WallsMS = walls[mode]
	}
	return best, nil
}

// PipelineTable measures every workload under all four modes and reports
// end-to-end times plus the async+warm reduction against synchronous cold
// translation (the ISSUE 4 acceptance number). Every mode's output digest
// is checked against the baseline's: a divergence is an error, not a row.
func (r *Runner) PipelineTable() (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Translation pipeline: end-to-end time-to-completion (scale %d, host clock)", r.Scale),
		"Program", "sync ms", "async ms", "sync-warm ms", "async-warm ms", "warm hits", "reduction %")
	var reductions []float64
	for _, name := range Names() {
		store := txcache.OpenMemory()
		if err := PrimeCache(name, r.Scale, store); err != nil {
			return nil, err
		}
		ms, err := MeasurePipelineSet(name, r.Scale, PipelineModes(), store, r.PipelineReps)
		if err != nil {
			return nil, err
		}
		base := ms[ModeSync]
		for _, mode := range PipelineModes() {
			r.RecordSamples(fmt.Sprintf("pipeline/%s/%s", name, mode), "ms", ms[mode].WallsMS)
		}
		for _, mode := range PipelineModes()[1:] {
			if ms[mode].OutputFNV != base.OutputFNV {
				return nil, fmt.Errorf("experiments: pipeline %s/%s output diverged from sync", name, mode)
			}
		}
		red := 100 * (1 - float64(ms[ModeAsyncWarm].Wall)/float64(base.Wall))
		reductions = append(reductions, red)
		t.Row(name,
			float64(base.Wall.Microseconds())/1000,
			float64(ms[ModeAsync].Wall.Microseconds())/1000,
			float64(ms[ModeSyncWarm].Wall.Microseconds())/1000,
			float64(ms[ModeAsyncWarm].Wall.Microseconds())/1000,
			ms[ModeAsyncWarm].CacheHits,
			red)
	}
	t.Row("(mean)", "", "", "", "", "", stats.Mean(reductions))
	return t, nil
}
