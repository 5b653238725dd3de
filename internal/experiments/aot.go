package experiments

// The fleet cold-start evaluation (AOT pre-translation + tiered cache).
// The scenario is N identical machines brought up over one shared
// persistent translation cache — a fleet booting one image. The baseline
// is the best the async pipeline alone can do (ISSUE 4's async+warm:
// machine 1 translates and write-through populates the store, machines
// 2..N replay it from disk, hot tier disabled). The AOT configuration
// pre-translates the whole binary in one parallel pass first, then
// brings every machine up warm, with the store's decoded hot tier
// serving repeat loads without touching disk. Both aggregates include
// everything — the baseline's cold first machine, the AOT pass itself —
// so the comparison is honest about where the time goes. Host wall-clock
// measurements: the registry marks the table Wallclock and no golden pins
// it.

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/stats"
	"daisy/internal/txcache"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// FleetMachines is the fleet size of the headline measurement.
const FleetMachines = 8

// FleetReps is how many times MeasureFleet re-runs each configuration,
// keeping the minimum aggregate (same rationale as PipelineReps; a fleet
// rep is ~18 machine runs, so this is the knob that buys the headline
// number its stability on a noisy host).
const FleetReps = 12

// FleetM is one fleet cold-start measurement: both configurations over
// the same workload, with the per-tier byte traffic of the AOT store.
type FleetM struct {
	Workload string
	Machines int

	Baseline       time.Duration // prime run + async+warm fleet, hot tier disabled (ISSUE 4 config)
	Aot            time.Duration // precompile pass + async+warm fleet, hot tier on
	PrecompileWall time.Duration // the pass alone (included in Aot)

	BaselineDiskBytes uint64 // bytes the baseline fleet read from disk
	AotDiskBytes      uint64 // bytes the AOT fleet read from disk
	AotHotBytes       uint64 // bytes the AOT fleet served from the hot tier
	AotHotHits        uint64 // loads the hot tier absorbed
	AotDecodes        uint64 // entry decodes across the whole AOT fleet

	// AotLateDecodes counts decodes after the second machine finished —
	// i.e. after the fleet's entry set has stabilized. Machine 1 may
	// extend precompiled pages with execution-discovered entry points
	// (each write-through rewrite invalidates the hot copy, by design),
	// and machine 2 re-decodes the rewritten entries once; from then on
	// every load must be absorbed by the hot tier, so this must be zero.
	AotLateDecodes uint64

	Stored    int    // pages the precompile pass wrote
	OutputFNV uint64 // every machine in both fleets must produce this

	// Per-rep aggregate wall times in milliseconds, capture order — the
	// raw distributions behind the reported minima.
	BaselineWallsMS []float64
	AotWallsMS      []float64
}

// Reduction returns the AOT fleet's aggregate time-to-completion
// reduction against the baseline fleet, in percent.
func (f *FleetM) Reduction() float64 {
	if f.Baseline == 0 {
		return 0
	}
	return 100 * (1 - float64(f.Aot)/float64(f.Baseline))
}

// fleetRun brings one machine up over the shared store and runs the
// workload to completion, returning the wall time and output digest.
// async selects the ISSUE 4 async+warm configuration; false is the
// synchronous write-through machine PrimeCache used, which is how the
// baseline fleet populates its store from cold.
func fleetRun(w workload.Workload, prog programImage, scale int, store *txcache.Store, async bool) (time.Duration, uint64, error) {
	mm := mem.New(MemSize)
	if err := prog.load(mm); err != nil {
		return 0, 0, err
	}
	env := &interp.Env{In: w.Input(scale)}
	opt := vmm.DefaultOptions()
	opt.AsyncTranslate = async
	opt.Cache = store
	ma := vmm.New(mm, env, opt)
	defer ma.Close()
	runtime.GC()
	start := time.Now()
	if err := ma.Run(prog.entry, 4_000_000_000); err != nil {
		return 0, 0, fmt.Errorf("experiments: fleet %s: %w", w.Name, err)
	}
	wall := time.Since(start)
	return wall, OutputFNV(env.Out), nil
}

// programImage caches the assembled binary so fleet machines don't
// re-assemble per run (assembly time is not part of either configuration).
type programImage struct {
	chunks []chunkImage
	entry  uint32
}

type chunkImage struct {
	addr uint32
	data []byte
}

func (p programImage) load(mm *mem.Memory) error {
	for _, c := range p.chunks {
		if err := mm.LoadImage(c.addr, c.data); err != nil {
			return err
		}
	}
	return nil
}

// MeasureFleet measures both fleet configurations for one workload,
// FleetReps times round-robin, keeping each configuration's minimum
// aggregate. dir is scratch space for the on-disk stores (one fresh
// store per configuration per rep — a cold start must start cold).
func MeasureFleet(name string, scale, machines int, dir string, reps int) (*FleetM, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	img := programImage{entry: prog.Entry()}
	for _, c := range prog.Chunks {
		img.chunks = append(img.chunks, chunkImage{c.Addr, c.Data})
	}
	// Precompile entries: every page the image touches, translated from
	// the program entry where it applies (mirrors daisy.Precompile).
	pageSize := vmm.DefaultOptions().Trans.PageSize
	var entries []uint32
	seen := map[uint32]bool{}
	for _, c := range img.chunks {
		end := c.addr + uint32(len(c.data))
		for base := c.addr &^ (pageSize - 1); base < end; base += pageSize {
			if seen[base] {
				continue
			}
			seen[base] = true
			e := base
			if img.entry >= base && img.entry < base+pageSize {
				e = img.entry
			}
			entries = append(entries, e)
		}
	}

	out := &FleetM{Workload: name, Machines: machines}
	for rep := 0; rep < reps; rep++ {
		// Baseline: ISSUE 4's best configuration, shared across the fleet.
		// The hot tier is disabled so the store behaves exactly as it did
		// before this change (disk read + decode per load).
		baseDir, err := os.MkdirTemp(dir, "fleet-base-")
		if err != nil {
			return nil, err
		}
		baseStore, err := txcache.Open(baseDir)
		if err != nil {
			return nil, err
		}
		baseStore.SetHotMaxBytes(-1)
		// The baseline fleet starts cold too: its store is populated the
		// way ISSUE 4 populated one (a synchronous write-through run), and
		// that prime run is part of the aggregate — the fleet is not done
		// until all N machines have completed from an empty cache.
		primeWall, primeFNV, err := fleetRun(w, img, scale, baseStore, false)
		if err != nil {
			return nil, err
		}
		if out.OutputFNV == 0 {
			out.OutputFNV = primeFNV
		} else if primeFNV != out.OutputFNV {
			return nil, fmt.Errorf("experiments: fleet %s: prime run output diverged", name)
		}
		baseAgg := primeWall
		for i := 0; i < machines; i++ {
			wall, fnv, err := fleetRun(w, img, scale, baseStore, true)
			if err != nil {
				return nil, err
			}
			if fnv != out.OutputFNV {
				return nil, fmt.Errorf("experiments: fleet %s: baseline machine %d output diverged", name, i)
			}
			baseAgg += wall
		}
		baseStats := baseStore.Stats()

		// AOT: pre-translate the whole image in one parallel pass, then
		// bring the fleet up warm with the hot tier on.
		aotDir, err := os.MkdirTemp(dir, "fleet-aot-")
		if err != nil {
			return nil, err
		}
		aotStore, err := txcache.Open(aotDir)
		if err != nil {
			return nil, err
		}
		mm := mem.New(MemSize)
		if err := img.load(mm); err != nil {
			return nil, err
		}
		popt := vmm.DefaultOptions()
		popt.Cache = aotStore
		pma := vmm.New(mm, &interp.Env{}, popt)
		runtime.GC()
		pStart := time.Now()
		pRep, err := pma.Precompile(entries)
		if err != nil {
			return nil, err
		}
		pWall := time.Since(pStart)
		aotAgg := pWall
		var settledDecodes uint64
		for i := 0; i < machines; i++ {
			wall, fnv, err := fleetRun(w, img, scale, aotStore, true)
			if err != nil {
				return nil, err
			}
			if fnv != out.OutputFNV {
				return nil, fmt.Errorf("experiments: fleet %s: AOT machine %d output diverged", name, i)
			}
			aotAgg += wall
			if i == 1 {
				settledDecodes = aotStore.Stats().Decodes
			}
		}
		aotStats := aotStore.Stats()

		out.BaselineWallsMS = append(out.BaselineWallsMS, float64(baseAgg.Microseconds())/1000)
		out.AotWallsMS = append(out.AotWallsMS, float64(aotAgg.Microseconds())/1000)
		if out.Baseline == 0 || baseAgg < out.Baseline {
			out.Baseline = baseAgg
			out.BaselineDiskBytes = baseStats.BytesServedDisk
		}
		if out.Aot == 0 || aotAgg < out.Aot {
			out.Aot = aotAgg
			out.PrecompileWall = pWall
			out.AotDiskBytes = aotStats.BytesServedDisk
			out.AotHotBytes = aotStats.BytesServedHot
			out.AotHotHits = aotStats.HotHits
			out.AotDecodes = aotStats.Decodes
			out.AotLateDecodes = aotStats.Decodes - settledDecodes
			out.Stored = pRep.Stored
		}
		os.RemoveAll(baseDir)
		os.RemoveAll(aotDir)
	}
	return out, nil
}

// AotTable measures the fleet cold start for every workload: aggregate
// time-to-completion of both configurations, the pre-translation pass
// cost, per-tier byte traffic, and the reduction.
func (r *Runner) AotTable() (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Fleet cold start: %d machines, shared cache (scale %d, host clock)", r.FleetMachines, r.Scale),
		"Program", "base ms", "aot ms", "precompile ms", "disk KB", "hot KB", "hot hits", "reduction %")
	dir, err := os.MkdirTemp("", "daisy-aot-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var reductions []float64
	for _, name := range Names() {
		f, err := MeasureFleet(name, r.Scale, r.FleetMachines, dir, r.FleetReps)
		if err != nil {
			return nil, err
		}
		r.RecordSamples("aot/"+name+"/baseline", "ms", f.BaselineWallsMS)
		r.RecordSamples("aot/"+name+"/aot", "ms", f.AotWallsMS)
		reductions = append(reductions, f.Reduction())
		t.Row(name,
			float64(f.Baseline.Microseconds())/1000,
			float64(f.Aot.Microseconds())/1000,
			float64(f.PrecompileWall.Microseconds())/1000,
			float64(f.AotDiskBytes)/1024,
			float64(f.AotHotBytes)/1024,
			f.AotHotHits,
			f.Reduction())
	}
	t.Row("(mean)", "", "", "", "", "", "", stats.Mean(reductions))
	return t, nil
}
