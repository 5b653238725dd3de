// Package experiments regenerates every table and figure of the paper's
// evaluation (Chapter 5 plus the Chapter 6 oracle measurements). The
// registry drives cmd/daisy-paper; EXPERIMENTS.md records its output
// next to the paper's numbers.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"daisy/internal/analytic"
	"daisy/internal/cache"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/oracle"
	"daisy/internal/ppc"
	"daisy/internal/stats"
	"daisy/internal/superscalar"
	"daisy/internal/tradcomp"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// MemSize is the physical memory image used by all experiments.
const MemSize = 8 << 20

// Hier selects a cache hierarchy for a run.
type Hier int

const (
	HierNone Hier = iota // infinite caches
	HierA                // §5's 64K/64K/4M, 88-cycle memory
	HierB                // Table 5.5's 4K/4K/64K/64K/4M, 92-cycle memory
)

// Key identifies one measured configuration.
type Key struct {
	Workload string
	Scale    int
	Config   string
	PageSize uint32
	Hier     Hier
}

// M is one full measurement of a workload under the DAISY machine.
type M struct {
	Key Key

	Insts       uint64 // completed base instructions (incl. interpreted)
	VLIWCycles  uint64
	StallCycles uint64
	InterpInsts uint64
	VLIWs       uint64

	Loads, Stores uint64
	Aliases       uint64

	CrossDirect, CrossLR, CrossCTR uint64

	PagesBuilt uint64
	CodeBytes  uint64

	TransInsts uint64 // base instructions scheduled by the translator
	TransWork  uint64 // scheduler work units (translation-cost proxy)
	TransNanos uint64 // host wall-clock nanoseconds spent translating

	LoadMisses, StoreMisses, FetchMisses uint64
	DMissRate, IMissRate, L2MissRate     float64

	StaticTouched uint64 // distinct base addresses executed
}

// InfILP is the infinite-cache pathlength reduction.
func (m *M) InfILP() float64 {
	return float64(m.Insts) / float64(m.VLIWCycles+m.InterpInsts)
}

// FiniteILP includes cache stalls.
func (m *M) FiniteILP() float64 {
	return float64(m.Insts) / float64(m.VLIWCycles+m.StallCycles+m.InterpInsts)
}

// Runner memoizes measurements across tables. It is safe for concurrent
// use: each key is measured exactly once (singleflight — concurrent
// callers of the same configuration block on the first measurement
// rather than duplicating it), and distinct keys run in parallel.
type Runner struct {
	Scale int

	mu      sync.Mutex
	results map[Key]*measureEntry
	statics map[string]*staticEntry
}

// measureEntry is one singleflight cache slot: the Once gates the
// measurement, after which m/err are immutable.
type measureEntry struct {
	once sync.Once
	m    M
	err  error
}

type staticEntry struct {
	once    sync.Once
	dyn, st uint64
	err     error
}

// NewRunner builds a runner; scale <= 0 selects the default input scale.
func NewRunner(scale int) *Runner {
	if scale <= 0 {
		scale = 2
	}
	return &Runner{Scale: scale,
		results: make(map[Key]*measureEntry),
		statics: make(map[string]*staticEntry)}
}

// Names lists the benchmarks in the paper's table order.
func Names() []string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name)
	}
	return names
}

// Measure runs (or recalls) one configuration. Every call returns a
// fresh copy of the memoized measurement (pointer-distinct, value-
// identical), so callers may annotate or mutate their result without
// corrupting the cache or racing with other callers.
func (r *Runner) Measure(name string, cfg vliw.Config, pageSize uint32, h Hier) (*M, error) {
	key := Key{Workload: name, Scale: r.Scale, Config: cfg.Name, PageSize: pageSize, Hier: h}
	r.mu.Lock()
	e, ok := r.results[key]
	if !ok {
		e = &measureEntry{}
		r.results[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		m, err := r.measure(key, name, cfg, pageSize, h)
		if err != nil {
			e.err = err
			return
		}
		e.m = *m
	})
	if e.err != nil {
		return nil, e.err
	}
	out := e.m
	return &out, nil
}

// measure performs one uncached measurement. All state it touches is
// built locally, so distinct keys can run concurrently.
func (r *Runner) measure(key Key, name string, cfg vliw.Config, pageSize uint32, h Hier) (*M, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	in := w.Input(r.Scale)

	mm := mem.New(MemSize)
	if err := prog.Load(mm); err != nil {
		return nil, err
	}
	opt := vmm.DefaultOptions()
	opt.Trans.Config = cfg
	opt.Trans.PageSize = pageSize
	ma, err := vmm.NewMachine(mm, &interp.Env{In: in}, opt)
	if err != nil {
		return nil, err
	}

	var hier *cache.Hierarchy
	switch h {
	case HierA:
		hier, err = cache.PaperHierarchyA()
	case HierB:
		hier, err = cache.PaperHierarchyB()
	}
	if err != nil {
		return nil, err
	}
	if hier != nil {
		ma.StallFn = func(addr uint32, size int, write, fetch bool) uint64 {
			if fetch {
				return hier.Fetch(addr, size)
			}
			return hier.DataAccess(addr, size, write)
		}
	}

	if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", name, cfg.Name, err)
	}

	m := &M{
		Key:         key,
		Insts:       ma.Stats.BaseInsts(),
		VLIWCycles:  ma.Stats.Cycles,
		StallCycles: ma.Stats.StallCycles,
		InterpInsts: ma.Stats.InterpInsts,
		VLIWs:       ma.Stats.Exec.VLIWs,
		Loads:       ma.Stats.Exec.Loads,
		Stores:      ma.Stats.Exec.Stores,
		Aliases:     ma.Stats.Exec.Aliases,
		CrossDirect: ma.Stats.CrossDirect,
		CrossLR:     ma.Stats.CrossLR,
		CrossCTR:    ma.Stats.CrossCTR,
		PagesBuilt:  ma.Stats.PagesBuilt,
		CodeBytes:   ma.Trans.Stats.CodeBytes,
		TransInsts:  ma.Trans.Stats.BaseInsts,
		TransWork:   ma.Trans.Stats.WorkUnits,
		TransNanos:  ma.Trans.Stats.Nanos,
	}
	if hier != nil {
		m.LoadMisses = hier.LoadMisses
		m.StoreMisses = hier.StoreMisses
		m.FetchMisses = hier.FetchMisses
		m.DMissRate = hier.DLevels[0].MissRate()
		m.IMissRate = hier.ILevels[0].MissRate()
		m.L2MissRate = hier.DLevels[len(hier.DLevels)-1].MissRate()
	}
	return m, nil
}

// Request names one configuration for MeasureAll. A Static request
// warms the StaticTouched cache for the workload instead of running a
// machine measurement.
type Request struct {
	Workload string
	Config   vliw.Config
	PageSize uint32
	Hier     Hier
	Static   bool
}

// MeasureAll feeds every request through Measure (or StaticTouched) on
// a worker pool sized by GOMAXPROCS. Results land in the memo cache, so
// subsequent table/figure generation replays them without re-running;
// the tables come out bit-identical to a serial run because every
// measurement is deterministic and fully isolated. Returns the first
// error encountered after all workers drain.
func (r *Runner) MeasureAll(reqs []Request) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan Request)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range ch {
				var err error
				if q.Static {
					_, _, err = r.StaticTouched(q.Workload)
				} else {
					_, err = r.Measure(q.Workload, q.Config, q.PageSize, q.Hier)
				}
				if err != nil {
					select {
					case errc <- err:
					default:
					}
				}
			}
		}()
	}
	for _, q := range reqs {
		ch <- q
	}
	close(ch)
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// SuiteRequests lists every configuration the full table/figure suite
// measures, deduplicated, so a Runner can be warmed with one MeasureAll
// before generating all tables serially from cache.
func SuiteRequests() []Request {
	seen := make(map[Key]bool)
	var reqs []Request
	add := func(name string, cfg vliw.Config, ps uint32, h Hier) {
		k := Key{Workload: name, Config: cfg.Name, PageSize: ps, Hier: h}
		if !seen[k] {
			seen[k] = true
			reqs = append(reqs, Request{Workload: name, Config: cfg, PageSize: ps, Hier: h})
		}
	}
	for _, name := range Names() {
		for _, c := range vliw.Configs { // Figure 5.1 (covers Tables 5.1/5.2/5.6/5.7 etc.)
			add(name, c, 4096, HierNone)
		}
		add(name, vliw.BigConfig, 4096, HierNone)
		add(name, vliw.BigConfig, 4096, HierA) // Tables 5.3/5.4, Figure 5.2
		add(name, vliw.EightIssueConfig, 4096, HierNone)
		add(name, vliw.EightIssueConfig, 4096, HierB) // Table 5.5
		for _, ps := range PageSizes {                // Figures 5.3-5.5
			add(name, vliw.BigConfig, ps, HierNone)
		}
		reqs = append(reqs, Request{Workload: name, Static: true}) // Tables 5.1/5.9
	}
	return reqs
}

// StaticTouched interprets the workload once, counting distinct executed
// instruction addresses (for the reuse factors of Table 5.9).
func (r *Runner) StaticTouched(name string) (dynamic, static uint64, err error) {
	r.mu.Lock()
	e, ok := r.statics[name]
	if !ok {
		e = &staticEntry{}
		r.statics[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.dyn, e.st, e.err = r.staticTouched(name)
	})
	return e.dyn, e.st, e.err
}

func (r *Runner) staticTouched(name string) (dynamic, static uint64, err error) {
	w, err := workload.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	prog, err := w.Build()
	if err != nil {
		return 0, 0, err
	}
	mm := mem.New(MemSize)
	if err := prog.Load(mm); err != nil {
		return 0, 0, err
	}
	seen := make(map[uint32]bool)
	ip := interp.New(mm, &interp.Env{In: w.Input(r.Scale)}, prog.Entry())
	ip.Trace = func(pc uint32, in ppc.Inst, st *ppc.State) { seen[pc] = true }
	if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
		return 0, 0, err
	}
	return ip.InstCount, uint64(len(seen)), nil
}

// Table51 reports instructions per VLIW and translated page size.
func (r *Runner) Table51() (*stats.Table, error) {
	t := stats.NewTable("Table 5.1: Pathlength reductions and code explosion (24-issue, 4K pages)",
		"Program", "Ins/VLIW", "Translated KB/page", "x/scheduled", "x/static")
	var ilps, sizes, schedX, statX []float64
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		_, static, err := r.StaticTouched(name)
		if err != nil {
			return nil, err
		}
		perPage := float64(m.CodeBytes) / float64(m.PagesBuilt) / 1024
		// Two code-explosion views: VLIW bytes per SCHEDULED base
		// instruction (encoding density, net of unrolling) and VLIW bytes
		// per distinct executed instruction (total explosion including
		// tail duplication and unrolling; the paper's 4.5X counts page
		// occupancy and sits between the two).
		perSched := float64(m.CodeBytes) / float64(4*m.TransInsts)
		perStatic := float64(m.CodeBytes) / float64(4*static)
		t.Row(name, m.InfILP(), perPage, perSched, perStatic)
		ilps = append(ilps, m.InfILP())
		sizes = append(sizes, perPage)
		schedX = append(schedX, perSched)
		statX = append(statX, perStatic)
	}
	t.Row("MEAN", stats.Mean(ilps), stats.Mean(sizes), stats.Mean(schedX), stats.Mean(statX))
	return t, nil
}

// Figure51 reports infinite-cache ILP for all ten machine configurations.
func (r *Runner) Figure51() (*stats.Table, error) {
	cols := []string{"Program"}
	for _, c := range vliw.Configs {
		cols = append(cols, c.Name)
	}
	t := stats.NewTable("Figure 5.1: Pathlength reductions for different machine configurations", cols...)
	for _, name := range Names() {
		row := []any{name}
		for _, c := range vliw.Configs {
			m, err := r.Measure(name, c, 4096, HierNone)
			if err != nil {
				return nil, err
			}
			row = append(row, m.InfILP())
		}
		t.Row(row...)
	}
	return t, nil
}

// Table52 compares DAISY with the traditional-compiler baseline on the
// user benchmarks.
func (r *Runner) Table52() (*stats.Table, error) {
	t := stats.NewTable("Table 5.2: DAISY vs traditional VLIW compiler (infinite cache)",
		"Program", "DAISY ILP", "Trad ILP")
	var ds, ts []float64
	for _, name := range []string{"compress", "lex", "fgrep", "sort", "c_sieve"} {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		w, _ := workload.ByName(name)
		prog, err := w.Build()
		if err != nil {
			return nil, err
		}
		res, err := tradcomp.Measure(prog, w.Input(r.Scale), vliw.BigConfig, MemSize)
		if err != nil {
			return nil, err
		}
		t.Row(name, m.InfILP(), res.ILP)
		ds = append(ds, m.InfILP())
		ts = append(ts, res.ILP)
	}
	t.Row("MEAN", stats.Mean(ds), stats.Mean(ts))
	return t, nil
}

// Table53 reports infinite vs finite-cache ILP vs the 604E model.
func (r *Runner) Table53() (*stats.Table, error) {
	t := stats.NewTable("Table 5.3: Finite caches and comparison to a 604E-class machine",
		"Program", "Inf cache", "Finite cache", "604E IPC")
	var a, b, c []float64
	for _, name := range Names() {
		mi, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		mf, err := r.Measure(name, vliw.BigConfig, 4096, HierA)
		if err != nil {
			return nil, err
		}
		w, _ := workload.ByName(name)
		prog, err := w.Build()
		if err != nil {
			return nil, err
		}
		h, err := cache.PaperHierarchyB()
		if err != nil {
			return nil, err
		}
		ss, err := superscalar.Run(superscalar.Default604(), prog, w.Input(r.Scale), h, MemSize)
		if err != nil {
			return nil, err
		}
		t.Row(name, mi.InfILP(), mf.FiniteILP(), ss.IPC)
		a = append(a, mi.InfILP())
		b = append(b, mf.FiniteILP())
		c = append(c, ss.IPC)
	}
	t.Row("MEAN", stats.Mean(a), stats.Mean(b), stats.Mean(c))
	return t, nil
}

// Table54 reports load/store density and VLIWs between cache misses.
func (r *Runner) Table54() (*stats.Table, error) {
	t := stats.NewTable("Table 5.4: Load, store and first-level miss characteristics",
		"Program", "Loads/VLIW", "Stores/VLIW", "VLIWs/LoadMiss", "VLIWs/StoreMiss", "VLIWs/MemMiss")
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierA)
		if err != nil {
			return nil, err
		}
		per := func(misses uint64) any {
			if misses == 0 {
				return "inf"
			}
			return float64(m.VLIWs) / float64(misses)
		}
		t.Row(name,
			float64(m.Loads)/float64(m.VLIWs),
			float64(m.Stores)/float64(m.VLIWs),
			per(m.LoadMisses), per(m.StoreMisses), per(m.LoadMisses+m.StoreMisses))
	}
	return t, nil
}

// Figure52 reports cache miss rates.
func (r *Runner) Figure52() (*stats.Table, error) {
	t := stats.NewTable("Figure 5.2: Cache miss rates (%)",
		"Program", "L0 DCache", "L0 ICache", "L1 JCache")
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierA)
		if err != nil {
			return nil, err
		}
		t.Row(name, m.DMissRate*100, m.IMissRate*100, m.L2MissRate*100)
	}
	return t, nil
}

// Table55 reports the 8-issue machine with its 3-level hierarchy.
func (r *Runner) Table55() (*stats.Table, error) {
	t := stats.NewTable("Table 5.5: Performance of the 8-issue machine",
		"Program", "Inf cache", "Finite cache")
	var a, b []float64
	for _, name := range Names() {
		mi, err := r.Measure(name, vliw.EightIssueConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		mf, err := r.Measure(name, vliw.EightIssueConfig, 4096, HierB)
		if err != nil {
			return nil, err
		}
		t.Row(name, mi.InfILP(), mf.FiniteILP())
		a = append(a, mi.InfILP())
		b = append(b, mf.FiniteILP())
	}
	t.Row("MEAN", stats.Mean(a), stats.Mean(b))
	return t, nil
}

// Table56 reports cross-page branches by type.
func (r *Runner) Table56() (*stats.Table, error) {
	t := stats.NewTable("Table 5.6: Cross-page branches",
		"Program", "Direct", "Via Linkreg", "Via Counter", "Total", "VLIWs/CrossBranch")
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		total := m.CrossDirect + m.CrossLR + m.CrossCTR
		var per any = "inf"
		if total > 0 {
			per = float64(m.VLIWs) / float64(total)
		}
		t.Row(name, m.CrossDirect, m.CrossLR, m.CrossCTR, total, per)
	}
	return t, nil
}

// Table57 reports runtime load-store aliasing.
func (r *Runner) Table57() (*stats.Table, error) {
	t := stats.NewTable("Table 5.7: Runtime load-store aliases",
		"Program", "Aliases", "VLIWs", "VLIWs/Alias")
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		var per any = "inf"
		if m.Aliases > 0 {
			per = float64(m.VLIWs) / float64(m.Aliases)
		}
		t.Row(name, m.Aliases, m.VLIWs, per)
	}
	return t, nil
}

// PageSizes is the sweep of Figures 5.3-5.5.
var PageSizes = []uint32{128, 256, 512, 1024, 2048, 4096, 8192, 16384}

func (r *Runner) pageSweep(title string, cell func(*M) any) (*stats.Table, error) {
	cols := []string{"Program"}
	for _, ps := range PageSizes {
		cols = append(cols, fmt.Sprint(ps))
	}
	t := stats.NewTable(title, cols...)
	for _, name := range Names() {
		row := []any{name}
		for _, ps := range PageSizes {
			m, err := r.Measure(name, vliw.BigConfig, ps, HierNone)
			if err != nil {
				return nil, err
			}
			row = append(row, cell(m))
		}
		t.Row(row...)
	}
	return t, nil
}

// Figure53 reports ILP vs translation page size.
func (r *Runner) Figure53() (*stats.Table, error) {
	return r.pageSweep("Figure 5.3: ILP versus input page size",
		func(m *M) any { return m.InfILP() })
}

// Figure54 reports total VLIW code size vs page size.
func (r *Runner) Figure54() (*stats.Table, error) {
	return r.pageSweep("Figure 5.4: Total VLIW code size (bytes) versus input page size",
		func(m *M) any { return m.CodeBytes })
}

// Figure55 reports direct cross-page jumps vs page size.
func (r *Runner) Figure55() (*stats.Table, error) {
	return r.pageSweep("Figure 5.5: Direct cross-page jumps versus input page size",
		func(m *M) any { return m.CrossDirect })
}

// Table58 reproduces the analytic overhead model.
func (r *Runner) Table58() *stats.Table {
	t := stats.NewTable("Table 5.8: Overhead of dynamic compilation (analytic model of §5.1)",
		"Ins to compile 1 ins", "Unique pages", "Reuse factor", "Time change %")
	for _, row := range analytic.OverheadTable(analytic.PaperParams(), 2) {
		t.Row(int(row.CostPerInst), int(row.UniquePages), row.ReuseFactor, row.TimeChangePct)
	}
	return t
}

// Table59 shows the paper's SPEC95 reuse factors next to reuse measured
// on this reproduction's workloads.
func (r *Runner) Table59() (*stats.Table, error) {
	t := stats.NewTable("Table 5.9: Reuse factors (paper's SPEC95 data + measured workloads)",
		"Program", "Dynamic ins", "Static ins touched", "Reuse")
	for _, row := range analytic.PaperSpecReuse() {
		t.Row(row.Name, row.DynamicIns, row.StaticWords, uint64(row.ReuseFactor))
	}
	t.Row("(paper MEAN)", "", "", uint64(analytic.MeanSpecReuse()))
	for _, name := range Names() {
		dyn, st, err := r.StaticTouched(name)
		if err != nil {
			return nil, err
		}
		t.Row("ours:"+name, dyn, st, uint64(analytic.Reuse(dyn, st)))
	}
	return t, nil
}

// TranslationCost reports the measured translation effort (§5.1's "4315
// RS/6000 instructions per PowerPC instruction" counterpart: scheduler
// work units per scheduled instruction and per executed instruction).
func (r *Runner) TranslationCost() (*stats.Table, error) {
	t := stats.NewTable("Translation cost (§5.1; the paper measured 4315 host instructions per instruction)",
		"Program", "Host ns/TransIns", "TransIns", "DynIns", "BreakEvenReuse(r)")
	p := analytic.PaperParams()
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		nsPerIns := float64(m.TransNanos) / float64(m.TransInsts)
		// Break-even reuse at the paper's 1 GHz VLIW if translation took
		// this many cycles per instruction on the VLIW itself.
		tcycles := analytic.TranslateCycles(p, nsPerIns, 1)
		t.Row(name, nsPerIns, m.TransInsts, m.Insts, analytic.BreakEvenReuse(p, tcycles, 1))
	}
	return t, nil
}

// OracleTable reports Chapter 6 oracle ILP against DAISY's.
func (r *Runner) OracleTable() (*stats.Table, error) {
	t := stats.NewTable("Chapter 6: Oracle parallelism (trace scheduling, unlimited resources)",
		"Program", "DAISY ILP", "Oracle ILP", "Oracle@24ops")
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		w, _ := workload.ByName(name)
		prog, err := w.Build()
		if err != nil {
			return nil, err
		}
		in := w.Input(r.Scale)
		unl, err := oracle.Measure(prog, in, oracle.Limits{}, MemSize)
		if err != nil {
			return nil, err
		}
		bounded, err := oracle.Measure(prog, in, oracle.Limits{OpsPerCycle: 24}, MemSize)
		if err != nil {
			return nil, err
		}
		t.Row(name, m.InfILP(), unl.ILP, bounded.ILP)
	}
	return t, nil
}

// InterpretiveTable compares static two-path compilation with Chapter 6's
// interpretive (trace-guided) compilation on every benchmark.
func (r *Runner) InterpretiveTable() (*stats.Table, error) {
	t := stats.NewTable("Chapter 6: Interpretive compilation vs static translation (24-issue)",
		"Program", "Static ILP", "Trace ILP", "Sched insts static", "Sched insts trace")
	var a, b []float64
	for _, name := range Names() {
		m, err := r.Measure(name, vliw.BigConfig, 4096, HierNone)
		if err != nil {
			return nil, err
		}
		w, _ := workload.ByName(name)
		prog, err := w.Build()
		if err != nil {
			return nil, err
		}
		mm := mem.New(MemSize)
		if err := prog.Load(mm); err != nil {
			return nil, err
		}
		opt := vmm.DefaultOptions()
		opt.Interpretive = true
		ma, err := vmm.NewMachine(mm, &interp.Env{In: w.Input(r.Scale)}, opt)
		if err != nil {
			return nil, err
		}
		if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
			return nil, err
		}
		t.Row(name, m.InfILP(), ma.Stats.InfILP(), m.TransInsts, ma.Trans.Stats.BaseInsts)
		a = append(a, m.InfILP())
		b = append(b, ma.Stats.InfILP())
	}
	t.Row("MEAN", stats.Mean(a), stats.Mean(b), "", "")
	return t, nil
}

// Ablations measures the contribution of the design choices DESIGN.md
// calls out, on one representative benchmark.
func (r *Runner) Ablations(name string) (*stats.Table, error) {
	t := stats.NewTable("Ablations on "+name+" (infinite cache, 24-issue)",
		"Variant", "ILP")
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	in := w.Input(r.Scale)

	run := func(label string, mod func(*core.Options)) error {
		mm := mem.New(MemSize)
		if err := prog.Load(mm); err != nil {
			return err
		}
		opt := vmm.DefaultOptions()
		mod(&opt.Trans)
		ma, err := vmm.NewMachine(mm, &interp.Env{In: in}, opt)
		if err != nil {
			return err
		}
		if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
			return err
		}
		t.Row(label, ma.Stats.InfILP())
		return nil
	}
	cases := []struct {
		label string
		mod   func(*core.Options)
	}{
		{"baseline", func(o *core.Options) {}},
		{"no load speculation", func(o *core.Options) { o.SpeculateLoads = false }},
		{"no store forwarding", func(o *core.Options) { o.StoreForwarding = false }},
		{"no return inlining", func(o *core.Options) { o.InlineReturns = false }},
		{"window 16", func(o *core.Options) { o.Window = 16 }},
		{"no unrolling (k=1)", func(o *core.Options) { o.MaxJoinVisits = 1; o.MaxLoopVisits = 1 }},
		{"deep unrolling (k=8)", func(o *core.Options) { o.MaxJoinVisits = 8; o.MaxLoopVisits = 8 }},
	}
	for _, c := range cases {
		if err := run(c.label, c.mod); err != nil {
			return nil, fmt.Errorf("ablation %q: %w", c.label, err)
		}
	}
	return t, nil
}
