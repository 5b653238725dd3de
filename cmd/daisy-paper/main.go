// daisy-paper is the one-command reproduction of the paper's evaluation:
// it runs the full experiment grid (every table and figure of Chapter 5,
// the §5.1 cost model, the Chapter 6 studies, the ablations and the
// tier-2 cycle counts), a chaos-matrix compatibility summary and a
// profiler smoke run, and archives everything into a timestamped run
// folder with a machine-readable manifest — git SHA, go version, CPU
// model, per-experiment wall time — each table rendered as text, CSV and
// markdown, and an output cross-check against the reference interpreter
// (and the committed goldens at scale 1), so a reproduction run doubles
// as a correctness run. The one host-time table is [cost]; host time of
// the async, cache and AOT machinery is measured by bench/.
//
// Each grid table is also printed to stdout as "[id]" followed by the
// table, so the grid reads like the paper's Chapter 5; progress lines go
// to stderr.
//
// Usage:
//
//	daisy-paper                       # full grid at scale 1 into runs/<stamp>/
//	daisy-paper -scale 3 -out /tmp/r  # bigger inputs, explicit folder
//	daisy-paper -only t51,tier2       # a slice of the grid
//	daisy-paper -chaos-seeds 0 -no-profile -out /tmp/r  # the grid tables only
//
// The process exits nonzero if -only names an id the registry does not
// know, any experiment fails, any output digest diverges, the chaos
// matrix reports a divergence, the profiler payload does not validate,
// or the finished folder fails integrity validation — a green
// daisy-paper run is a correctness statement, not just numbers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"daisy/internal/chaos"
	"daisy/internal/experiments"
	"daisy/internal/golden"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/stats"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

func main() {
	var (
		scale      = flag.Int("scale", 1, "workload input scale")
		only       = flag.String("only", "", "comma-separated experiment ids (empty: full grid)")
		out        = flag.String("out", "runs", "base directory for run folders")
		name       = flag.String("name", "", "run folder name (default: UTC timestamp)")
		chaosSeeds = flag.Int("chaos-seeds", 1, "seeds per chaos workload/injector cell (0: skip the matrix)")
		goldens    = flag.String("goldens", "internal/golden/testdata/golden",
			"golden dir for the scale-1 digest cross-check (empty: skip)")
		noProfile = flag.Bool("no-profile", false, "skip the profiler smoke run")
	)
	flag.Parse()
	if err := run(*scale, *only, *out, *name, *chaosSeeds, *goldens, *noProfile); err != nil {
		fmt.Fprintln(os.Stderr, "daisy-paper:", err)
		os.Exit(1)
	}
}

func run(scale int, only, out, name string, chaosSeeds int, goldens string, noProfile bool) error {
	start := time.Now()
	sel, err := selection(only)
	if err != nil {
		return err
	}
	if name == "" {
		name = time.Now().UTC().Format("20060102-150405")
	}
	dir := filepath.Join(out, name)
	rf, err := newRunFolder(dir, scale, os.Args[1:])
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[daisy-paper] run folder: %s\n", dir)

	r := experiments.NewRunner(scale)
	want := func(id string) bool { return len(sel) == 0 || sel[id] }

	// One failure does not abort the run: the folder archives everything
	// that did complete, and the collected failures decide the exit code.
	var failures []string
	fail := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		failures = append(failures, msg)
		fmt.Fprintf(os.Stderr, "[daisy-paper] FAIL: %s\n", msg)
	}

	// The experiment grid. Full-grid runs warm the memo cache across all
	// cores first; table generation then replays the cached measurements in
	// order, so the tables are bit-identical to a serial run and the
	// per-experiment wall times charge only the runs the memo does not
	// hold (t52's and t53's baselines, oracle, trace, ablate and tier2).
	if len(sel) == 0 {
		if err := r.MeasureAll(experiments.SuiteRequests()); err != nil {
			return err
		}
	}
	for _, e := range experiments.Experiments() {
		if !want(e.ID) {
			continue
		}
		t0 := time.Now()
		t, err := e.Run(r)
		wallMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			fail("experiment %s: %v", e.ID, err)
			continue
		}
		if err := rf.addTable(e.ID, t, wallMS); err != nil {
			return err
		}
		fmt.Printf("[%s]\n%s\n", e.ID, t)
		fmt.Fprintf(os.Stderr, "[daisy-paper] %-8s %8.1f ms  %s\n", e.ID, wallMS, t.Title)
	}

	// Output cross-check: every workload through the full machine against
	// the reference interpreter at this scale, and against the committed
	// goldens at scale 1. This is what makes a reproduction run double as
	// a correctness run — a digest mismatch fails the whole invocation.
	if t, bad := crossCheck(scale, goldens); t != nil {
		if err := rf.addTable("crosscheck", t, 0); err != nil {
			return err
		}
		if bad > 0 {
			fail("output cross-check: %d mismatches (see tables/crosscheck.md)", bad)
		}
	}

	// Chaos summary: the injector matrix, one row per injector across all
	// workloads. Any divergence is a compatibility break.
	if chaosSeeds > 0 {
		t0 := time.Now()
		t, div, err := chaosSummary(scale, chaosSeeds)
		if err != nil {
			fail("chaos matrix: %v", err)
		} else {
			if err := rf.addTable("chaos", t, float64(time.Since(t0).Microseconds())/1000); err != nil {
				return err
			}
			if div > 0 {
				fail("chaos matrix: %d divergences", div)
			}
		}
	}

	// Profiler smoke: one attributed run, the pprof payload validated and
	// archived together with the telemetry snapshot (JSON + Prometheus).
	if !noProfile {
		if err := profileSmoke(rf, scale); err != nil {
			fail("profiler smoke: %v", err)
		}
	}

	if err := rf.finish(); err != nil {
		return err
	}
	if err := validate(dir); err != nil {
		fail("run folder validation: %v", err)
	}
	fmt.Fprintf(os.Stderr, "[daisy-paper] done in %.1fs: %s\n", time.Since(start).Seconds(), dir)
	if len(failures) > 0 {
		return fmt.Errorf("%d failures:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// selection parses -only into a set of registry ids; empty selects the
// full grid. An id the registry does not know is an error, so a typo
// cannot pass as a run that wrote only the cross-check.
func selection(only string) (map[string]bool, error) {
	sel := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if experiments.ExperimentByID(id) == nil {
			var ids []string
			for _, e := range experiments.Experiments() {
				ids = append(ids, e.ID)
			}
			return nil, fmt.Errorf("-only: unknown experiment id %q (known: %s)", id, strings.Join(ids, ","))
		}
		sel[id] = true
	}
	return sel, nil
}

// crossCheck runs every workload on the machine and the reference
// interpreter and compares output digests; at scale 1 it also checks the
// committed golden digest. Returns the table and the mismatch count.
func crossCheck(scale int, goldens string) (*stats.Table, int) {
	t := stats.NewTable(
		fmt.Sprintf("Output cross-check: machine vs reference interpreter (scale %d)", scale),
		"Program", "machine fnv", "reference fnv", "golden fnv", "status")
	bad := 0
	for _, name := range experiments.Names() {
		mFNV, rFNV, err := machineAndRefFNV(name, scale)
		status := "ok"
		if err != nil {
			status = "error: " + err.Error()
			bad++
			t.Row(name, "", "", "", status)
			continue
		}
		gold := ""
		if goldens != "" && scale == 1 {
			var g golden.Run
			if err := golden.ReadJSON(filepath.Join(goldens, name+".json"), &g); err == nil {
				gold = g.OutputFNV
				if gold != fmt.Sprintf("%016x", mFNV) {
					status = "GOLDEN MISMATCH"
				}
			}
		}
		if mFNV != rFNV {
			status = "REFERENCE MISMATCH"
		}
		if status != "ok" {
			bad++
		}
		t.Row(name, fmt.Sprintf("%016x", mFNV), fmt.Sprintf("%016x", rFNV), gold, status)
	}
	return t, bad
}

func machineAndRefFNV(name string, scale int) (machine, ref uint64, err error) {
	w, err := workload.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	prog, err := w.Build()
	if err != nil {
		return 0, 0, err
	}

	mm := mem.New(experiments.MemSize)
	if err := prog.Load(mm); err != nil {
		return 0, 0, err
	}
	env := &interp.Env{In: w.Input(scale)}
	ma, err := vmm.NewMachine(mm, env, vmm.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	defer ma.Close()
	if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
		return 0, 0, fmt.Errorf("machine: %w", err)
	}
	machine = experiments.OutputFNV(env.Out)

	rmm := mem.New(experiments.MemSize)
	if err := prog.Load(rmm); err != nil {
		return 0, 0, err
	}
	renv := &interp.Env{In: w.Input(scale)}
	ip := interp.New(rmm, renv, prog.Entry())
	if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
		return 0, 0, fmt.Errorf("reference: %v", err)
	}
	return machine, experiments.OutputFNV(renv.Out), nil
}

// chaosSummary runs the full workload x injector matrix for seeds seeds
// each, under lockstep validation, and reports one row per injector.
func chaosSummary(scale, seeds int) (*stats.Table, int, error) {
	t := stats.NewTable(
		fmt.Sprintf("Chaos matrix: lockstep compatibility under fault injection (scale %d, %d seed(s))", scale, seeds),
		"Injector", "runs", "halted", "truncated", "divergences")
	divTotal := 0
	for _, inj := range chaos.Injectors() {
		runs, halted, truncated, divs := 0, 0, 0, 0
		for _, w := range workload.All() {
			for seed := 1; seed <= seeds; seed++ {
				rep, err := chaos.Run(chaos.Scenario{
					Workload: w,
					Scale:    scale,
					Seed:     int64(seed),
					Injector: inj,
				})
				if err != nil {
					return nil, 0, fmt.Errorf("%s/%s seed %d: %w", w.Name, inj.Name(), seed, err)
				}
				runs++
				if rep.Halted {
					halted++
				}
				if rep.Truncated {
					truncated++
				}
				if rep.Divergence != nil {
					divs++
					fmt.Fprintf(os.Stderr, "[daisy-paper] chaos divergence %s/%s seed %d: %s\n",
						w.Name, inj.Name(), seed, rep.Divergence)
				}
			}
		}
		divTotal += divs
		t.Row(inj.Name(), runs, halted, truncated, divs)
	}
	return t, divTotal, nil
}

// profileSmoke runs one workload with the attribution profiler attached,
// validates the pprof payload, and archives it with the telemetry
// snapshot in both JSON and Prometheus form.
func profileSmoke(rf *runFolder, scale int) error {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		return err
	}
	prog, err := w.Build()
	if err != nil {
		return err
	}
	mm := mem.New(experiments.MemSize)
	if err := prog.Load(mm); err != nil {
		return err
	}
	env := &interp.Env{In: w.Input(scale)}
	ma, err := vmm.NewMachine(mm, env, vmm.DefaultOptions())
	if err != nil {
		return err
	}
	defer ma.Close()
	tel := telemetry.New(telemetry.Options{SampleEvery: 1, Profile: true})
	ma.AttachTelemetry(tel)
	if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
		return err
	}
	ma.SyncTelemetry()

	var pprof strings.Builder
	if err := tel.Profile().WritePprof(&pprof); err != nil {
		return err
	}
	sum, err := telemetry.ValidatePprof(strings.NewReader(pprof.String()))
	if err != nil {
		return fmt.Errorf("pprof payload invalid: %w", err)
	}
	if err := rf.writeFile(filepath.Join("profile", "c_sieve.pb"), []byte(pprof.String())); err != nil {
		return err
	}
	if err := tel.Snapshot().WriteFiles(filepath.Join(rf.dir, "profile")); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[daisy-paper] profiler smoke ok: %s\n", sum)
	return nil
}
