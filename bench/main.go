// Command bench is the repository's end-to-end benchmark: host time per
// guest base instruction, from program load to halt, on five workloads.
//
// Each job runs one guest program through mem.New, Program.Load,
// vmm.NewMachine, Run and Close; only that sequence is timed. Jobs run
// back to back from one goroutine, a closed loop with one client. Inputs
// come from -seed; every job's output is checked against the program's Go
// model and its base-instruction count against the reference interpreter.
//
// A timed run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1, or -trace FILE to also write a Chrome trace) repeats the jobs
// with spans around each call into a layer, runs the layer probes and
// reports the per-layer metrics. -compare A.json B.json compares two sets
// of -out results against the bounds in BENCHMARK.json.
//
// Build and run it from the repository root with bench/run.sh; README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. An info metric is printed but is not
// part of the JSON result line.
type metric struct {
	name  string
	value float64
	unit  string
	info  bool
}

// result is the outcome of one workload run.
type result struct {
	workload          string
	attempted, failed int
	metrics           []metric
	notes             []string // printed as "# workload note" lines
}

type config struct {
	seed      int64
	budget    time.Duration // length of the measured phase
	trace     bool
	workdir   string        // scratch space for on-disk caches
	shrink    int           // divides job counts and sizes; tests use it, real runs use 1
	setupN    int           // setups after each pass (runWorkload)
	probeTime time.Duration // minimum measured time of each layer probe
	stderr    io.Writer
	spans     *spanLog // nil unless a Chrome trace is written
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 12, "length of each workload's measured phase")
	trace := fs.String("trace", "0", "0: timed run; 1: traced run; any other value: traced run that writes a Chrome trace to that file")
	out := fs.String("out", "", "append one JSON line per workload result to this file")
	compare := fs.Bool("compare", false, "compare two -out files against the bounds in BENCHMARK.json: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v (have %s)\n", err, workloadNames())
			return 2
		}
		defs = []workloadDef{w}
	}
	cfg := config{
		seed:      *seed,
		budget:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace != "0",
		workdir:   ".bench_build",
		shrink:    1,
		setupN:    5,
		probeTime: defaultProbeTime,
		stderr:    stderr,
	}
	traceFile := ""
	if *trace != "0" && *trace != "1" {
		traceFile = *trace
		cfg.spans = &spanLog{}
	}
	var results []result
	for _, w := range defs {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := appendResults(*out, results, cfg); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if traceFile != "" {
		if err := cfg.spans.writeChrome(traceFile); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(summary(results))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the workload up, builds its job list and runs the
// timed or the traced phase. setup_s is the median of every setup: the
// first, whose state the jobs use, and cfg.setupN more after each pass
// into a spare directory, so the setups sample the host across the whole
// run with the process warm, as the jobs do.
func runWorkload(w workloadDef, cfg config) (result, error) {
	dir := filepath.Join(cfg.workdir, "bench-"+w.name)
	spare := dir + "-setup"
	defer os.RemoveAll(dir)
	defer os.RemoveAll(spare)
	var setups, assembles []time.Duration
	var setupErr error
	setUp := func(into string) *setupState {
		st, total, asmTime, err := setup(w, into)
		if err != nil {
			setupErr = errors.Join(setupErr, err)
			return nil
		}
		setups = append(setups, total)
		assembles = append(assembles, asmTime)
		return st
	}
	st := setUp(dir)
	if st == nil {
		return result{}, fmt.Errorf("setup: %w", setupErr)
	}
	jobs, err := prepare(w.jobs, st.progs, cfg)
	if err != nil {
		return result{}, fmt.Errorf("prepare jobs: %w", err)
	}
	afterPass := func() {
		for i := 0; i < cfg.setupN; i++ {
			// Finish the jobs' garbage collection first: a process sets up
			// on a quiet heap, not in the middle of a GC cycle.
			runtime.GC()
			setUp(spare)
		}
	}
	opt := w.opts(st.store)
	var res result
	if cfg.trace {
		res, err = traced(w.name, jobs, st.progs, opt, cfg, dir, afterPass)
		if err != nil {
			return result{}, err
		}
		res.metrics = append([]metric{
			{"asm.assemble_ms", quantile(assembles, 0.5) / float64(time.Millisecond), "ms", false},
		}, res.metrics...)
	} else {
		res = timed(jobs, opt, cfg, afterPass)
	}
	if setupErr != nil {
		return result{}, fmt.Errorf("setup: %w", setupErr)
	}
	res.workload = w.name
	res.metrics = append([]metric{
		{"setup_s", quantile(setups, 0.5) / float64(time.Second), "s", cfg.trace},
	}, res.metrics...)
	return res, nil
}

// prepare calibrates the programs of spec and draws the job list from the
// seed (shrunk for tests). It is not timed.
func prepare(spec jobSpec, progs map[string]*program, cfg config) ([]*job, error) {
	for _, name := range spec.progs {
		if err := calibrate(progs[name]); err != nil {
			return nil, err
		}
	}
	if cfg.shrink > 1 {
		spec.n = max(len(spec.progs), spec.n/cfg.shrink)
		spec.lo /= float64(cfg.shrink)
		spec.hi /= float64(cfg.shrink)
	}
	return makeJobs(spec, progs, rand.New(rand.NewSource(cfg.seed)))
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printResult writes the notes, then one "workload metric value unit" line
// per metric.
func printResult(w io.Writer, r result) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, formatValue(m.value), m.unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func jsonMetrics(r result, prefix string, into map[string]jsonMetric) {
	for _, m := range r.metrics {
		if !m.info {
			into[prefix+m.name] = jsonMetric{m.value, m.unit}
		}
	}
}

type summaryLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary is the last line of standard output. For a single workload the
// metrics carry their own names; for several, "workload.metric".
func summary(results []result) summaryLine {
	s := summaryLine{Metrics: make(map[string]jsonMetric)}
	for _, r := range results {
		s.Attempted += r.attempted
		s.Failed += r.failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.workload + "."
		}
		jsonMetrics(r, prefix, s.Metrics)
	}
	s.Correct = s.Failed == 0
	return s
}

// outLine is one line of an -out file.
type outLine struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Traced    bool                  `json:"traced"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func appendResults(path string, results []result, cfg config) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		l := outLine{Workload: r.workload, Seed: cfg.seed, Traced: cfg.trace,
			Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
		jsonMetrics(r, "", l.Metrics)
		if err := enc.Encode(l); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
