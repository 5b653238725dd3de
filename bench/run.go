package main

// The timed phase: jobs run back to back from one goroutine (a closed loop
// with one client), and only the job itself is timed.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
)

// budgetFor is the instruction budget a job runs under: a machine that
// loops instead of halting fails the job instead of hanging the benchmark.
func budgetFor(j *job) uint64 { return 2*j.insts + 1000 }

// runJob runs j from load to halt — mem.New, Program.Load, vmm.NewMachine,
// Run, Close — and returns the wall time of exactly that sequence. A
// non-nil tel is attached before Run and synced after it, inside the
// timed sequence. A panic anywhere in it is returned as an error.
func runJob(j *job, opt vmm.Options, tel *telemetry.Telemetry) (wall time.Duration, ma *vmm.Machine, out []byte, err error) {
	env := &interp.Env{In: j.input}
	defer func() {
		if r := recover(); r != nil {
			if ma != nil {
				ma.Close()
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	start := time.Now()
	m := mem.New(memSize)
	if err = j.prog.prog.Load(m); err != nil {
		return 0, nil, nil, err
	}
	if ma, err = vmm.NewMachine(m, env, opt); err != nil {
		return 0, nil, nil, err
	}
	if tel != nil {
		ma.AttachTelemetry(tel)
	}
	err = ma.Run(j.prog.prog.Entry(), budgetFor(j))
	if tel != nil {
		ma.SyncTelemetry()
	}
	ma.Close()
	return time.Since(start), ma, env.Out, err
}

// check reports why a finished job is wrong, or nil.
func check(j *job, ma *vmm.Machine, out []byte, err error) error {
	switch {
	case err != nil:
		return err
	case !bytes.Equal(out, j.want):
		return fmt.Errorf("output differs from the model (%d bytes, want %d)", len(out), len(j.want))
	case ma.Stats.BaseInsts() != j.insts:
		return fmt.Errorf("%d base instructions, the reference interpreter ran %d", ma.Stats.BaseInsts(), j.insts)
	}
	return nil
}

// tally accumulates the outcome of timed job executions.
type tally struct {
	attempted, failed int
	perJob            [][]time.Duration // successful executions, by job
	cycles, insts     uint64            // simulated VLIW cycles and base instructions
}

func newTally(jobs int) *tally { return &tally{perJob: make([][]time.Duration, jobs)} }

// record books one execution of job i and reports whether it passed; a
// failure is logged, counted and excluded from the timings.
func (t *tally) record(i int, j *job, wall time.Duration, ma *vmm.Machine, out []byte, err error, log io.Writer) bool {
	t.attempted++
	if err := check(j, ma, out, err); err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(log, "bench: job %d (%s, %d insts) failed: %v\n", i, j.prog.name, j.insts, err)
		}
		return false
	}
	t.perJob[i] = append(t.perJob[i], wall)
	t.cycles += ma.Stats.Cycles
	t.insts += ma.Stats.BaseInsts()
	return true
}

// best returns each job's fastest successful execution, skipping jobs
// that never succeeded, with their instruction counts. The run-to-run
// spread of medians over passes was 15% on a 2-vCPU host, as other load on
// the host slows whole passes; the fastest of several interleaved
// repetitions reads within a few percent.
func (t *tally) best(jobs []*job) (times []time.Duration, insts []uint64) {
	for i, ws := range t.perJob {
		if len(ws) == 0 {
			continue
		}
		b := ws[0]
		for _, w := range ws[1:] {
			b = min(b, w)
		}
		times = append(times, b)
		insts = append(insts, jobs[i].insts)
	}
	return times, insts
}

// nsPerInst is Σ over jobs of the job's best time over Σ of their base
// instructions.
func (t *tally) nsPerInst(jobs []*job) float64 {
	times, insts := t.best(jobs)
	var ns, n uint64
	for i := range times {
		ns += uint64(times[i])
		n += insts[i]
	}
	return ratio(ns, n)
}

// passes calls each(pass) over and over, whole passes over the job list
// only, while the next pass is expected to end within budget; at least
// minPasses run. It returns the number of passes and their time.
func passes(budget time.Duration, minPasses int, each func(pass int)) (int, time.Duration) {
	start := time.Now()
	for pass := 0; ; pass++ {
		p0 := time.Now()
		each(pass)
		last := time.Since(p0)
		if el := time.Since(start); pass+1 >= minPasses && el+last > budget {
			return pass + 1, el
		}
	}
}

// minTimedPasses is the number of repetitions of each job a timed run
// always makes, whatever its budget.
const minTimedPasses = 3

// timed is the untraced measurement of one workload: job times are each
// job's best pass. afterPass runs after each pass, outside the job timer.
func timed(jobs []*job, opt vmm.Options, cfg config, afterPass func()) result {
	t := newTally(len(jobs))
	var before, after runtime.MemStats
	var setupAlloc uint64
	runtime.ReadMemStats(&before)
	n, el := passes(cfg.budget, minTimedPasses, func(int) {
		for i, j := range jobs {
			wall, ma, out, err := runJob(j, opt, nil)
			t.record(i, j, wall, ma, out, err, cfg.stderr)
		}
		setupAlloc += allocated(afterPass)
	})
	runtime.ReadMemStats(&after)
	fmt.Fprintf(cfg.stderr, "bench: %d passes over %d jobs, %d timed, in %.1fs\n", n, len(jobs), t.attempted, el.Seconds())
	ms := func(d float64) float64 { return d / float64(time.Millisecond) }
	best, _ := t.best(jobs)
	return result{
		attempted: t.attempted,
		failed:    t.failed,
		metrics: []metric{
			{"ns_per_inst", t.nsPerInst(jobs), "ns", false},
			{"job_ms_p50", ms(quantile(best, 0.5)), "ms", false},
			{"job_ms_p90", ms(quantile(best, 0.9)), "ms", false},
			{"sim_cycles_per_inst", ratio(t.cycles, t.insts), "cycles", false},
			{"alloc_kb_per_job", float64(after.TotalAlloc-before.TotalAlloc-setupAlloc) / float64(t.attempted) / 1024, "KiB", false},
			{"fail_rate", float64(t.failed) / float64(t.attempted), "ratio", true},
		},
	}
}

// allocated runs f and returns the heap bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples).
func quantile[T time.Duration | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[lo])
	}
	return float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])
}
