package main

// The traced run. It alternates untraced passes over the job list with
// traced ones, in which every call a job makes into a layer is wrapped in
// a span: mem.New, Program.Load, vmm.NewMachine, each StepGroup, Close.
// Steps are summarized per job (count, sum, log2 histogram) so memory
// stays bounded. Spans stay in memory and are written as Chrome
// trace-event JSON at exit when a trace file is asked for. The layer
// probes (probes.go) run after the passes.

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"time"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vmm"
)

// spanLog holds spans for the Chrome trace file.
type spanLog struct {
	origin time.Time
	events []chromeEvent
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace threads: job spans and their children, and layer probes.
const (
	tidJobs   = 1
	tidProbes = 2
)

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// add records one complete span; a nil log records nothing.
func (l *spanLog) add(name string, tid int, start time.Time, dur time.Duration, args map[string]any) {
	if l == nil {
		return
	}
	if l.origin.IsZero() {
		l.origin = start
	}
	l.events = append(l.events, chromeEvent{name, "X", micros(start.Sub(l.origin)), micros(dur), 1, tid, args})
}

func (l *spanLog) writeChrome(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": l.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// subBits sets the histogram's resolution: 2^subBits linear buckets per
// power of two, so a bucket spans at most 1/8 of its lower bound.
const subBits = 3

// hist is a log-linear histogram of durations in nanoseconds.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	e := bits.Len64(ns) - 1
	sub := ns >> (e - subBits) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits + int(sub)
}

// bucketLow is the smallest value in bucket b.
func bucketLow(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	e := b>>subBits + subBits - 1
	sub := b & (1<<subBits - 1)
	return float64(uint64(1<<subBits+sub) << (e - subBits))
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

// quantile interpolates linearly inside the bucket holding rank q·n.
func (h *hist) quantile(q float64) time.Duration {
	target := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketLow(b), bucketLow(b+1)
			return time.Duration(lo + (target-cum)/float64(c)*(hi-lo))
		}
		cum += float64(c)
	}
	return 0
}

// jobTrace is the span breakdown of one traced job. run spans Start and
// the step loop; steps is the sum of the individually timed StepGroup
// calls inside it, so the harness's own work between steps is
// unaccounted.
type jobTrace struct {
	start                                 time.Time
	wall, memNew, load, vmNew, run, close time.Duration

	steps     time.Duration
	nSteps    uint64
	log2Steps [64]uint32 // steps by log2 of their nanoseconds, for the trace file
	// Steps that neither translated, installed a cached or published
	// translation, nor interpreted: pure executor and dispatch time.
	execTime  time.Duration
	execVLIWs uint64
}

// traceJob is runJob with a span around each call into a layer; the step
// durations also go into h.
func traceJob(j *job, opt vmm.Options, h *hist) (jt jobTrace, ma *vmm.Machine, out []byte, err error) {
	env := &interp.Env{In: j.input}
	defer func() {
		if r := recover(); r != nil {
			if ma != nil {
				ma.Close()
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	m := mem.New(memSize)
	t1 := time.Now()
	if err = j.prog.prog.Load(m); err != nil {
		return jt, nil, nil, err
	}
	t2 := time.Now()
	if ma, err = vmm.NewMachine(m, env, opt); err != nil {
		return jt, nil, nil, err
	}
	t3 := time.Now()
	ma.Start(j.prog.prog.Entry(), budgetFor(j))
	for {
		groups, hits, pubs := ma.Trans.Stats.Groups, ma.Stats.CacheHits, ma.Stats.AsyncPublishes
		interpreted := ma.Stats.InterpInsts + ma.Stats.Tier2ProfileInsts
		vliws := ma.Exec.Stats.VLIWs
		s := time.Now()
		halted, serr := ma.StepGroup()
		d := time.Since(s)
		h.add(d)
		jt.steps += d
		jt.nSteps++
		jt.log2Steps[bits.Len64(uint64(d))]++
		if ma.Trans.Stats.Groups == groups && ma.Stats.CacheHits == hits && ma.Stats.AsyncPublishes == pubs &&
			ma.Stats.InterpInsts+ma.Stats.Tier2ProfileInsts == interpreted {
			jt.execTime += d
			jt.execVLIWs += ma.Exec.Stats.VLIWs - vliws
		}
		if serr != nil || halted {
			err = serr
			break
		}
	}
	t4 := time.Now()
	ma.Close()
	t5 := time.Now()
	jt.memNew, jt.load, jt.vmNew, jt.run, jt.close = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	jt.start, jt.wall = t0, t5.Sub(t0)
	return jt, ma, env.Out, err
}

// logSpans records a traced job and its children.
func (jt *jobTrace) logSpans(l *spanLog, workload string, j *job) {
	if l == nil {
		return
	}
	l.add("job", tidJobs, jt.start, jt.wall, map[string]any{"workload": workload, "program": j.prog.name, "insts": j.insts})
	at := jt.start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"mem.new", jt.memNew}, {"asm.load", jt.load}, {"vmm.new", jt.vmNew}, {"vmm.run", jt.run}, {"vmm.close", jt.close}} {
		var args map[string]any
		if s.name == "vmm.run" {
			top := 0
			for i, c := range jt.log2Steps {
				if c > 0 {
					top = i + 1
				}
			}
			args = map[string]any{"steps": jt.nSteps, "steps_sum_us": micros(jt.steps), "steps_log2_ns_hist": jt.log2Steps[:top]}
		}
		l.add(s.name, tidJobs, at, s.d, args)
		at = at.Add(s.d)
	}
}

// traceSums aggregates the traced jobs of one workload.
type traceSums struct {
	jobs                                    int
	wall, memNew, load, vmNew, steps, close time.Duration
	memNews, loads                          []time.Duration
	nSteps                                  uint64
	execTime                                time.Duration
	execVLIWs                               uint64
	transNanos                              uint64
	st                                      vmm.Stats // summed counters used below
}

func (s *traceSums) add(jt jobTrace, ma *vmm.Machine) {
	s.jobs++
	s.wall += jt.wall
	s.memNew += jt.memNew
	s.load += jt.load
	s.vmNew += jt.vmNew
	s.steps += jt.steps
	s.close += jt.close
	s.memNews = append(s.memNews, jt.memNew)
	s.loads = append(s.loads, jt.load)
	s.nSteps += jt.nSteps
	s.execTime += jt.execTime
	s.execVLIWs += jt.execVLIWs
	s.transNanos += ma.Trans.Stats.Nanos
	s.st.Exec.BaseInsts += ma.Stats.Exec.BaseInsts
	s.st.InterpInsts += ma.Stats.InterpInsts
	s.st.ChainFollows += ma.Stats.ChainFollows
	s.st.PagesBuilt += ma.Stats.PagesBuilt
	s.st.SMCInvalidations += ma.Stats.SMCInvalidations
	s.st.Tier2Dispatches += ma.Stats.Tier2Dispatches
	s.st.Tier2Deopts += ma.Stats.Tier2Deopts
	s.st.CacheHits += ma.Stats.CacheHits
	s.st.CacheHotHits += ma.Stats.CacheHotHits
}

// unaccountedPct is the share of job wall time outside the child spans.
func (s *traceSums) unaccountedPct() float64 {
	if s.wall == 0 {
		return 0
	}
	covered := s.memNew + s.load + s.vmNew + s.steps + s.close
	return 100 * float64(s.wall-covered) / float64(s.wall)
}

// sumOfLayers is the "sum of layers vs measured" line: mean job wall time
// against the mean of its child spans, flagged when the gap exceeds 15%.
func (s *traceSums) sumOfLayers() string {
	n := float64(max(s.jobs, 1))
	ms := func(d time.Duration) float64 { return float64(d) / n / float64(time.Millisecond) }
	gap := s.unaccountedPct()
	verdict := "ok"
	if gap > 15 || gap < -15 {
		verdict = "GAP"
	}
	return fmt.Sprintf("sum of layers vs measured: job %.4f ms; mem.new %.4f + load %.4f + vmm.new %.4f + steps %.4f + close %.4f = %.4f ms; gap %.2f%% %s",
		ms(s.wall), ms(s.memNew), ms(s.load), ms(s.vmNew), ms(s.steps), ms(s.close),
		ms(s.memNew+s.load+s.vmNew+s.steps+s.close), gap, verdict)
}

// traced is the traced measurement of one workload: the alternating
// passes, then the layer probes.
func traced(workload string, jobs []*job, progs map[string]*program, opt vmm.Options, cfg config, dir string, afterPass func()) (result, error) {
	plain, spanned := newTally(len(jobs)), newTally(len(jobs))
	var sums traceSums
	var steps hist
	n, el := passes(cfg.budget, 2, func(pass int) {
		for i, j := range jobs {
			if pass%2 == 0 {
				wall, ma, out, err := runJob(j, opt, nil)
				plain.record(i, j, wall, ma, out, err, cfg.stderr)
				continue
			}
			jt, ma, out, err := traceJob(j, opt, &steps)
			if spanned.record(i, j, jt.wall, ma, out, err, cfg.stderr) {
				sums.add(jt, ma)
				jt.logSpans(cfg.spans, workload, j)
			}
		}
		afterPass()
	})
	fmt.Fprintf(cfg.stderr, "bench: %d alternating passes over %d jobs, %d traced, in %.1fs\n", n, len(jobs), spanned.attempted, el.Seconds())
	p, err := runProbes(jobs, progs, opt, cfg, dir)
	if err != nil {
		return result{}, err
	}
	insts := sums.st.BaseInsts()
	perJob := func(v uint64) float64 { return float64(v) / float64(max(sums.jobs, 1)) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	overhead := 0.0
	if base := plain.nsPerInst(jobs); base > 0 {
		overhead = 100 * (spanned.nsPerInst(jobs)/base - 1)
	}
	res := result{
		attempted: plain.attempted + spanned.attempted,
		failed:    plain.failed + spanned.failed,
		notes:     []string{sums.sumOfLayers()},
		metrics: []metric{
			{"mem.new_ms", quantile(sums.memNews, 0.5) / float64(time.Millisecond), "ms", false},
			{"mem.load_us", quantile(sums.loads, 0.5) / float64(time.Microsecond), "us", false},
			{"ppc.decode_ns_per_word", p.decodeNsPerWord, "ns", false},
			{"core.translate_ns_per_inst", p.translateNsPerInst, "ns", false},
			{"core.work_per_inst", p.workPerInst, "count", false},
			{"core.code_bytes_per_inst", p.codeBytesPerInst, "B", false},
			{"core.translate_share", float64(sums.transNanos) / float64(max(sums.wall, 1)), "ratio", false},
			{"vliw.encode_us_per_group", p.encodeUs, "us", false},
			{"vliw.decode_us_per_group", p.decodeUs, "us", false},
			{"vliw.clone_us_per_group", p.cloneUs, "us", false},
			{"vmm.steps_per_kinst", 1000 * ratio(sums.nSteps, insts), "count", false},
			{"vmm.step_us_p50", us(steps.quantile(0.5)), "us", false},
			{"vmm.step_us_p99", us(steps.quantile(0.99)), "us", false},
			{"vmm.exec_ns_per_vliw", ratio(uint64(sums.execTime), sums.execVLIWs), "ns", false},
			{"vmm.chain_follows_per_step", ratio(sums.st.ChainFollows, sums.nSteps), "count", false},
			{"vmm.interp_share", ratio(sums.st.InterpInsts, insts), "ratio", false},
			{"vmm.pages_built_per_job", perJob(sums.st.PagesBuilt), "count", false},
			{"vmm.smc_invalidations_per_job", perJob(sums.st.SMCInvalidations), "count", false},
			{"vmm.tier2_dispatch_share", ratio(sums.st.Tier2Dispatches, sums.nSteps), "ratio", false},
			{"vmm.tier2_deopts_per_job", perJob(sums.st.Tier2Deopts), "count", false},
			{"txcache.save_us", p.saveUs, "us", false},
			{"txcache.load_disk_us", p.loadDiskUs, "us", false},
			{"txcache.load_hot_us", p.loadHotUs, "us", false},
			{"txcache.hot_hit_ratio", ratio(sums.st.CacheHotHits, sums.st.CacheHits), "ratio", false},
			{"txcache.stored_bytes_per_page", p.storedBytesPerPage, "B", false},
			{"interp.ns_per_inst", p.interpNsPerInst, "ns", false},
			{"telemetry.overhead_pct", p.telemetryPct, "%", false},
			{"trace.overhead_pct", overhead, "%", false},
			{"trace.unaccounted_pct", sums.unaccountedPct(), "%", false},
		},
	}
	return res, nil
}
