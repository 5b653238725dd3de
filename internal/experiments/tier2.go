package experiments

// The tier-2 optimizing-retranslation evaluation (ISSUE 8): the same
// workload on the same machine, with and without the profile→retranslate
// loop, as dispatch cycles per base instruction (the unit-latency VLIW
// machine retires one tree instruction per cycle, so VLIWs/inst is
// cycles/inst). These are deterministic modeled counts, not host
// wall-clock, so the rows are stable run to run.

import (
	"fmt"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/stats"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// Tier2M is one tier-2-vs-tier-1 measurement of a workload.
type Tier2M struct {
	Workload  string
	Insts     uint64 // base instructions (identical across tiers, checked)
	T1VLIWs   uint64 // dispatch cycles, tier-1 chaining only
	T2VLIWs   uint64 // dispatch cycles with tier-2 retranslation on
	Promoted  uint64
	Deopts    uint64
	Demotions uint64
}

// MeasureTier2 runs a workload twice — tier-1 only, then with optimizing
// retranslation enabled — and cross-checks output and instruction counts
// before reporting the cycle counts. A divergence is an error, not a row.
func MeasureTier2(name string, scale int) (*Tier2M, error) {
	run := func(tier2 bool) (*vmm.Machine, uint64, error) {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		prog, err := w.Build()
		if err != nil {
			return nil, 0, err
		}
		mm := mem.New(MemSize)
		if err := prog.Load(mm); err != nil {
			return nil, 0, err
		}
		env := &interp.Env{In: w.Input(scale)}
		opt := vmm.DefaultOptions()
		if tier2 {
			opt.Tier2 = true
			opt.Tier2Threshold = 2
		}
		ma, err := vmm.NewMachine(mm, env, opt)
		if err != nil {
			return nil, 0, err
		}
		defer ma.Close()
		if err := ma.Run(prog.Entry(), 4_000_000_000); err != nil {
			return nil, 0, fmt.Errorf("experiments: tier2 %s: %w", name, err)
		}
		return ma, OutputFNV(env.Out), nil
	}
	m1, d1, err := run(false)
	if err != nil {
		return nil, err
	}
	m2, d2, err := run(true)
	if err != nil {
		return nil, err
	}
	if d1 != d2 {
		return nil, fmt.Errorf("experiments: tier2 %s: output diverged from tier-1", name)
	}
	if m1.Stats.BaseInsts() != m2.Stats.BaseInsts() {
		return nil, fmt.Errorf("experiments: tier2 %s: instruction counts diverged (%d vs %d)",
			name, m1.Stats.BaseInsts(), m2.Stats.BaseInsts())
	}
	return &Tier2M{
		Workload:  name,
		Insts:     m1.Stats.BaseInsts(),
		T1VLIWs:   m1.Stats.Exec.VLIWs,
		T2VLIWs:   m2.Stats.Exec.VLIWs,
		Promoted:  m2.Stats.Tier2Promotions,
		Deopts:    m2.Stats.Tier2Deopts,
		Demotions: m2.Stats.Tier2Demotions,
	}, nil
}

// Tier2Table measures every workload with and without tier-2 and reports
// dispatch cycles per instruction for both, the reduction, and the deopt
// traffic (the price of the deferred-commit discipline).
func (r *Runner) Tier2Table() (*stats.Table, error) {
	t := stats.NewTable(
		fmt.Sprintf("Tier-2 retranslation: dispatch cycles per base instruction (scale %d)", r.Scale),
		"Program", "t1 cyc/ins", "t2 cyc/ins", "reduction %", "promoted", "deopts", "demoted")
	var reds []float64
	for _, name := range Names() {
		m, err := MeasureTier2(name, r.Scale)
		if err != nil {
			return nil, err
		}
		c1 := float64(m.T1VLIWs) / float64(m.Insts)
		c2 := float64(m.T2VLIWs) / float64(m.Insts)
		red := 100 * (1 - c2/c1)
		reds = append(reds, red)
		t.Row(name, c1, c2, red, m.Promoted, m.Deopts, m.Demotions)
	}
	t.Row("(mean)", "", "", stats.Mean(reds), "", "", "")
	return t, nil
}
