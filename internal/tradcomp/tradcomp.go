// Package tradcomp is the "traditional VLIW compiler" baseline of
// Table 5.2: the same list scheduler as internal/core, freed from the
// constraints dynamic compilation imposes on DAISY.
//
// Concretely the baseline gets: whole-program scope (no page-boundary
// stopping rule), profile-directed branch probabilities from a prior
// training run, far larger window and unrolling budgets, and — the big
// one — no per-instruction in-order commit copies: results are committed
// only at trace exits, because a static compiler is allowed imprecise
// exceptions (Appendix B). Load speculation stays on: imprecise-mode
// faults recover at group granularity via the VMM's checkpoint+journal
// (the reproduction's resume_vliw equivalent).
package tradcomp

import (
	"errors"
	"fmt"

	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/tradcomp/sched"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
)

// Result reports an ILP measurement.
type Result struct {
	ILP       float64
	VLIWs     uint64
	BaseInsts uint64
	CodeBytes uint64
}

// Profile holds per-branch taken statistics from a training run.
type Profile struct {
	taken map[uint32][2]uint64 // [notTaken, taken]
}

// Prob returns the measured taken probability of the branch at pc.
func (p *Profile) Prob(pc uint32) (float64, bool) {
	c, ok := p.taken[pc]
	if !ok || c[0]+c[1] == 0 {
		return 0, false
	}
	return float64(c[1]) / float64(c[0]+c[1]), true
}

// Train interprets the program once, collecting the branch profile.
func Train(prog *asm.Program, input []byte, memSize uint32) (*Profile, error) {
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return nil, err
	}
	pr := &Profile{taken: make(map[uint32][2]uint64)}
	ip := interp.New(m, &interp.Env{In: input}, prog.Entry())
	ip.OnBranch = func(pc uint32, taken bool) {
		c := pr.taken[pc]
		if taken {
			c[1]++
		} else {
			c[0]++
		}
		pr.taken[pc] = c
	}
	if err := ip.Run(2_000_000_000); !errors.Is(err, interp.ErrHalt) {
		return nil, fmt.Errorf("tradcomp: training run: %w", err)
	}
	return pr, nil
}

// Options returns the baseline's translator options for a machine
// configuration and profile, derived through the shared scheduling recipe
// (sched.Baseline) so the VMM's optimizing tier and this static baseline
// cannot drift apart.
func Options(cfg vliw.Config, pr *Profile) core.Options {
	base := core.DefaultOptions()
	base.Config = cfg
	var prob func(pc uint32) (float64, bool)
	if pr != nil {
		prob = pr.Prob
	}
	return sched.Baseline().Derive(base, prob)
}

// Measure runs the program compiled by the baseline and reports its ILP;
// output correctness is still verified against the interpreter by the
// package tests.
func Measure(prog *asm.Program, input []byte, cfg vliw.Config, memSize uint32) (Result, error) {
	pr, err := Train(prog, input, memSize)
	if err != nil {
		return Result{}, err
	}
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return Result{}, err
	}
	opt := vmm.Options{Trans: Options(cfg, pr), InterpBudget: 64, AdaptiveSpeculation: true}
	ma, err := vmm.NewMachine(m, &interp.Env{In: input}, opt)
	if err != nil {
		return Result{}, err
	}
	if err := ma.Run(prog.Entry(), 2_000_000_000); err != nil {
		return Result{}, fmt.Errorf("tradcomp: measured run: %w", err)
	}
	return Result{
		ILP:       ma.Stats.ILP(),
		VLIWs:     ma.Stats.Exec.VLIWs,
		BaseInsts: ma.Stats.BaseInsts(),
		CodeBytes: ma.Trans.Stats.CodeBytes,
	}, nil
}
