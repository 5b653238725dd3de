package vmm

// Options validation. New keeps its historical trusting signature (the
// in-package tests construct machines by the hundred and rely on zero
// values being normalized), but every non-test caller — the daisy
// facade, the commands and examples, the chaos, golden, experiment and
// traditional-compiler harnesses, and the benchmark — goes through
// NewMachine, which rejects configurations that would otherwise be
// silently normalized into something the caller did not ask for, or
// worse, misbehave at runtime.

import (
	"fmt"
	"time"

	"daisy/internal/interp"
	"daisy/internal/mem"
)

// Validate checks the options for values that cannot mean anything the
// caller intended. Zero values are fine everywhere (they select the
// documented defaults); what is rejected is explicit nonsense — negative
// pool sizes, budgets, or thresholds — and inconsistent combinations,
// like a quarantine policy with no window to count events in, or a
// persistent cache attached to a mode that can never use it.
func (o *Options) Validate() error {
	if o.MaxPages < 0 {
		return fmt.Errorf("vmm: MaxPages %d is negative (0 means unlimited)", o.MaxPages)
	}
	if o.InterpBudget < 0 {
		return fmt.Errorf("vmm: InterpBudget %d is negative (0 selects the default of 64)", o.InterpBudget)
	}
	if o.AsyncWorkers < 0 {
		return fmt.Errorf("vmm: AsyncWorkers %d is negative (0 selects the default of 2)", o.AsyncWorkers)
	}
	if o.AsyncQueueDepth < 0 {
		return fmt.Errorf("vmm: AsyncQueueDepth %d is negative (0 selects the default of 8)", o.AsyncQueueDepth)
	}
	if o.HotThreshold < 0 {
		return fmt.Errorf("vmm: HotThreshold %d is negative (0 selects the default of 2)", o.HotThreshold)
	}
	if o.AsyncDeadline < 0 {
		return fmt.Errorf("vmm: AsyncDeadline %s is negative (0 selects the default of 2s)", o.AsyncDeadline)
	}
	if o.QuarantineThreshold < 0 {
		return fmt.Errorf("vmm: QuarantineThreshold %d is negative (0 disables the quarantine policy)", o.QuarantineThreshold)
	}
	if o.QuarantineThreshold > 0 && o.QuarantineWindow == 0 {
		return fmt.Errorf("vmm: QuarantineThreshold %d needs a non-zero QuarantineWindow to count events in", o.QuarantineThreshold)
	}
	if o.AsyncTranslate && o.Interpretive {
		return fmt.Errorf("vmm: AsyncTranslate is meaningless with Interpretive compilation (trace-guided translation is inherently inline)")
	}
	if o.Cache != nil && o.Interpretive {
		return fmt.Errorf("vmm: a persistent Cache cannot serve Interpretive mode (trace-guided schedules are not content-addressable); detach one or the other")
	}
	if !o.AsyncTranslate {
		// Async knobs set without the pipeline are almost certainly a
		// misconfiguration the caller would want to know about.
		if o.AsyncWorkers > 0 || o.AsyncQueueDepth > 0 || o.AsyncDeadline > 0 {
			return fmt.Errorf("vmm: async pipeline options (workers=%d, depth=%d, deadline=%s) require AsyncTranslate",
				o.AsyncWorkers, o.AsyncQueueDepth, o.AsyncDeadline)
		}
		if o.HotThreshold > 0 {
			return fmt.Errorf("vmm: HotThreshold %d requires AsyncTranslate (the synchronous machine translates on first touch)", o.HotThreshold)
		}
	}
	if o.AsyncDeadline > 0 && o.AsyncDeadline < time.Millisecond {
		return fmt.Errorf("vmm: AsyncDeadline %s is below 1ms; the watchdog would abandon every translation before it could finish", o.AsyncDeadline)
	}
	if o.Tier2Threshold < 0 {
		return fmt.Errorf("vmm: Tier2Threshold %d is negative (0 selects the default of 8)", o.Tier2Threshold)
	}
	if !o.Tier2 && o.Tier2Threshold > 0 {
		return fmt.Errorf("vmm: Tier2Threshold %d requires Tier2", o.Tier2Threshold)
	}
	if o.Tier2 && o.Interpretive {
		return fmt.Errorf("vmm: Tier2 is incompatible with Interpretive compilation (trace-guided pages have no stable tier-1 translation to deoptimize to)")
	}
	if o.Tier2 && !o.Trans.PreciseExceptions {
		return fmt.Errorf("vmm: Tier2 requires precise tier-1 translation (Trans.PreciseExceptions); an imprecise tier-1 group is not a valid deoptimization target")
	}
	return nil
}

// NewMachine is the validated constructor: New with the options checked
// first. Production callers use it; tests that construct throwaway
// machines from known-good literals may keep calling New directly.
func NewMachine(m *mem.Memory, env *interp.Env, opt Options) (*Machine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return New(m, env, opt), nil
}
