package vmm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
	"daisy/internal/workload"
)

// A group run (vliw.Executor.Exec) follows ExitNext exits inside the
// executor. With a boundary observer attached the same loop runs, with
// the commit hook reporting each VLIW it continues past. These tests pin
// that the two runs are the same run.

// stepMachine builds a machine for w at scale 1, attaches observers and
// starts it with budget max (0: none); it returns the machine and its
// environment.
func stepMachine(t *testing.T, w workload.Workload, max uint64, obs ...Observer) (*Machine, *interp.Env) {
	t.Helper()
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	env := &interp.Env{In: w.Input(1)}
	m := New(mm, env, DefaultOptions())
	for _, o := range obs {
		m.Observe(o)
	}
	m.Start(prog.Entry(), max)
	return m, env
}

// runSteps steps m until it halts or fails.
func runSteps(m *Machine) error {
	for {
		halted, err := m.StepGroup()
		if err != nil || halted {
			return err
		}
	}
}

// TestObservedRunCountsAlike: every workload run with a no-op boundary
// observer ends with the same counters, architected state and output as
// the run without one.
func TestObservedRunCountsAlike(t *testing.T) {
	for _, w := range workload.All() {
		plain, plainEnv := stepMachine(t, w, 0)
		if err := runSteps(plain); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var boundaries uint64
		seen, seenEnv := stepMachine(t, w, 0, OnBoundary(func(uint64) { boundaries++ }))
		if err := runSteps(seen); err != nil {
			t.Fatalf("%s observed: %v", w.Name, err)
		}
		if boundaries < seen.Stats.Exec.VLIWs/2 {
			t.Errorf("%s: %d boundaries for %d committed VLIWs", w.Name, boundaries, seen.Stats.Exec.VLIWs)
		}
		if plain.Stats != seen.Stats {
			t.Errorf("%s: counters differ\n plain    %+v\n observed %+v", w.Name, plain.Stats, seen.Stats)
		}
		if plain.St != seen.St {
			t.Errorf("%s: final state differs\n plain    %+v\n observed %+v", w.Name, plain.St, seen.St)
		}
		if !bytes.Equal(plainEnv.Out, seenEnv.Out) {
			t.Errorf("%s: output differs", w.Name)
		}
	}
}

// TestObservedBudgetAlike: a budget ends a group run between two VLIWs,
// where the run loop's own check would: with and without an observer, at
// the same instruction count and PC.
func TestObservedBudgetAlike(t *testing.T) {
	for _, w := range workload.All() {
		for _, max := range []uint64{1, 7, 100, 1234, 5000} {
			budgetEnd := func(obs ...Observer) string {
				m, _ := stepMachine(t, w, max, obs...)
				err := runSteps(m)
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("%s budget %d: %v, want ErrBudget", w.Name, max, err)
				}
				if got := m.instClock(); got < max {
					t.Errorf("%s budget %d: stopped at %d instructions", w.Name, max, got)
				}
				return fmt.Sprintf("clock %d pc %#x cycles %d: %v", m.instClock(), m.St.PC, m.Stats.Cycles, err)
			}
			plain := budgetEnd()
			seen := budgetEnd(OnBoundary(func(uint64) {}))
			if plain != seen {
				t.Errorf("%s budget %d: %s without an observer, %s with one", w.Name, max, plain, seen)
			}
		}
	}
}

// smcProbe is a boundary observer that marks the running group's page
// modified at every 97th boundary, and records whether each such page was
// drained (EvSMCInvalidate) before the next VLIW was fetched.
type smcProbe struct {
	NopObserver
	m          *Machine
	n          int
	injected   bool // a page was marked and is not drained yet
	midRun     int  // injections between two VLIWs of a group run
	undrained  int  // VLIWs fetched while a marked page was not drained
	injections int
}

func (o *smcProbe) Boundary(uint64) {
	if o.n++; o.n%97 != 0 {
		return
	}
	g := o.m.CurrentGroup()
	steps := o.m.Exec.Steps
	if g == nil || len(steps) == 0 {
		return
	}
	nodes := vliw.StepNodes(nil, g, steps[len(steps)-1])
	if nodes[len(nodes)-1].Exit.Kind == vliw.ExitNext {
		o.midRun++
	}
	o.m.InjectSMC(g.Entry)
	o.injected = true
	o.injections++
}

func (o *smcProbe) Event(kind telemetry.EventKind, _ uint32, _ uint64) {
	if kind == telemetry.EvSMCInvalidate {
		o.injected = false
	}
}

// TestBoundarySMCDrainsBeforeNextVLIW: a boundary observer that marks a
// page modified stops the group run, so the page is invalidated before the
// next VLIW runs, and the run still computes what an unobserved run does.
func TestBoundarySMCDrainsBeforeNextVLIW(t *testing.T) {
	for _, name := range []string{"wc", "c_sieve"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, plainEnv := stepMachine(t, w, 0)
		if err := runSteps(plain); err != nil {
			t.Fatal(err)
		}
		probe := &smcProbe{}
		m, env := stepMachine(t, w, 0, probe)
		probe.m = m
		m.Exec.OnFetch = func(*vliw.VLIW) {
			if probe.injected {
				probe.undrained++
			}
		}
		if err := runSteps(m); err != nil {
			t.Fatal(err)
		}
		if probe.midRun == 0 {
			t.Fatalf("%s: none of %d injections came between two VLIWs of a group run", name, probe.injections)
		}
		if probe.undrained != 0 {
			t.Errorf("%s: %d VLIWs ran before an injected page was drained (%d injections, %d mid-run)",
				name, probe.undrained, probe.injections, probe.midRun)
		}
		if m.Stats.SMCInvalidations == 0 {
			t.Errorf("%s: no SMC invalidation", name)
		}
		if m.St != plain.St || !bytes.Equal(env.Out, plainEnv.Out) {
			t.Errorf("%s: the injected run ends in another state or output", name)
		}
	}
}
