// Package chaos is the fault-injection and differential-validation
// harness for the DAISY virtual machine monitor. The paper's central
// claim is 100% architectural compatibility: the translated machine must
// be indistinguishable from the base architecture no matter what the
// recovery machinery — SMC invalidation (§3.2), cast-out, load-verify
// alias re-execution and precise-exception rollback (§3.5) — is put
// through. This package tests the claim adversarially:
//
//   - Seeded, deterministic injectors (inject.go) force the rare paths
//     to run constantly: spurious aliases, storage faults in translated
//     code, phantom self-modification events, cast-out storms on a
//     one-page translation pool, and interpreter-budget starvation.
//
//   - A lockstep runner (lockstep.go) executes the machine and the
//     reference interpreter side by side, comparing full architected
//     state, dirty memory and output at every precise boundary; a
//     divergence is bisected to the first diverging committed VLIW
//     boundary and attributed to the base instruction that produced the
//     wrong value.
//
// Because injectors draw from a seeded source and the machine is
// deterministic, every failure is replayable from (workload, injector,
// seed) — the cmd/daisy-chaos tool re-runs one.
package chaos

import (
	"fmt"
	"math/rand"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// defaultMemSize matches the workload suite's memory image.
const defaultMemSize = 8 << 20

// defaultMaxInsts bounds a run that an injector has slowed to a crawl;
// a truncated run still validates every boundary it reached.
const defaultMaxInsts = 50_000_000

// Scenario is one fully reproducible chaos run: a workload, an injector
// and a seed determine every dynamic event.
type Scenario struct {
	Workload workload.Workload
	Scale    int   // input scale (<=0: 1)
	Seed     int64 // seeds the injector's random source
	Injector Injector
	// Options are the machine options before the injector tunes them
	// (nil: DefaultOptions, which enables quarantine).
	Options *vmm.Options
	// MaxInsts truncates the run (0: defaultMaxInsts).
	MaxInsts uint64
	// Prepare, if non-nil, runs on every machine the scenario builds —
	// the outer lockstep run and both bisection replays — so deliberate
	// perturbations (the mutation tests' planted translator bugs) are
	// reproduced in the replay exactly like injector faults.
	Prepare func(m *vmm.Machine)
	// Telemetry, if non-nil, is attached to every machine the scenario
	// builds, so one instance accumulates metrics and events across the
	// lockstep run and any bisection replays.
	Telemetry *telemetry.Telemetry
}

// Divergence describes a detected compatibility violation.
type Divergence struct {
	// Window is the coarse localization from the lockstep run: the last
	// agreeing and the first disagreeing synchronization point, in
	// completed base instructions.
	Window [2]uint64
	// Boundary is the bisected first diverging committed VLIW boundary.
	Boundary uint64
	// BadPC is the base instruction the divergence was attributed to;
	// BadPCOK reports whether the attribution is exact.
	BadPC   uint32
	BadPCOK bool
	// RegDiff lists the differing registers (reference vs machine).
	RegDiff string
	// MemDiff/MemAddr identify a memory divergence.
	MemDiff bool
	MemAddr uint32
	// GroupDump is the offending translated group, when identified.
	GroupDump string
	// Detail is a human-readable description.
	Detail string
}

func (d *Divergence) String() string {
	s := d.Detail
	if d.Boundary != 0 {
		s += fmt.Sprintf("; first diverging boundary at inst %d", d.Boundary)
	}
	if d.BadPCOK {
		s += fmt.Sprintf("; attributed to base instruction %#x", d.BadPC)
	}
	return s
}

// Report summarizes one chaos run.
type Report struct {
	Halted     bool // the program ran to a clean halt on both sides
	Truncated  bool // MaxInsts reached with the sides still in agreement
	Insts      uint64
	Stats      vmm.Stats
	Output     []byte      // the machine's output stream (oracle checks)
	Compares   uint64      // lockstep comparisons: one per precise boundary and one per StepGroup return
	Divergence *Divergence // nil: 100% architectural compatibility held
}

// DefaultOptions returns the machine options chaos runs use: the paper's
// headline configuration plus graceful degradation, so a page the
// injectors keep wounding quarantines to interpret-only mode instead of
// thrashing the translator.
func DefaultOptions() vmm.Options {
	o := vmm.DefaultOptions()
	o.QuarantineThreshold = 8
	o.QuarantineWindow = 20_000
	o.QuarantineBackoff = 2_000
	return o
}

// Run executes one scenario under lockstep validation. A non-nil
// Report.Divergence means the machine broke architectural compatibility;
// it has been bisected to the first diverging boundary. The error return
// is for infrastructure problems (assembly failure, machine errors), not
// divergence.
func Run(sc Scenario) (*Report, error) {
	rep, div, err := lockstep(&sc)
	if err != nil {
		return nil, err
	}
	if div != nil {
		bisect(&sc, div)
		rep.Divergence = div
	}
	return rep, nil
}

func (sc *Scenario) scale() int {
	if sc.Scale <= 0 {
		return 1
	}
	return sc.Scale
}

func (sc *Scenario) maxInsts() uint64 {
	if sc.MaxInsts == 0 {
		return defaultMaxInsts
	}
	return sc.MaxInsts
}

// build constructs a fresh (machine, reference) pair for the scenario.
// Everything about the pair is a deterministic function of the scenario,
// which is what makes divergences replayable for bisection.
func (sc *Scenario) build() (*vmm.Machine, *interp.Interp, uint32, error) {
	prog, err := sc.Workload.Build()
	if err != nil {
		return nil, nil, 0, err
	}
	in := sc.Workload.Input(sc.scale())
	entry := prog.Entry()

	rm := mem.New(defaultMemSize)
	if err := prog.Load(rm); err != nil {
		return nil, nil, 0, err
	}
	ref := interp.New(rm, &interp.Env{In: in}, entry)

	opt := DefaultOptions()
	if sc.Options != nil {
		opt = *sc.Options
	}
	if sc.Injector != nil {
		sc.Injector.Tune(&opt)
	}
	mm := mem.New(defaultMemSize)
	if err := prog.Load(mm); err != nil {
		return nil, nil, 0, err
	}
	ma, err := vmm.NewMachine(mm, &interp.Env{In: in}, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	if sc.Telemetry != nil {
		ma.AttachTelemetry(sc.Telemetry)
	}
	if sc.Injector != nil {
		sc.Injector.Arm(ma, rand.New(rand.NewSource(sc.Seed)))
	}
	if sc.Prepare != nil {
		sc.Prepare(ma)
	}
	return ma, ref, entry, nil
}
