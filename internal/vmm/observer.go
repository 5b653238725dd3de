package vmm

import (
	"time"

	"daisy/internal/core"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
)

// Observer watches a Machine at its precise points. The machine calls the
// observers in its slot (Observe) from exactly one place per method,
// on the machine goroutine, and reads nothing back: an observer may act on
// the machine only through its exported methods, as the chaos injectors
// do. Embed NopObserver to implement only the methods you need.
//
// The seams that inject faults — FaultTranslation, Exec.FaultHook and
// Exec.AliasHook — stay separate: the machine acts on what they return.
type Observer interface {
	// DispatchStart is called at the top of every dispatch with the PC about
	// to be resolved to a group, before pending invalidations are drained:
	// a page invalidated here is never entered. Every dispatch calls it,
	// including one that stays in the run loop after a serviced system
	// call or a same-page indirect branch (a hop); there the registers are
	// in Exec.RF, and St's copy of them is refreshed only when StepGroup
	// returns.
	DispatchStart(pc uint32)

	// GroupEnter is called each time execution enters g — by a dispatch
	// (one that stays in the run loop included), a chain follow or an
	// intra-page jump — just before the machine switches to it, so
	// CurrentGroup and the executor's step log still describe the group
	// being left.
	GroupEnter(g *vliw.Group)

	// Boundary is called at every precise VLIW boundary with the total of
	// completed base instructions; Exec.RF then holds the exact architected
	// registers (the Stats.Exec mirror is refreshed only when StepGroup
	// returns).
	// Boundaries exist only in precise-exception mode: after each
	// committed VLIW, except mid-path inside a tier-2 group, and after a
	// system call once it has been serviced. They do not depend on how
	// often StepGroup returns, which makes them the points a differential
	// checker compares at. Between two VLIWs of a group run the executor
	// calls Boundary from inside its run (vliw.Executor.OnCommit); a page
	// the observer marks modified there (InjectSMC) stops the run, so the
	// page is invalidated before the next VLIW runs.
	Boundary(completed uint64)

	// Translated is called when a translation is installed, before any of
	// its code runs: a page build, an entry extension, an async publish, a
	// persistent-cache install or a tier-2 retranslation. work is the
	// translator effort it cost (zero for a cache install); lat is an async
	// translation's trip through the worker pool (zero otherwise).
	Translated(pt *core.PageTranslation, work core.Stats, lat AsyncLatency)

	// Fault is called for each recovered exception (not alias or SMC
	// rollbacks) with the precise base address the §3.5 scan found. The
	// scan runs only when an observer is attached. f is the executor's
	// and stays valid only until its next Exec: copy it to keep it.
	Fault(f *vliw.Fault, scanPC uint32)

	// Event is called for each rare machine event (telemetry.EventKind):
	// translation, chaining, recovery, invalidation, quarantine, the async
	// pipeline, the persistent cache and tier-2.
	Event(kind telemetry.EventKind, pc uint32, arg uint64)
}

// AsyncLatency is one async translation's trip through the worker pool, on
// the host clock.
type AsyncLatency struct {
	QueueWait    time.Duration // enqueue -> worker pickup
	Translate    time.Duration // worker pickup -> result ready
	PublishDelay time.Duration // result ready -> publish at a precise boundary
}

// NopObserver implements every Observer method as a no-op.
type NopObserver struct{}

func (NopObserver) DispatchStart(uint32)                                       {}
func (NopObserver) GroupEnter(*vliw.Group)                                     {}
func (NopObserver) Boundary(uint64)                                            {}
func (NopObserver) Translated(*core.PageTranslation, core.Stats, AsyncLatency) {}
func (NopObserver) Fault(*vliw.Fault, uint32)                                  {}
func (NopObserver) Event(telemetry.EventKind, uint32, uint64)                  {}

// OnBoundary returns an Observer that calls fn at every precise VLIW
// boundary (Observer.Boundary) and ignores everything else: the seam a
// differential checker or a per-boundary state digest attaches.
func OnBoundary(fn func(completed uint64)) Observer { return boundaryFunc{fn: fn} }

type boundaryFunc struct {
	NopObserver
	fn func(completed uint64)
}

func (o boundaryFunc) Boundary(completed uint64) { o.fn(completed) }

// Observe adds o to the machine's observer slot, after any observer already
// there; several share the slot and are called in attach order. A machine
// with no observer pays one length check per observation point.
func (m *Machine) Observe(o Observer) {
	m.obs = append(m.obs, o)
	if m.commitHook == nil {
		m.commitHook = m.commitBoundary
	}
}

// enterGroup is the one group-entry sequence (dispatch, chain follow and
// intra-page jump): observers see the switch first, then the machine
// makes g current, restarts the executor's step log and checkpoints the
// entry. It returns the group's first VLIW.
func (m *Machine) enterGroup(g *vliw.Group) *vliw.VLIW {
	for _, o := range m.obs {
		o.GroupEnter(g)
	}
	m.curGroup = g
	m.Exec.ResetPath()
	m.checkpoint(g.Entry)
	return g.VLIWs[0]
}

// commitBoundary is the executor's commit hook while observers watch a
// precise group run: it reports the boundary after a committed VLIW the
// run would continue past, and stops the run when an observer marked a
// page modified (InjectSMC), so the drain comes before the next VLIW.
func (m *Machine) commitBoundary() bool {
	m.syncCycles()
	m.boundary()
	return len(m.dirty) != 0
}

// syncCycles brings Stats.Cycles, one per attempted VLIW, up to the
// executor's count: every VLIW it committed or rolled back since the last
// sync.
func (m *Machine) syncCycles() {
	c := m.Exec.Stats.VLIWs + m.Exec.Stats.Rollbacks
	m.Stats.Cycles += c - m.cycleMark
	m.cycleMark = c
}

// boundary reports a precise VLIW boundary; callers check for observers
// first.
func (m *Machine) boundary() {
	completed := m.instClock()
	for _, o := range m.obs {
		o.Boundary(completed)
	}
}

// translated reports an installed translation.
func (m *Machine) translated(pt *core.PageTranslation, work core.Stats, lat AsyncLatency) {
	for _, o := range m.obs {
		o.Translated(pt, work, lat)
	}
}

// faulted reports a recovered exception with its precise base address. A
// tier-2 fault is located by reconstruction, which reads the rename
// registers, so it must run before the checkpoint restore.
func (m *Machine) faulted(f *vliw.Fault) {
	if len(m.obs) == 0 {
		return
	}
	var pc uint32
	if g := m.curGroup; g != nil && g.TierOf() >= 2 {
		pc, _, _ = m.ReconstructFault(f)
	} else {
		pc, _ = m.ScanFault(f)
	}
	for _, o := range m.obs {
		o.Fault(f, pc)
	}
}

// emit reports one rare event at pc.
func (m *Machine) emit(kind telemetry.EventKind, pc uint32, arg uint64) {
	for _, o := range m.obs {
		o.Event(kind, pc, arg)
	}
}
