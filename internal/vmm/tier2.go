package vmm

// The optimizing retranslation tier. DAISY's one-pass translator (tier 1)
// keeps translation cheap enough to pay on first touch; this file closes
// the profile -> retranslate loop on top of it: a page that stays hot and
// stable is retranslated at tier-2 effort — the traditional compiler's
// scheduling recipe (sched.Tier2: a 512-instruction window, deeper
// join/unroll budgets, deferred commits with dead-commit elimination)
// guided by branch probabilities measured at promotion time — forming
// superblocks along the hot path across the original group boundaries.
//
// The deal tier 2 strikes is speed for precision: a deferred-commit group
// is precise only at its entry and its path ends. Anything that needs a
// precise state mid-group — an exception, an alias verify failure, a store
// into translated code, a chaos-forced deopt — deoptimizes: the group's
// journaled stores are undone, the register file returns to the group-entry
// checkpoint, and the next dispatch of the page runs the *retained tier-1
// translation* (never a fresh inline translation, and never the
// interpreter: tier 1 is always still installed, because maybePromote
// requires it and invalidation tears both tiers down together).
//
// Policy state is per page: promotion needs Tier2Threshold dispatches since
// the last invalidation (or backoff reset); repeated deopts or hot-path
// departures demote the tier-2 translation with exponential backoff before
// promotion is retried. All clocks are the machine's deterministic
// instruction clock, so identical runs promote, deopt, and demote
// identically.

import (
	"daisy/internal/core"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
)

// t2State is one page's position in the tier-2 policy.
type t2State struct {
	dispatches int    // dispatches into the tier-1 translation since reset
	departures int    // leaky bucket of hot-path departures
	deopts     int    // deopts since promotion
	notBefore  uint64 // no promotion until the instruction clock reaches this
	backoff    uint64 // current demotion backoff span; doubles per demotion
	skipOnce   bool   // next dispatch uses tier 1 (set by a deopt)
	plantDeopt bool   // chaos: force a deopt on the next tier-2 dispatch
}

// Tier-2 policy constants. Limits are deliberately small: tier 2 is an
// optimization, so the honest reaction to a translation that keeps
// deoptimizing (or whose profiled hot path execution keeps leaving) is to
// retire it and fall back to the always-correct tier 1.
const (
	tier2DeoptLimit     = 4      // deopts before the translation is demoted
	tier2DepartureLimit = 8      // net path departures before demotion
	tier2BackoffBase    = 50_000 // first demotion backoff (base insts)
	tier2ProfileMul     = 8      // profiling budget, in tier-2 windows
)

// tier2Threshold returns the promotion dispatch threshold (default 8).
func (m *Machine) tier2Threshold() int {
	if m.Opt.Tier2Threshold > 0 {
		return m.Opt.Tier2Threshold
	}
	return 8
}

// tier2Dispatch is the tier-selection point: every dispatch in tier-2 mode
// funnels through it (chaining is disabled) with the resolved tier-1 group
// in hand, so the tier-1 translation — the deopt target — provably exists
// whenever a tier-2 group is preferred over it.
func (m *Machine) tier2Dispatch(g1 *vliw.Group) *vliw.Group {
	base := m.St.PC &^ (m.Trans.Opt.PageSize - 1)
	st := m.t2[base]
	if st == nil {
		st = &t2State{}
		m.t2[base] = st
	}
	pt2, ok := m.tier2[base]
	if !ok {
		m.maybePromote(base, st)
		return g1
	}
	if st.skipOnce {
		// The dispatch immediately after a deopt must make progress on
		// tier 1, or a deterministic tier-2 fault would redispatch forever.
		st.skipOnce = false
		return g1
	}
	g2, ok := pt2.Groups[m.St.PC]
	if !ok {
		// Hot-path departure: execution reached an address the profiled
		// tier-2 translation never compiled (a cold branch side, a return
		// landing). Tier 1 carries it; persistent departure means the
		// profile no longer describes the program, so demote.
		st.departures++
		m.Stats.Tier2PathDepartures++
		if st.departures >= tier2DepartureLimit {
			m.demoteTier2(base)
		}
		return g1
	}
	if st.plantDeopt {
		// Chaos-planted deopt (tier2-deopt-storm): take the full deopt
		// accounting path without executing the group, exactly as if its
		// first VLIW had faulted — nothing has run, so the current state
		// already is the checkpoint.
		st.plantDeopt = false
		m.noteDeopt(base)
		m.emit(telemetry.EvTier2Deopt, m.St.PC, 0)
		return g1
	}
	m.Stats.Tier2Dispatches++
	if st.departures > 0 {
		st.departures-- // leaky bucket: successful tier-2 dispatches forgive
	}
	return g2
}

// maybePromote counts one tier-1 dispatch into the page and retranslates
// at tier-2 effort once the page is hot (Tier2Threshold dispatches) and any
// demotion backoff has expired. Promotion is inline on every machine: the
// async pipeline carries tier-1 demand translation only.
func (m *Machine) maybePromote(base uint32, st *t2State) {
	st.dispatches++
	if st.dispatches < m.tier2Threshold() || m.instClock() < st.notBefore {
		return
	}
	if m.pages[base] == nil {
		return // no tier-1 translation to deoptimize to
	}
	m.promoteSync(base, m.St.PC, st)
}

// promoteSync profiles and retranslates the page inline. Promotion
// failures — a planted or real translator panic, a translation error —
// cost only the attempt: the page keeps running tier 1 and promotion backs
// off, because tier 2 is an optimization, not a service the guest depends
// on.
func (m *Machine) promoteSync(base, entry uint32, st *t2State) {
	plan := m.plantedFault(base)
	profile := m.tier2Profile(entry)
	if plan != nil {
		m.applyTier2Plan(plan, profile, st)
		if plan.Panic {
			m.notePanic(base)
		}
		if plan.Panic || plan.Err != nil {
			m.tier2Backoff(base)
			return
		}
	}
	pt, work, err := m.translateTier2(base, entry, profile)
	if err != nil {
		m.tier2Backoff(base)
		return
	}
	m.installTier2(base, pt, work)
}

// applyTier2Plan executes the machine-side half of a chaos plan at
// promotion time: a stale profile inverts every measured branch direction
// (tier 2 then compiles exactly the cold path), and a planted deopt fires
// on the first tier-2 dispatch.
func (m *Machine) applyTier2Plan(plan *TranslationFault, profile map[uint32][2]uint64, st *t2State) {
	if plan.StaleProfile {
		for pc, c := range profile {
			profile[pc] = [2]uint64{c[1], c[0]}
		}
		m.Stats.InjectedFaults++
	}
	if plan.Deopt {
		st.plantDeopt = true
		m.Stats.InjectedFaults++
	}
}

// tier2Profile interprets ahead from entry (the recordTrace pattern of
// Chapter 6), counting the direction of every conditional branch. The
// counts become the ProfileProb feedback that steers tier-2 superblock
// formation down the measured hot path.
func (m *Machine) tier2Profile(entry uint32) map[uint32][2]uint64 {
	counts := make(map[uint32][2]uint64)
	budget := uint64(tier2ProfileMul * m.t2sched.Derive(m.Trans.Opt, nil).Window)
	m.Stats.Tier2ProfileInsts += m.interpretAhead(entry, budget, func(pc uint32, taken bool) {
		c := counts[pc]
		if taken {
			c[1]++
		} else {
			c[0]++
		}
		counts[pc] = c
	})
	return counts
}

// profileProb wraps promotion-time branch counts as translator feedback.
func profileProb(counts map[uint32][2]uint64) func(pc uint32) (float64, bool) {
	if len(counts) == 0 {
		return nil
	}
	return func(pc uint32) (float64, bool) {
		c, ok := counts[pc]
		if !ok || c[0]+c[1] == 0 {
			return 0, false
		}
		return float64(c[1]) / float64(c[0]+c[1]), true
	}
}

// translateTier2 runs the optimizing translation behind the same recover
// barrier as every other translator invocation. It reuses the machine's
// tier-2 translator, so promotions after the first translate from a warm
// arena, and sets the promotion's options on it; only this promotion's
// stats delta reaches m.Trans.Stats. The translator is taken out of the
// machine while it runs and put back only after a successful translation,
// so an error or a panic drops it, half-scheduled state and all, and the
// next promotion builds a fresh one. (A deferred drop on error would run
// before guardTranslate recovers, and so miss panics.)
func (m *Machine) translateTier2(base, entry uint32, profile map[uint32][2]uint64) (pt *core.PageTranslation, work core.Stats, err error) {
	defer guardTranslate(&err)
	opt := m.t2sched.Derive(m.Trans.Opt, profileProb(profile))
	if m.inhibit[base] {
		opt.SpeculateLoads = false // the page already proved alias-heavy
	}
	t := m.t2trans
	m.t2trans = nil
	if t == nil {
		t = core.New(m.Mem, opt)
	} else {
		t.SetOptions(opt)
	}
	before := t.Stats
	pt, err = t.TranslatePage(entry)
	if err != nil {
		return nil, work, err
	}
	work = t.Stats.Sub(before)
	m.Trans.Stats = m.Trans.Stats.Add(work)
	m.t2trans = t
	return pt, work, nil
}

// installTier2 publishes a tier-2 translation. The page's tier-1
// translation, the deoptimization target, is live: maybePromote checked
// it, and the inline promotion in between invalidates nothing (the
// profiler's scratch view raises no code-modification interrupt).
func (m *Machine) installTier2(base uint32, pt *core.PageTranslation, work core.Stats) {
	m.tier2[base] = pt
	if st := m.t2[base]; st != nil {
		st.deopts = 0
		st.departures = 0
	}
	m.Stats.Tier2Promotions++
	m.emit(telemetry.EvTier2Promote, base, 0)
	m.translated(pt, work, AsyncLatency{})
}

// demoteTier2 retires a tier-2 translation that keeps deoptimizing or
// departing its hot path: the page falls back to its (still installed)
// tier-1 translation, and promotion backs off exponentially.
func (m *Machine) demoteTier2(base uint32) {
	pt2, ok := m.tier2[base]
	if !ok {
		return
	}
	pt2.Unchain()
	delete(m.tier2, base)
	m.Stats.Tier2Demotions++
	m.tier2Backoff(base)
	m.emit(telemetry.EvTier2Demote, base, 0)
}

// tier2Backoff resets the page's promotion progress and pushes the next
// attempt out by a doubling span of the instruction clock.
func (m *Machine) tier2Backoff(base uint32) {
	st := m.t2[base]
	if st == nil {
		st = &t2State{}
		m.t2[base] = st
	}
	if st.backoff == 0 {
		st.backoff = tier2BackoffBase
	} else {
		st.backoff *= 2
	}
	st.notBefore = m.instClock() + st.backoff
	st.dispatches = 0
	st.departures = 0
	st.deopts = 0
}

// deoptimize services a fault inside a tier-2 group: reconstruct the
// precise architected state for the exception report (the §3.5 scan walk
// extended over superblock commit records), then rewind to the group-entry
// checkpoint and hand the PC back to the dispatcher, which will run the
// retained tier-1 translation (noteDeopt's skipOnce). The executor has
// already rolled the faulting VLIW itself back.
func (m *Machine) deoptimize(f *vliw.Fault) (bool, error) {
	if f.Alias {
		m.Stats.AliasRecoveries++
	} else if !f.CodeMod {
		// Not counted in Stats.Exceptions: the fault re-occurs on the tier-1
		// re-execution and is recovered (and counted) precisely there.
		m.faulted(f)
	}
	m.emit(telemetry.EvException, f.Resume, faultArg(f))
	m.emit(telemetry.EvTier2Deopt, f.VLIW.EntryBase, 0)
	m.rollbackToCheckpoint()
	m.noteDeopt(m.ckptPC &^ (m.Trans.Opt.PageSize - 1))
	return false, nil
}

// noteDeopt charges one deoptimization against the page: the next dispatch
// runs tier 1 (progress is guaranteed even for a deterministic fault), and
// past the limit the tier-2 translation is demoted outright.
func (m *Machine) noteDeopt(base uint32) {
	m.Stats.Tier2Deopts++
	st := m.t2[base]
	if st == nil {
		st = &t2State{}
		m.t2[base] = st
	}
	st.skipOnce = true
	st.deopts++
	if st.deopts >= tier2DeoptLimit {
		m.demoteTier2(base)
	}
}

// Tier2Pages returns the bases of pages currently carrying a tier-2
// translation, in ascending order (tests and inspection).
func (m *Machine) Tier2Pages() []uint32 { return sortedKeys(m.tier2) }
