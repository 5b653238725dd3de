package vmm

// This file implements the VMM's graceful-degradation policy. DAISY's
// recovery paths — SMC invalidation (§3.2), alias re-execution and
// precise-exception rollback (§3.5) — are each individually cheap, but a
// page that keeps tripping them (self-modifying code rewritten every
// iteration, pathological aliasing, a hot page fighting a tiny translation
// pool) makes the VMM thrash: translate, fault, invalidate, retranslate,
// forever. Translation is the expensive step, so past a threshold the
// honest move is to stop translating the page and interpret it — the
// architected semantics are identical, only slower — and retry translation
// later with exponential backoff.
//
// Time is measured in completed base instructions (instClock), the only
// clock the machine has that is deterministic across runs; the tier-2 and
// async retry policies and the trace read the same clock.

import "daisy/internal/telemetry"

// quarState tracks translation trouble for one page (page.quar).
type quarState struct {
	events    []uint64 // completion-time stamps of recent trouble events
	until     uint64   // interpret-only while instClock() < until (0 = free)
	backoff   uint64   // current backoff span; doubles on each re-engage
	engagedAt uint64   // instClock() when the quarantine engaged (dwell base)
}

// noteTrouble records one translation-trouble event (an SMC invalidation,
// an alias recovery, or a recovered exception) against the page at base.
// When QuarantineThreshold events land within QuarantineWindow completed
// instructions, the page is quarantined: its translation is invalidated
// and groupAt is bypassed in favor of the interpreter until the backoff
// expires.
func (m *Machine) noteTrouble(base uint32) {
	if m.Opt.QuarantineThreshold <= 0 {
		return
	}
	p := m.page(base)
	q := &p.quar
	if q.until != 0 {
		return // already quarantined
	}
	now := m.instClock()
	q.events = append(q.events, now)
	// Drop events that have aged out of the window.
	cut := uint64(0)
	if now > m.Opt.QuarantineWindow {
		cut = now - m.Opt.QuarantineWindow
	}
	keep := q.events[:0]
	for _, e := range q.events {
		if e >= cut {
			keep = append(keep, e)
		}
	}
	q.events = keep
	if len(q.events) < m.Opt.QuarantineThreshold {
		return
	}
	m.engageQuarantine(p, m.Opt.QuarantineBackoff)
}

// engageQuarantine puts the page into interpret-only mode: its translation
// is invalidated (which also poisons any in-flight worker result via the
// epoch bump) and groupAt is bypassed until the backoff expires. Each
// re-engagement of the same page doubles the span.
func (m *Machine) engageQuarantine(p *page, firstBackoff uint64) {
	if firstBackoff == 0 {
		firstBackoff = defaultQuarantineBackoff
	}
	q := &p.quar
	if q.backoff == 0 {
		q.backoff = firstBackoff
	} else {
		q.backoff *= 2
	}
	if q.until == 0 {
		m.quarPages++
	}
	now := m.instClock()
	q.until = now + q.backoff
	q.engagedAt = now
	q.events = q.events[:0]
	m.Stats.Quarantines++
	m.invalidate(p.base)
	m.emit(telemetry.EvQuarantine, p.base, q.backoff)
}

// defaultQuarantineBackoff (completed base instructions) is used by the
// fault-tolerance paths — translator panics, exhausted async retries —
// when the quarantine policy itself is not configured. It must exist even
// with QuarantineThreshold unset: panic isolation cannot be optional.
const defaultQuarantineBackoff = 50_000

// forceQuarantine engages interpret-only quarantine immediately,
// bypassing the event-counting policy. The fault-tolerance layer uses it
// for failures where retrying translation right away is known to be
// useless: a translator panic (deterministic: it would panic again) or an
// exhausted async retry budget.
func (m *Machine) forceQuarantine(base uint32) {
	p := m.page(base)
	if p.quar.until != 0 && m.instClock() < p.quar.until {
		return // already quarantined
	}
	m.engageQuarantine(p, m.Opt.QuarantineBackoff)
}

// pageQuarantined reports whether the page holding addr is currently in
// interpret-only quarantine, releasing it when its backoff has expired.
func (m *Machine) pageQuarantined(addr uint32) bool {
	if m.quarPages == 0 {
		return false
	}
	p := m.pages[addr&^(m.Trans.Opt.PageSize-1)]
	if p == nil || p.quar.until == 0 {
		return false
	}
	if now := m.instClock(); now >= p.quar.until {
		p.quar.until = 0
		m.quarPages--
		m.Stats.QuarantineReleases++
		m.emit(telemetry.EvQuarantineOff, p.base, now-p.quar.engagedAt)
		return false
	}
	return true
}

// QuarantinedPages returns the bases of pages currently in interpret-only
// quarantine, in ascending order (for observability).
func (m *Machine) QuarantinedPages() []uint32 {
	now := m.instClock()
	return m.pagesWhere(func(p *page) bool { return p.quar.until != 0 && now < p.quar.until })
}
