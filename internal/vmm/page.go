package vmm

import (
	"slices"

	"daisy/internal/core"
)

// page is everything the VMM keeps about one guest page. In DAISY the
// physical page is the unit of translation, protection and invalidation
// (§3.1–3.2), so its live translations, its place in the cast-out order
// and the per-page policy state all live here. A record is made on first
// use and lives as long as the machine; invalidate resets what dies with
// a translation and keeps the rest (quarantine backoff, alias history,
// the speculation inhibit).
type page struct {
	base uint32

	// pt is the live tier-1 translation (nil: none). t2 is the live tier-2
	// translation (tier2.go), set only while pt is: pt is what it
	// deoptimizes to, and invalidate drops both.
	pt, t2 *core.PageTranslation

	// prev and next link the pages with a live pt in recency order, from
	// Machine.lruHead (least recently used) to Machine.lruTail.
	prev, next *page

	// pending defers entry-extension write-through: a page that grows
	// entry points during a run is rewritten to the persistent cache once,
	// at halt or Close, not once per extension. It holds the exact
	// translation that was extended; the flush drops it unless it is still
	// pt (an invalidated page's bytes may have changed, so the rewrite
	// would be mis-keyed).
	pending *core.PageTranslation

	quar quarState // interpret-only quarantine (quarantine.go)
	t2st t2State   // tier-2 promotion policy (tier2.go)

	// Adaptive speculation throttle (§5: "an entry point could be
	// retranslated with movement of loads above stores inhibited"):
	// aliases counts alias recoveries, and once they pass the threshold
	// inhibit rebuilds the page without load speculation.
	aliases int
	inhibit bool

	// Async pipeline (async.go): epoch counts invalidations, so a worker
	// result from an earlier epoch is stale; hot counts dispatches toward
	// the hot threshold; retry is the failure history.
	epoch uint64
	hot   int
	retry retryState
}

// page returns the record of the page at base, making it on first use.
func (m *Machine) page(base uint32) *page {
	p := m.pages[base]
	if p == nil {
		p = &page{base: base}
		m.pages[base] = p
	}
	return p
}

// liveAt returns the record of the page holding addr when it has a live
// tier-1 translation, and nil otherwise; it makes no record.
func (m *Machine) liveAt(addr uint32) *page {
	if p := m.pages[addr&^(m.Trans.Opt.PageSize-1)]; p != nil && p.pt != nil {
		return p
	}
	return nil
}

// install puts pt live as the page's tier-1 translation — the one sequence
// behind a page build, a persistent-cache hit and an async publish. The
// page becomes the most recently used, is write-protected so stores into
// it raise the code-modification interrupt (§3.2), and the pool casts out
// its least recently used page if it is over MaxPages.
func (m *Machine) install(p *page, pt *core.PageTranslation) {
	if p.pt == nil {
		m.livePages++
	}
	p.pt = pt
	m.touch(p)
	m.Mem.SetReadOnly(p.base, true)
	m.castOut()
}

// touch makes p the most recently used page.
func (m *Machine) touch(p *page) {
	if p == m.lruTail {
		return
	}
	m.unlink(p)
	p.prev = m.lruTail
	if m.lruTail != nil {
		m.lruTail.next = p
	} else {
		m.lruHead = p
	}
	m.lruTail = p
}

// unlink takes p out of the recency order (a no-op if it is not in it).
func (m *Machine) unlink(p *page) {
	switch {
	case p.prev != nil:
		p.prev.next = p.next
	case m.lruHead == p:
		m.lruHead = p.next
	default:
		return
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		m.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// pagesWhere returns the bases of the records keep accepts in ascending
// order, so every walk over pages (exports, cache flushes, seeded
// injectors) is deterministic.
func (m *Machine) pagesWhere(keep func(p *page) bool) []uint32 {
	out := []uint32{}
	for base, p := range m.pages {
		if keep(p) {
			out = append(out, base)
		}
	}
	slices.Sort(out)
	return out
}
