package telemetry

// Guest-time attribution profile. On each sampled group run the VMM's
// telemetry observer walks the executed VLIW path with the §3.5 scan
// mapping and charges each attempted VLIW issue cycle — and each completed
// base instruction — back to the *base-architecture* PC responsible for
// it. The aggregate answers the question every dynamic-compilation stack
// needs answered: where does guest time actually go, in the guest's own
// address space?
//
// Three views are exported: a pprof-compatible gzipped protobuf payload
// (pprof.go) consumable by `go tool pprof`, a flat top-N text report
// (RenderTop), and — on the VMM side, where the translations live — an
// annotated side-by-side disassembly (vmm/profile.go).
//
// Cycles and instruction counts ride the machine's deterministic virtual
// clock, so two identical runs produce identical profiles; wall-clock
// nanoseconds are host-derived and zeroed by Canonical for golden tests.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// PCCharge is one batch of attribution against a base PC, accumulated by
// the VMM's telemetry observer across one sampled group run.
type PCCharge struct {
	PC     uint32
	Cycles uint64 // VLIW issue cycles attributed to the PC
	Insts  uint64 // base instructions completed at the PC
}

// PCSample is the accumulated profile of one base PC.
type PCSample struct {
	PC     uint32 `json:"pc"`
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	WallNs uint64 `json:"wall_ns"`
}

// Profile aggregates guest-time attribution by base-architecture PC.
// Safe for concurrent use; the observer adds whole group runs under one
// lock acquisition.
type Profile struct {
	mu       sync.Mutex
	period   uint64 // 1-in-N group-run sampling rate the charges came from
	pageSize uint32
	pcs      map[uint32]*PCSample
}

// NewProfile builds an empty profile for the given sampling period
// (clamped to >= 1).
func NewProfile(period int) *Profile {
	if period < 1 {
		period = 1
	}
	return &Profile{period: uint64(period), pageSize: 4096, pcs: make(map[uint32]*PCSample)}
}

// Period returns the 1-in-N group-run sampling rate.
func (p *Profile) Period() uint64 { return p.period }

// SetPageSize records the translation page size used for per-page rollups
// (the VMM sets it at attach; default 4096).
func (p *Profile) SetPageSize(ps uint32) {
	if ps == 0 {
		return
	}
	p.mu.Lock()
	p.pageSize = ps
	p.mu.Unlock()
}

// PageSize returns the rollup page size.
func (p *Profile) PageSize() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pageSize
}

// AddRun merges one sampled group run into the profile. wallNs — the
// host time the whole run took — is distributed across the run's PCs
// proportionally to their cycle counts (the only per-PC weight the
// executor exposes without per-parcel clocks).
func (p *Profile) AddRun(charges []PCCharge, wallNs uint64) {
	if len(charges) == 0 {
		return
	}
	var runCycles uint64
	for _, c := range charges {
		runCycles += c.Cycles
	}
	p.mu.Lock()
	for _, c := range charges {
		s := p.pcs[c.PC]
		if s == nil {
			s = &PCSample{PC: c.PC}
			p.pcs[c.PC] = s
		}
		s.Cycles += c.Cycles
		s.Insts += c.Insts
		if runCycles > 0 {
			s.WallNs += wallNs * c.Cycles / runCycles
		}
	}
	p.mu.Unlock()
}

// Samples returns every PC sample, hottest (most cycles) first, ties
// broken by ascending PC for determinism.
func (p *Profile) Samples() []PCSample {
	p.mu.Lock()
	out := make([]PCSample, 0, len(p.pcs))
	for _, s := range p.pcs {
		out = append(out, *s)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// TotalCycles returns the sum of attributed cycles across every PC.
func (p *Profile) TotalCycles() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, s := range p.pcs {
		n += s.Cycles
	}
	return n
}

// PageSample is the per-page rollup of PCSamples.
type PageSample struct {
	Base   uint32 `json:"base"`
	PCs    int    `json:"pcs"`
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	WallNs uint64 `json:"wall_ns"`
}

// Pages rolls the profile up by translation page, hottest first.
func (p *Profile) Pages() []PageSample {
	p.mu.Lock()
	mask := ^(p.pageSize - 1)
	byPage := make(map[uint32]*PageSample)
	for _, s := range p.pcs {
		base := s.PC & mask
		ps := byPage[base]
		if ps == nil {
			ps = &PageSample{Base: base}
			byPage[base] = ps
		}
		ps.PCs++
		ps.Cycles += s.Cycles
		ps.Insts += s.Insts
		ps.WallNs += s.WallNs
	}
	p.mu.Unlock()
	out := make([]PageSample, 0, len(byPage))
	for _, ps := range byPage {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Base < out[j].Base
	})
	return out
}

// Canonical returns a deep copy with every host-clock-derived quantity
// (WallNs) zeroed, mirroring Snapshot.Canonical: the copy is a pure
// function of the virtual clock, so golden tests can byte-pin it.
func (p *Profile) Canonical() *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &Profile{period: p.period, pageSize: p.pageSize, pcs: make(map[uint32]*PCSample, len(p.pcs))}
	for pc, s := range p.pcs {
		out.pcs[pc] = &PCSample{PC: s.PC, Cycles: s.Cycles, Insts: s.Insts}
	}
	return out
}

// RenderTop renders the flat top-N report: one row per base PC, hottest
// first, with cycle share and cumulative share — `go tool pprof -top` for
// the guest, without leaving the terminal.
func (p *Profile) RenderTop(rows int) string {
	if rows <= 0 {
		rows = 10
	}
	samples := p.Samples()
	var total, totalInsts uint64
	for _, s := range samples {
		total += s.Cycles
		totalInsts += s.Insts
	}
	var b strings.Builder
	fmt.Fprintf(&b, "guest profile: %d PCs, %d cycles, %d insts (sampled 1-in-%d group runs)\n",
		len(samples), total, totalInsts, p.Period())
	if len(samples) == 0 {
		return b.String()
	}
	b.WriteString("      flat%   cum%      cycles      insts  pc\n")
	if rows > len(samples) {
		rows = len(samples)
	}
	var cum uint64
	for i := 0; i < rows; i++ {
		s := samples[i]
		cum += s.Cycles
		flatPct, cumPct := 0.0, 0.0
		if total > 0 {
			flatPct = 100 * float64(s.Cycles) / float64(total)
			cumPct = 100 * float64(cum) / float64(total)
		}
		fmt.Fprintf(&b, "  %2d. %5.1f%% %5.1f%% %11d %10d  0x%08x\n",
			i+1, flatPct, cumPct, s.Cycles, s.Insts, s.PC)
	}
	pages := p.Pages()
	b.WriteString("by page:\n")
	n := rows
	if n > len(pages) {
		n = len(pages)
	}
	for i := 0; i < n; i++ {
		ps := pages[i]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ps.Cycles) / float64(total)
		}
		fmt.Fprintf(&b, "  %2d. %5.1f%% %11d cycles %10d insts %4d pcs  0x%08x\n",
			i+1, pct, ps.Cycles, ps.Insts, ps.PCs, ps.Base)
	}
	return b.String()
}
