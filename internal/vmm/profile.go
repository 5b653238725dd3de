package vmm

// Guest-time attribution (the VMM half of the profiler; the aggregate and
// its exporters live in internal/telemetry). When a sampled group run ends,
// the telemetry observer replays the executor's compressed step log with
// the §3.5 scan walk — the same machinery exception recovery uses — and
// charges every attempted VLIW issue cycle and every completed base
// instruction back to the base-architecture PC responsible. Where the walk
// derails (an indirect branch whose target the walk cannot reconstruct), it
// resyncs from the parcel's recorded originating address, so attribution
// never silently drifts.
//
// Cost model: the walk runs only on the 1-in-N sampled group runs and only
// when Options.Profile is set. The step log is the executor's own, reset at
// every group entry, so an unsampled run costs the profiler nothing.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"daisy/internal/ppc"
	"daisy/internal/telemetry"
	"daisy/internal/vliw"
)

// profileRun charges one sampled run of g and folds it into the profile,
// distributing the run's wall time across its PCs by cycle share. The step
// log still holds g's path: the machine resets it only at the next group
// entry, after the observer has seen the switch.
func (o *telObserver) profileRun(g *vliw.Group) {
	o.profBuf = o.profBuf[:0]
	clear(o.profIdx)
	o.chargePath(g)
	o.prof.AddRun(o.profBuf, uint64(time.Since(o.runT0).Nanoseconds()))
}

// charge accumulates one attribution into the run's scratch buffer.
func (o *telObserver) charge(pc uint32, cycles, insts uint64) {
	i, ok := o.profIdx[pc]
	if !ok {
		i = len(o.profBuf)
		o.profIdx[pc] = i
		o.profBuf = append(o.profBuf, telemetry.PCCharge{PC: pc})
	}
	o.profBuf[i].Cycles += cycles
	o.profBuf[i].Insts += insts
}

// chargePath replays the step log for g. Each step is one attempted VLIW
// — exactly one cycle of Stats.Cycles — so at sample=1 the profile's cycle
// total matches the machine's cycle count.
func (o *telObserver) chargePath(g *vliw.Group) {
	m := o.m
	steps := m.Exec.Steps
	if g == nil || len(steps) == 0 {
		return
	}
	w := &scanWalker{m: m, pc: g.Entry, ok: true}
	lost := false
	for _, s := range steps {
		if int(s.VLIWID) >= len(g.VLIWs) {
			continue
		}
		v := g.VLIWs[s.VLIWID]
		// The VLIW's issue cycle goes to the base instruction in progress
		// at its entry; after a derail, the VLIW's own entry offset is the
		// precise fallback (it is a base-instruction boundary, Chapter 2).
		cpc := w.pc
		if lost {
			cpc = v.EntryBase
		}
		o.charge(cpc, 1, 0)

		m.scanBuf = vliw.StepNodes(m.scanBuf[:0], g, s)
		for i, n := range m.scanBuf {
			for k := range n.Ops {
				if !n.Ops[k].EndsInst {
					continue
				}
				// Resync from the parcel's recorded origin when the walk
				// derailed or disagrees (a split optimized to its
				// unconditional form makes the walk guess).
				if ba := n.Ops[k].BaseAddr; ba != 0 && (lost || ba != w.pc) {
					w.pc = ba
					lost = false
				}
				ipc := w.pc
				if lost {
					ipc = v.EntryBase
				}
				o.charge(ipc, 0, 1)
				if !lost && !w.advance() {
					lost = true
				}
			}
			if n.Cond != nil && i+1 < len(m.scanBuf) {
				w.dirs = append(w.dirs, m.scanBuf[i+1] == n.Taken)
			}
		}
	}
}

// AnnotatedDisassembly renders the page at base side by side: each base
// instruction (decoded from the unmodified program image) with its
// attributed cycles and share on the left, the VLIW parcels scheduled
// from it on the right — the profiler's answer to "what did the
// translator do with my hot loop?".
func (m *Machine) AnnotatedDisassembly(prof *telemetry.Profile, base uint32) string {
	base &^= m.Trans.Opt.PageSize - 1
	samples := make(map[uint32]telemetry.PCSample)
	var total uint64
	for _, s := range prof.Samples() {
		samples[s.PC] = s
		total += s.Cycles
	}
	var b strings.Builder
	fmt.Fprintf(&b, "annotated disassembly: page 0x%08x\n", base)
	p := m.liveAt(base)
	if p == nil {
		b.WriteString("  (page not translated)\n")
		return b.String()
	}
	pt := p.pt
	for _, entry := range pt.Order {
		g := pt.Groups[entry]
		if g == nil {
			continue
		}
		fmt.Fprintf(&b, "\ngroup @0x%08x (%d VLIWs, %d base insts)\n", g.Entry, len(g.VLIWs), g.BaseInsts)
		byPC := make(map[uint32][]string)
		var pcs []uint32
		for _, v := range g.VLIWs {
			var walk func(n *vliw.Node)
			walk = func(n *vliw.Node) {
				if n == nil {
					return
				}
				for k := range n.Ops {
					pc := n.Ops[k].BaseAddr
					if _, seen := byPC[pc]; !seen {
						pcs = append(pcs, pc)
					}
					byPC[pc] = append(byPC[pc], fmt.Sprintf("V%d: %s", v.ID, n.Ops[k].String()))
				}
				if n.Cond != nil {
					walk(n.Taken)
					walk(n.Fall)
				}
			}
			walk(v.Root)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			dis := "(synthetic)"
			if pc != 0 {
				if word, err := m.Mem.Read32(pc); err == nil {
					dis = ppc.Decode(word).String()
				} else {
					dis = "??"
				}
			}
			s := samples[pc]
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(s.Cycles) / float64(total)
			}
			lines := byPC[pc]
			fmt.Fprintf(&b, "  %9d %5.1f%%  0x%08x  %-26s | %s\n", s.Cycles, pct, pc, dis, lines[0])
			for _, l := range lines[1:] {
				fmt.Fprintf(&b, "  %9s %6s  %10s  %-26s | %s\n", "", "", "", "", l)
			}
		}
	}
	return b.String()
}
