package chaos

import (
	"testing"

	"daisy/internal/core"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// candidateParcels returns pointers to the parcels of g that are safe
// mutation targets with exactly attributable effects: li/addi commits
// writing an architected GPR that no other parcel in the group writes.
// When such a parcel executes, mutating its immediate must surface as a
// register mismatch at the first committed VLIW boundary after it, and
// the reference trace's last writer of that register is the parcel's own
// base instruction. (A candidate on a conditional path may simply never
// run; the test tolerates those.)
func candidateParcels(g *vliw.Group) []*vliw.Parcel {
	var out []*vliw.Parcel
	for _, v := range g.VLIWs {
		var walk func(nd *vliw.Node)
		walk = func(nd *vliw.Node) {
			if nd == nil {
				return
			}
			for i := range nd.Ops {
				p := &nd.Ops[i]
				if p.Op != vliw.PAddI && p.Op != vliw.PLI {
					continue
				}
				if !p.EndsInst || !p.D.Arch() {
					continue
				}
				if gprWriters(g, p.D) > 1 {
					continue
				}
				out = append(out, p)
			}
			walk(nd.Taken)
			walk(nd.Fall)
		}
		walk(v.Root)
	}
	return out
}

// gprWriters counts the parcels in g whose destination is the given GPR.
func gprWriters(g *vliw.Group, d vliw.RegRef) int {
	n := 0
	for _, v := range g.VLIWs {
		var walk func(nd *vliw.Node)
		walk = func(nd *vliw.Node) {
			if nd == nil {
				return
			}
			for i := range nd.Ops {
				p := &nd.Ops[i]
				if p.Op != vliw.PStore && p.D == d {
					n++
				}
			}
			walk(nd.Taken)
			walk(nd.Fall)
		}
		walk(v.Root)
	}
	return n
}

// TestPlantedBugIsBisected plants translator bugs — an addi immediate
// silently off by 4, the classic wrong-displacement miscompilation — and
// checks that the lockstep harness both catches each one and bisects the
// divergence to exactly the base instruction whose translation was
// corrupted.
// translateObserver hands every installed translation to fn, before any of
// its code runs.
type translateObserver struct {
	vmm.NopObserver
	fn func(pt *core.PageTranslation)
}

func (o translateObserver) Translated(pt *core.PageTranslation, _ core.Stats, _ vmm.AsyncLatency) {
	o.fn(pt)
}

func TestPlantedBugIsBisected(t *testing.T) {
	var w workload.Workload
	var entry uint32
	var ncand int
	for _, cand := range workload.All() {
		prog, err := cand.Build()
		if err != nil {
			t.Fatal(err)
		}
		e := prog.Entry()
		n := 0
		sc := Scenario{Workload: cand, MaxInsts: 1000, Prepare: func(m *vmm.Machine) {
			m.Observe(translateObserver{fn: func(pt *core.PageTranslation) {
				if g, ok := pt.Groups[e]; ok && n == 0 {
					n = len(candidateParcels(g))
				}
			}})
		}}
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			w, entry, ncand = cand, e, n
			break
		}
	}
	if ncand == 0 {
		t.Fatal("no workload offers a mutation candidate")
	}
	if ncand > 4 {
		ncand = 4
	}

	exact := 0
	for k := 0; k < ncand; k++ {
		k := k
		var mutatedPC uint32
		mutated := make(map[*vliw.Group]bool)
		sc := Scenario{Workload: w, Prepare: func(m *vmm.Machine) {
			m.Observe(translateObserver{fn: func(pt *core.PageTranslation) {
				g, ok := pt.Groups[entry]
				if !ok || mutated[g] {
					return
				}
				mutated[g] = true
				cands := candidateParcels(g)
				if k >= len(cands) {
					return
				}
				cands[k].Imm += 4
				mutatedPC = cands[k].BaseAddr
			}})
		}}
		rep, err := Run(sc)
		if err != nil {
			// A corrupted address computation can crash the machine
			// outright; that is a caught bug, just not a bisectable one.
			t.Logf("candidate %d: machine failed hard: %v", k, err)
			continue
		}
		d := rep.Divergence
		if d == nil {
			// The mutated parcel may sit on a conditional path this input
			// never takes; an unexecuted bug is not a detectable one.
			t.Logf("candidate %d (pc %#x): mutation never surfaced", k, mutatedPC)
			continue
		}
		if !d.BadPCOK {
			t.Errorf("candidate %d (pc %#x): detected but not attributed: %v", k, mutatedPC, d)
			continue
		}
		if d.BadPC != mutatedPC {
			t.Errorf("candidate %d: bisected to %#x, want %#x: %v", k, d.BadPC, mutatedPC, d)
			continue
		}
		if d.GroupDump == "" {
			t.Errorf("candidate %d: no offending group dumped", k)
		}
		exact++
	}
	if exact == 0 {
		t.Fatal("no planted bug was bisected to its base instruction")
	}
}

// TestCleanRunHasNoDivergence pins the harness's false-positive rate at
// zero for an uninjected, unmutated run, and that the lockstep compares at
// every committed VLIW, not only where StepGroup returns.
func TestCleanRunHasNoDivergence(t *testing.T) {
	w, err := workload.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Scenario{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergence != nil {
		t.Fatalf("clean run diverged: %v", rep.Divergence)
	}
	if !rep.Halted || rep.Stats.InjectedFaults != 0 {
		t.Fatalf("clean run: halted=%v injected=%d", rep.Halted, rep.Stats.InjectedFaults)
	}
	if rep.Compares < rep.Stats.Exec.VLIWs {
		t.Fatalf("clean run: %d comparisons for %d committed VLIWs", rep.Compares, rep.Stats.Exec.VLIWs)
	}
}
