package vliw_test

import (
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// BenchmarkExec is the executor layer of the host-cost model: Exec per
// VLIW on translations that are already installed and have already run.
// Each sub-benchmark records one run of a workload (translation and the
// VMM's dispatch happen there, untimed) and then replays every VLIW that
// run executed, in order, on a bare Executor; only the replay is timed.
//
//	go test -run '^$' -bench '^BenchmarkExec$' ./internal/vliw
//
// It reports ns/VLIW and ns/parcel (parcels on the executed paths), and
// fails if a replay pass allocates.
func BenchmarkExec(b *testing.B) {
	for _, name := range []string{"c_sieve", "wc"} {
		b.Run(name, func(b *testing.B) {
			tr := recordExec(b, name)
			e := &vliw.Executor{Mem: tr.mem}
			pass := func() {
				tr.restore()
				tr.replay(e)
			}
			pass() // resolves every parcel and sizes the executor's buffers
			if a := testing.AllocsPerRun(1, pass); a > 0 {
				b.Fatalf("%s: %.0f allocations per replay pass, want 0", name, a)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr.restore()
				b.StartTimer()
				tr.replay(e)
			}
			b.StopTimer()
			if e.Stats.Rollbacks != 0 {
				b.Fatalf("%s: the replay rolled back %d VLIWs", name, e.Stats.Rollbacks)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(len(tr.steps)), "ns/VLIW")
			b.ReportMetric(ns/float64(tr.parcels), "ns/parcel")
		})
	}
}

// execTrace is the executor's share of one run: every VLIW the run
// executed, in order, and the register file the VMM handed back whenever
// it changed registers between two VLIWs (after each system call).
type execTrace struct {
	image   []byte      // guest memory as loaded, before the run
	mem     *mem.Memory // the replay's memory, reset to image every pass
	lo, hi  uint32      // the span of image the run's stores wrote
	start   vliw.RegFile
	steps   []*vliw.VLIW
	resyncs []resync
	parcels int // parcels on the executed paths of one pass
}

type resync struct {
	at int // index into steps
	rf vliw.RegFile
}

// recordExec runs workload name at scale 1 on a default machine and
// records its executor work. A shadow executor replays each VLIW just
// before the machine runs it, so recording fails unless the replay
// reproduces the run exactly: same counters, same final memory.
func recordExec(b *testing.B, name string) *execTrace {
	b.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(8 << 20)
	if err := prog.Load(m); err != nil {
		b.Fatal(err)
	}
	tr := &execTrace{image: append([]byte(nil), m.Bytes(0, m.Size())...), mem: m.Clone()}
	shadow := &vliw.Executor{Mem: m.Clone()}
	tr.lo = m.Size()
	shadow.OnMem = func(addr uint32, size int, write bool) {
		if write {
			tr.lo, tr.hi = min(tr.lo, addr), max(tr.hi, addr+uint32(size))
		}
	}
	ma := vmm.New(m, &interp.Env{In: w.Input(1)}, vmm.DefaultOptions())
	ma.Start(prog.Entry(), 0)
	var shadowErr *vliw.Fault
	ma.Exec.OnFetch = func(v *vliw.VLIW) {
		switch {
		case len(tr.steps) == 0:
			tr.start = ma.Exec.RF
			shadow.RF = ma.Exec.RF
		case shadow.RF != ma.Exec.RF:
			tr.resyncs = append(tr.resyncs, resync{len(tr.steps), ma.Exec.RF})
			shadow.RF = ma.Exec.RF
			shadow.ClearSpec()
		}
		shadow.ResetPath()
		if _, f := shadow.Exec(v); f != nil && shadowErr == nil {
			shadowErr = f
		}
		tr.parcels += pathParcels(v, shadow.Steps[0])
		tr.steps = append(tr.steps, v)
	}
	for {
		halted, err := ma.StepGroup()
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if halted {
			break
		}
	}
	if shadowErr != nil || shadow.Stats != ma.Exec.Stats || !shadow.Mem.EqualData(m) {
		b.Fatalf("%s: replaying the run's VLIWs does not reproduce it (fault %v, stats %+v vs %+v)",
			name, shadowErr, shadow.Stats, ma.Exec.Stats)
	}
	return tr
}

// restore resets the replay's memory to the loaded image. Copying back
// only the span the stores wrote keeps the 8 MiB image from flushing the
// host caches between passes.
func (tr *execTrace) restore() {
	if tr.lo < tr.hi {
		if err := tr.mem.LoadImage(tr.lo, tr.image[tr.lo:tr.hi]); err != nil {
			panic(err)
		}
	}
}

// replay runs one pass: every recorded VLIW, with the recorded register
// file restored where the VMM changed it.
func (tr *execTrace) replay(e *vliw.Executor) {
	e.RF = tr.start
	e.ClearSpec()
	next := 0
	for i, v := range tr.steps {
		if next < len(tr.resyncs) && tr.resyncs[next].at == i {
			e.RF = tr.resyncs[next].rf
			e.ClearSpec()
			next++
		}
		e.ResetPath()
		e.Exec(v)
	}
}

// pathParcels counts the parcels on the path step s took through v.
func pathParcels(v *vliw.VLIW, s vliw.PathStep) int {
	n := v.Root
	total := len(n.Ops)
	for k := uint8(0); !n.Leaf() && k < s.NDirs; k++ {
		if s.Dirs>>k&1 != 0 {
			n = n.Taken
		} else {
			n = n.Fall
		}
		total += len(n.Ops)
	}
	return total
}
