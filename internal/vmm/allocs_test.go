package vmm

import (
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/workload"
)

// runAllocCeiling caps the heap allocations of one whole c_sieve run at
// scale 1. It is the 788 measured when the cap was set plus 3%. The
// executor's hot loop and chain follows allocate nothing, and c_sieve
// makes 2,233 chain follows, so one stray allocation on that path alone
// lands far above the cap. Raise it only in a reviewed change that says
// why.
const runAllocCeiling = 811

// TestRunAllocs builds the image, loads the program, creates the machine
// and runs it to halt (translation included) under testing.AllocsPerRun.
func TestRunAllocs(t *testing.T) {
	w, err := workload.ByName("c_sieve")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := w.Input(1)
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		m := mem.New(8 << 20)
		if err := prog.Load(m); err != nil {
			runErr = err
			return
		}
		ma := New(m, &interp.Env{In: in}, DefaultOptions())
		if err := ma.Run(prog.Entry(), 0); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocations per run", allocs)
	if allocs > runAllocCeiling {
		t.Fatalf("c_sieve run made %.0f allocations, ceiling %d", allocs, runAllocCeiling)
	}
}
