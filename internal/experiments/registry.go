package experiments

// The experiment registry: the one list of everything the paper's
// evaluation contains, read by cmd/daisy-paper, which prints each table
// to stdout and archives it in a run folder. Adding an experiment here is
// all it takes for the paper harness and its manifest to pick it up.

import "daisy/internal/stats"

// Experiment is one entry of the paper grid.
type Experiment struct {
	ID string
	// Wallclock marks tables whose cells include host wall-clock times
	// (cost): nondeterministic run to run, excluded from the harness's
	// determinism claims and from golden pinning.
	Wallclock bool
	Run       func(r *Runner) (*stats.Table, error)
}

// Experiments lists the full grid in the paper's presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "t51", Run: (*Runner).Table51},
		{ID: "f51", Run: (*Runner).Figure51},
		{ID: "t52", Run: (*Runner).Table52},
		{ID: "t53", Run: (*Runner).Table53},
		{ID: "t54", Run: (*Runner).Table54},
		{ID: "f52", Run: (*Runner).Figure52},
		{ID: "t55", Run: (*Runner).Table55},
		{ID: "t56", Run: (*Runner).Table56},
		{ID: "t57", Run: (*Runner).Table57},
		{ID: "f53", Run: (*Runner).Figure53},
		{ID: "f54", Run: (*Runner).Figure54},
		{ID: "f55", Run: (*Runner).Figure55},
		{ID: "t58", Run: func(r *Runner) (*stats.Table, error) { return r.Table58(), nil }},
		{ID: "t59", Run: (*Runner).Table59},
		{ID: "cost", Wallclock: true, Run: (*Runner).TranslationCost},
		{ID: "oracle", Run: (*Runner).OracleTable},
		{ID: "trace", Run: (*Runner).InterpretiveTable},
		{ID: "ablate", Run: func(r *Runner) (*stats.Table, error) { return r.Ablations("c_sieve") }},
		{ID: "tier2", Run: (*Runner).Tier2Table},
	}
}

// ExperimentByID returns the registry entry, or nil.
func ExperimentByID(id string) *Experiment {
	for _, e := range Experiments() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

// OutputFNV is the 64-bit FNV-1a digest every experiment uses to
// cross-check guest output (the same function internal/golden pins).
func OutputFNV(out []byte) uint64 {
	var d uint64 = 0xcbf29ce484222325
	for _, c := range out {
		d = (d ^ uint64(c)) * 0x100000001b3
	}
	return d
}
