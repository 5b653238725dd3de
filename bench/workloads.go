package main

// Guest programs, seeded inputs, job lists and the machine setup of each
// workload. The inputs are generated here from -seed, in each program's own
// input format, because workload.Input hard-codes its RNG seeds; only the
// programs' sources and Go models come from internal/workload.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"daisy"
	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/txcache"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// memSize is the guest memory image every job allocates: the size the
// experiments and the command-line tools use.
const memSize = 8 << 20

// program is one guest binary with its seeded input generator.
type program struct {
	name  string
	src   string
	model func(in []byte) []byte
	generator

	prog *asm.Program
	// The calibrated cost model: a·units^b guest instructions.
	a, b float64
}

// generator builds a program's inputs.
type generator struct {
	// input builds an input of the given size, in program-specific units
	// (words, tokens, lines, sieve bound, instructions). shape, in [0, 1),
	// sets the one other property of the input that changes the cost per
	// instruction: where cmp's flipped byte lies, and smc's loop count.
	input func(r *rand.Rand, units int, shape float64) []byte
	// calib is the size of the smaller calibration input (calibrate).
	calib int
}

var vocabulary = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
	"daisy", "vliw", "dynamic", "compilation", "architecture", "translation",
	"register", "renaming", "precise", "exception", "tree", "instruction",
	"page", "branch", "memory", "cache", "issue", "parallel",
}

// text is prose-like input of n words in lines of at most ~60 columns.
func text(r *rand.Rand, n int) []byte {
	var out []byte
	col := 0
	for i := 0; i < n; i++ {
		w := vocabulary[r.Intn(len(vocabulary))]
		out = append(out, w...)
		col += len(w) + 1
		if col > 60 {
			out = append(out, '\n')
			col = 0
		} else {
			out = append(out, ' ')
		}
	}
	return append(out, '\n')
}

// expr is a random well-formed expression in the gcc stand-in's grammar.
func expr(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(3) == 0 {
		return fmt.Sprint(r.Intn(1000))
	}
	switch r.Intn(4) {
	case 0:
		return "(" + expr(r, depth-1) + ")"
	case 1:
		return expr(r, depth-1) + " + " + expr(r, depth-1)
	case 2:
		return expr(r, depth-1) + " - " + expr(r, depth-1)
	}
	return expr(r, depth-1) + "*" + expr(r, depth-1)
}

// generators holds the input generator of every program, by name.
var generators = map[string]generator{
	"compress": {func(r *rand.Rand, n int, _ float64) []byte {
		// Prose, repeated for dictionary hits, then an incompressible tail.
		base := text(r, n)
		out := append(append([]byte(nil), base...), base...)
		for i := 0; i < n/3; i++ {
			out = append(out, byte(33+r.Intn(90)))
		}
		return out
	}, 200},
	"lex": {func(r *rand.Rand, n int, _ float64) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0, 1:
				out = append(out, vocabulary[r.Intn(len(vocabulary))]...)
				if r.Intn(3) == 0 {
					out = append(out, byte('0'+r.Intn(10)))
				}
			case 2:
				out = append(out, fmt.Sprint(r.Intn(100000))...)
			default:
				out = append(out, "+-*/=<>"[r.Intn(7)])
			}
			if i%9 == 8 {
				out = append(out, '\n')
			} else {
				out = append(out, ' ')
			}
		}
		return append(out, '\n')
	}, 500},
	"fgrep": {func(r *rand.Rand, n int, _ float64) []byte {
		pat := vocabulary[r.Intn(len(vocabulary))]
		return append([]byte(pat+"\n"), text(r, n)...)
	}, 500},
	"wc": {func(r *rand.Rand, n int, _ float64) []byte { return text(r, n) }, 500},
	"cmp": {func(r *rand.Rand, n int, shape float64) []byte {
		// Two copies of one text with one byte flipped in the second half;
		// the comparison loop stops there.
		a := text(r, n)
		b := append([]byte(nil), a...)
		b[len(b)/2+int(shape*float64(len(b)/2))] ^= 0x20
		return append(append(a, 1), b...)
	}, 500},
	"sort": {func(r *rand.Rand, n int, _ float64) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(32 + r.Intn(95))
		}
		return out
	}, 1000},
	"c_sieve": {func(_ *rand.Rand, n int, _ float64) []byte {
		return []byte(fmt.Sprintf("%d\n", n))
	}, 5000},
	"gcc": {func(r *rand.Rand, n int, _ float64) []byte {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(expr(r, 3))
			b.WriteByte('\n')
		}
		return []byte(b.String())
	}, 40},
	"smc": {func(r *rand.Rand, n int, shape float64) []byte {
		// K is log-uniform over [20, 5000]: small K retranslates after a
		// few iterations, large K runs the patched loop long. A round
		// costs about 3K+150 instructions.
		k := int(20 * math.Pow(250, shape))
		rounds := max(1, n/(3*k+150))
		return []byte(fmt.Sprintf("%d %d %d\n", rounds, k, r.Intn(0x8000)))
	}, 50e3},
}

// smcSource is a self-modifying guest modelled on examples/selfmod. It
// reads R rounds, K inner iterations and a start value S; round i patches
// the immediate of the addi at `patch` inside its hot loop to
// (7i+S) & 0x7fff, runs the loop K times and prints the sum and the
// running checksum. Every patch is a store into a
// translated page: the VMM rolls back, interprets the store, invalidates
// and unchains the page and retranslates it.
const smcSource = `
	.org 0x10000
_start:	bl readnum
	mr r20, r3          # R rounds
	bl readnum
	mr r21, r3          # K iterations
	bl readnum
	mr r23, r3          # S
	li r22, 0           # round index
round:	cmpw r22, r20
	bge done
	mulli r7, r22, 7
	add r7, r7, r23
	andi. r7, r7, 0x7fff # this round's immediate
	lis r5, patch@ha
	addi r5, r5, patch@l
	sth r7, 2(r5)       # self-modify: rewrite the addi's immediate field
	li r31, 0
	li r29, 0
	mtctr r21
patch:	addi r31, r31, 0
	add r29, r29, r31
	bdnz patch
	mr r3, r31
	bl putnum
	mr r3, r29
	bl putnum
	addi r22, r22, 1
	b round
done:	li r0, 0
	sc
`

// smcModel is the closed form of smcSource: in round i with immediate
// v = (7i+S) & 0x7fff, the loop leaves K*v in r31 and v*K(K+1)/2 in r29
// (both mod 2^32).
func smcModel(in []byte) []byte {
	var rounds, k, start uint32
	if _, err := fmt.Sscanf(string(in), "%d %d %d", &rounds, &k, &start); err != nil {
		return nil
	}
	var out []byte
	for i := uint32(0); i < rounds; i++ {
		v := (7*i + start) & 0x7fff
		out = append(out, fmt.Sprintf("%d\n%d\n", k*v, v*(k*(k+1)/2))...)
	}
	return out
}

// loadPrograms returns every program the benchmark runs, unassembled.
func loadPrograms() []*program {
	var ps []*program
	add := func(name, src string, model func([]byte) []byte) {
		ps = append(ps, &program{name: name, src: src, model: model, generator: generators[name]})
	}
	for _, w := range workload.All() {
		add(w.Name, w.Source, w.Model)
	}
	// smc links the workloads' shared runtime (readnum, putnum): the last
	// .org section of every workload source.
	sieve, err := workload.ByName("c_sieve")
	if err != nil {
		panic(err) // the suite is compiled in; a missing entry is a bug
	}
	add("smc", smcSource+sieve.Source[strings.LastIndex(sieve.Source, ".org"):], smcModel)
	return ps
}

// reference runs in on the reference interpreter over a fresh image and
// returns its instruction count and output.
func reference(p *program, in []byte) (uint64, []byte, error) {
	m := mem.New(memSize)
	if err := p.prog.Load(m); err != nil {
		return 0, nil, err
	}
	env := &interp.Env{In: in}
	ip := interp.New(m, env, p.prog.Entry())
	if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
		return 0, nil, fmt.Errorf("%s: reference interpreter: %v", p.name, err)
	}
	return ip.InstCount, env.Out, nil
}

// calibrate fits p's cost model a·units^b to fixed-seed inputs of calib
// and 4·calib units, so the input size for a target instruction count is
// the same for every -seed and programs that grow faster than linearly
// (sort) are sized right.
func calibrate(p *program) error {
	var n [2]float64
	for i, units := range []int{p.calib, 4 * p.calib} {
		insts, _, err := reference(p, p.input(rand.New(rand.NewSource(0)), units, 0.5))
		if err != nil {
			return err
		}
		n[i] = float64(insts)
	}
	p.b = math.Log(n[1]/n[0]) / math.Log(4)
	p.a = n[0] / math.Pow(float64(p.calib), p.b)
	return nil
}

// unitsFor inverts the cost model.
func (p *program) unitsFor(insts float64) int {
	return max(1, int(math.Pow(insts/p.a, 1/p.b)))
}

// job is one guest program run from load to halt, with the checks it must
// pass: its output equals the program's model and its base-instruction
// count equals the reference interpreter's.
type job struct {
	prog  *program
	input []byte
	want  []byte
	insts uint64
}

// jobSpec sets a job list: n jobs spread evenly over the named programs,
// with target instruction counts stratified over [lo, hi] per program.
type jobSpec struct {
	progs  []string
	n      int
	lo, hi float64
}

// Every list holds at least 100 jobs, so the 90th percentile of job time
// has at least ten jobs beyond it. A pass over a list takes at most a
// third of a 12 s run on a 2-vCPU host, so each job gets three passes.
var (
	allEight  = []string{"compress", "lex", "fgrep", "wc", "cmp", "sort", "c_sieve", "gcc"}
	longJobs  = jobSpec{allEight, 104, 150e3, 500e3}
	shortJobs = jobSpec{allEight, 240, 5e3, 60e3}
	smcJobs   = jobSpec{[]string{"smc"}, 100, 40e3, 200e3}
)

// makeJobs draws the job list from r. Each program gets n/len(progs) jobs
// whose targets are the midpoints of n equal strata of [lo, hi], and whose
// shapes follow the golden-ratio sequence over [0, 1). Sizes and shapes
// are thus the same for every seed; the seed draws the inputs' content and
// the order of the list.
func makeJobs(spec jobSpec, progs map[string]*program, r *rand.Rand) ([]*job, error) {
	per := spec.n / len(spec.progs)
	var jobs []*job
	for _, name := range spec.progs {
		p := progs[name]
		for k := 0; k < per; k++ {
			mid := float64(k) + 0.5
			units := p.unitsFor(spec.lo + (spec.hi-spec.lo)*mid/float64(per))
			_, shape := math.Modf(mid * (math.Sqrt(5) - 1) / 2)
			in := p.input(r, units, shape)
			insts, out, err := reference(p, in)
			if err != nil {
				return nil, err
			}
			want := p.model(in)
			if !bytes.Equal(out, want) {
				return nil, fmt.Errorf("%s: reference interpreter output differs from the model on a %d-unit input", name, units)
			}
			jobs = append(jobs, &job{prog: p, input: in, want: want, insts: insts})
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// workloadDef is one benchmark workload: a job list and the machine the
// jobs run on. BENCHMARK.json gives the reason for each.
type workloadDef struct {
	name  string
	jobs  jobSpec
	fleet bool // shared on-disk txcache primed by daisy.Precompile in setup
	opts  func(store *txcache.Store) vmm.Options
}

var workloads = []workloadDef{
	// The vliw executor and vmm dispatch and chaining dominate; translation
	// is a few percent of the time.
	{"steady", longJobs, false, func(*txcache.Store) vmm.Options { return vmm.DefaultOptions() }},
	// The same jobs through the tier-2 promotion and dispatch funnel.
	{"tier2", longJobs, false, func(*txcache.Store) vmm.Options {
		o := vmm.DefaultOptions()
		o.Tier2 = true
		return o
	}},
	// mem.New and core translation dominate; the executor does little.
	{"cold", shortJobs, false, func(*txcache.Store) vmm.Options { return vmm.DefaultOptions() }},
	// The cold jobs with translation bypassed: txcache hot-tier loads and
	// group clones install every page.
	{"fleet", shortJobs, true, func(s *txcache.Store) vmm.Options {
		o := vmm.DefaultOptions()
		o.AsyncTranslate = true
		o.Cache = s
		return o
	}},
	// The translation cache's write path: rollback, invalidation,
	// unchaining and retranslation on every code patch.
	{"smc", smcJobs, false, func(*txcache.Store) vmm.Options { return vmm.DefaultOptions() }},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// setupState is what the one-time setup hands to the timed jobs.
type setupState struct {
	progs map[string]*program
	store *txcache.Store // fleet only
}

// setup assembles every program and, for a fleet workload, opens a fresh
// on-disk txcache under dir and precompiles every program of the job list
// into it. It returns the state, the time it took and the part of it spent
// assembling; clearing dir of an earlier cache is not timed.
func setup(w workloadDef, dir string) (st *setupState, total, assemble time.Duration, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	st = &setupState{progs: make(map[string]*program)}
	for _, p := range loadPrograms() {
		if p.prog, err = asm.Assemble(p.src); err != nil {
			return nil, 0, 0, fmt.Errorf("assemble %s: %w", p.name, err)
		}
		st.progs[p.name] = p
	}
	assemble = time.Since(start)
	if w.fleet {
		if st.store, err = txcache.Open(filepath.Join(dir, "txcache")); err != nil {
			return nil, 0, 0, err
		}
		for _, name := range w.jobs.progs {
			if err := precompile(st.progs[name].prog, w.opts(st.store)); err != nil {
				return nil, 0, 0, fmt.Errorf("precompile %s: %w", name, err)
			}
		}
	}
	return st, time.Since(start), assemble, nil
}

func precompile(prog *asm.Program, opt vmm.Options) error {
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return err
	}
	ma, err := vmm.NewMachine(m, &interp.Env{}, opt)
	if err != nil {
		return err
	}
	defer ma.Close()
	_, err = daisy.Precompile(ma, prog)
	return err
}
