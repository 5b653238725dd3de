package vmm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"daisy/internal/asm"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vliw"
)

// randomSuite is one of this file's differential fuzzers: a program
// generator and the seed and trial count its test runs.
type randomSuite struct {
	seed   int64
	trials int
	gen    func(rng *rand.Rand, trial int) (string, Options)
}

var (
	memorySuite       = randomSuite{2026, 50, randomMemoryProgram}
	carrySuite        = randomSuite{7, 30, randomCarryProgram}
	crSuite           = randomSuite{9, 30, randomCRProgram}
	interpretiveSuite = randomSuite{13, 25, randomInterpretiveProgram}
)

// run checks every program of the suite against the interpreter.
func (s randomSuite) run(t *testing.T) {
	rng := rand.New(rand.NewSource(s.seed))
	for trial := 0; trial < s.trials; trial++ {
		src, opt := s.gen(rng, trial)
		runBoth(t, src, nil, opt)
	}
}

// RandomPrograms returns the source of every program the random
// differential fuzzers of this file run, suite by suite. The
// warm-translator test (package vmm_test) translates them.
func RandomPrograms() []string {
	var srcs []string
	for _, s := range []randomSuite{memorySuite, carrySuite, crSuite, interpretiveSuite} {
		rng := rand.New(rand.NewSource(s.seed))
		for trial := 0; trial < s.trials; trial++ {
			src, _ := s.gen(rng, trial)
			srcs = append(srcs, src)
		}
	}
	return srcs
}

// TestRandomMemoryPrograms is the heavy differential fuzzer: random
// programs with loads, stores, update forms, load/store-multiple, calls
// and loops, run under random machine configurations and page sizes, must
// match the interpreter exactly.
func TestRandomMemoryPrograms(t *testing.T) { memorySuite.run(t) }

func randomMemoryProgram(rng *rand.Rand, trial int) (string, Options) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "_start:\n\tlis r1, 0x8\n\tlis r2, 0x9\n")
	for r := 3; r <= 11; r++ {
		fmt.Fprintf(&b, "\tli r%d, %d\n", r, rng.Intn(4000)-2000)
	}
	iters := 3 + rng.Intn(30)
	fmt.Fprintf(&b, "\tli r12, %d\n\tmtctr r12\nloop%d:\n", iters, trial)
	nOps := 4 + rng.Intn(12)
	for k := 0; k < nOps; k++ {
		d := 3 + rng.Intn(9)
		a := 3 + rng.Intn(9)
		c := 3 + rng.Intn(9)
		switch rng.Intn(10) {
		case 0:
			fmt.Fprintf(&b, "\tstw r%d, %d(r1)\n", d, 4*rng.Intn(16))
		case 1:
			fmt.Fprintf(&b, "\tlwz r%d, %d(r1)\n", d, 4*rng.Intn(16))
		case 2:
			fmt.Fprintf(&b, "\tstb r%d, %d(r2)\n", d, rng.Intn(64))
		case 3:
			fmt.Fprintf(&b, "\tlbz r%d, %d(r2)\n", d, rng.Intn(64))
		case 4:
			fmt.Fprintf(&b, "\tsthu r%d, 2(r2)\n", d)
		case 5:
			fmt.Fprintf(&b, "\tlhzu r%d, 2(r1)\n", d)
			// keep r1 from walking off: mask it back
			fmt.Fprintf(&b, "\tlis r1, 0x8\n")
		case 6:
			fmt.Fprintf(&b, "\tstwx r%d, r1, r0\n", d)
		case 7:
			fmt.Fprintf(&b, "\tadd r%d, r%d, r%d\n", d, a, c)
		case 8:
			fmt.Fprintf(&b, "\tmullw. r%d, r%d, r%d\n", d, a, c)
		default:
			fmt.Fprintf(&b, "\tcmpw cr%d, r%d, r%d\n", rng.Intn(8), a, c)
		}
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, "\tbl sub%d\n", trial)
	}
	fmt.Fprintf(&b, "\tbdnz loop%d\n", trial)
	fmt.Fprintf(&b, "\tstmw r25, 64(r1)\n\tlmw r25, 64(r1)\n")
	fmt.Fprintf(&b, "\tb done%d\n", trial)
	fmt.Fprintf(&b, "sub%d:\taddi r3, r3, 1\n\tblr\n", trial)
	fmt.Fprintf(&b, "done%d:\n", trial)
	b.WriteString(halt)

	opt := defOpt()
	opt.Trans.Config = vliw.Configs[rng.Intn(len(vliw.Configs))]
	opt.Trans.PageSize = []uint32{256, 1024, 4096}[rng.Intn(3)]
	opt.Trans.Window = 16 + rng.Intn(100)
	opt.Trans.MaxJoinVisits = 1 + rng.Intn(6)
	opt.Trans.MaxLoopVisits = 1 + rng.Intn(6)
	return b.String(), opt
}

// TestRandomCarryPrograms stresses the CA extender machinery.
func TestRandomCarryPrograms(t *testing.T) { carrySuite.run(t) }

func randomCarryProgram(rng *rand.Rand, _ int) (string, Options) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "_start:\n")
	for r := 3; r <= 8; r++ {
		fmt.Fprintf(&b, "\tlis r%d, 0x%x\n\tori r%d, r%d, 0x%x\n",
			r, rng.Intn(0x10000), r, r, rng.Intn(0x10000))
	}
	n := 10 + rng.Intn(25)
	for k := 0; k < n; k++ {
		d := 3 + rng.Intn(6)
		a := 3 + rng.Intn(6)
		c := 3 + rng.Intn(6)
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "\taddc r%d, r%d, r%d\n", d, a, c)
		case 1:
			fmt.Fprintf(&b, "\tadde r%d, r%d, r%d\n", d, a, c)
		case 2:
			fmt.Fprintf(&b, "\tsubfc r%d, r%d, r%d\n", d, a, c)
		case 3:
			fmt.Fprintf(&b, "\tsubfe r%d, r%d, r%d\n", d, a, c)
		case 4:
			fmt.Fprintf(&b, "\taddic. r%d, r%d, %d\n", d, a, rng.Intn(100)-50)
		default:
			fmt.Fprintf(&b, "\tsrawi r%d, r%d, %d\n", d, a, rng.Intn(32))
		}
	}
	// Fold the final CA into a register so equivalence sees it.
	fmt.Fprintf(&b, "\tadde r10, r0, r0\n\tmfxer r11\n")
	b.WriteString(halt)
	return b.String(), defOpt()
}

// TestRandomCRPrograms stresses condition-register renaming: cr-logical
// ops, mcrf, mfcr/mtcrf mixed with compares and branches.
func TestRandomCRPrograms(t *testing.T) { crSuite.run(t) }

func randomCRProgram(rng *rand.Rand, trial int) (string, Options) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "_start:\n")
	for r := 3; r <= 8; r++ {
		fmt.Fprintf(&b, "\tli r%d, %d\n", r, rng.Intn(200)-100)
	}
	n := 8 + rng.Intn(20)
	for k := 0; k < n; k++ {
		a := 3 + rng.Intn(6)
		c := 3 + rng.Intn(6)
		switch rng.Intn(7) {
		case 0:
			fmt.Fprintf(&b, "\tcmpw cr%d, r%d, r%d\n", rng.Intn(8), a, c)
		case 1:
			fmt.Fprintf(&b, "\tcmpwi cr%d, r%d, %d\n", rng.Intn(8), a, rng.Intn(100)-50)
		case 2:
			fmt.Fprintf(&b, "\tcrand %d, %d, %d\n", rng.Intn(32), rng.Intn(32), rng.Intn(32))
		case 3:
			fmt.Fprintf(&b, "\tcrxor %d, %d, %d\n", rng.Intn(32), rng.Intn(32), rng.Intn(32))
		case 4:
			fmt.Fprintf(&b, "\tmcrf cr%d, cr%d\n", rng.Intn(8), rng.Intn(8))
		case 5:
			cond := []string{"beq", "bne", "blt", "bgt"}[rng.Intn(4)]
			fmt.Fprintf(&b, "\t%s cr%d, sk%d_%d\n\taddi r9, r9, 1\nsk%d_%d:\n",
				cond, rng.Intn(8), trial, k, trial, k)
		default:
			fmt.Fprintf(&b, "\tadd. r%d, r%d, r%d\n", 3+rng.Intn(6), a, c)
		}
	}
	fmt.Fprintf(&b, "\tmfcr r10\n")
	b.WriteString(halt)
	return b.String(), defOpt()
}

// TestRandomInterpretiveMode fuzzes the trace-guided compiler.
func TestRandomInterpretiveMode(t *testing.T) { interpretiveSuite.run(t) }

func randomInterpretiveProgram(rng *rand.Rand, trial int) (string, Options) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "_start:\n\tlis r1, 0x8\n")
	for r := 3; r <= 8; r++ {
		fmt.Fprintf(&b, "\tli r%d, %d\n", r, rng.Intn(100))
	}
	iters := 3 + rng.Intn(40)
	fmt.Fprintf(&b, "\tli r9, %d\n\tmtctr r9\nlp%d:\n", iters, trial)
	for k := 0; k < 3+rng.Intn(6); k++ {
		d := 3 + rng.Intn(6)
		fmt.Fprintf(&b, "\taddi r%d, r%d, %d\n", d, 3+rng.Intn(6), rng.Intn(9))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "\tcmpwi r%d, %d\n\tblt s%d_%d\n\txor r%d, r%d, r%d\ns%d_%d:\n",
				d, rng.Intn(100), trial, k, d, d, 3+rng.Intn(6), trial, k)
		}
	}
	fmt.Fprintf(&b, "\tstw r3, 0(r1)\n\tlwz r4, 0(r1)\n\tbdnz lp%d\n", trial)
	b.WriteString(halt)
	opt := defOpt()
	opt.Interpretive = true
	return b.String(), opt
}

// TestQuickSeededEquivalence is a testing/quick property: for arbitrary
// initial register seeds fed to a fixed branchy/memory template, the DAISY
// machine and the interpreter agree on the final accumulator.
func TestQuickSeededEquivalence(t *testing.T) {
	template := func(a, b, c int16) string {
		return fmt.Sprintf(`
_start:	lis r1, 0x8
	li r3, %d
	li r4, %d
	li r5, %d
	li r6, 30
	mtctr r6
loop:	add r3, r3, r4
	stw r3, 0(r1)
	lwz r7, 0(r1)
	xor r5, r5, r7
	cmpwi r5, 0
	blt neg
	addi r8, r8, 1
neg:	bdnz loop
`+halt, a, b, c)
	}
	prop := func(a, b, c int16) bool {
		src := template(a, b, c)
		prog, err := asm.Assemble(src)
		if err != nil {
			return false
		}
		m1 := mem.New(1 << 20)
		_ = prog.Load(m1)
		ip := interp.New(m1, &interp.Env{}, prog.Entry())
		if err := ip.Run(0); !errors.Is(err, interp.ErrHalt) {
			return false
		}
		m2 := mem.New(1 << 20)
		_ = prog.Load(m2)
		ma := New(m2, &interp.Env{}, DefaultOptions())
		if err := ma.Run(prog.Entry(), 0); err != nil {
			return false
		}
		return ip.St.GPR[5] == ma.St.GPR[5] &&
			ip.St.GPR[8] == ma.St.GPR[8] &&
			ip.InstCount == ma.Stats.BaseInsts()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
