// daisy-run executes a base-architecture program under the DAISY machine
// (or the reference interpreter) and prints execution statistics.
//
// Usage:
//
//	daisy-run [flags] prog.s          # assemble and run a source file
//	daisy-run [flags] -workload wc    # run a built-in benchmark
//
// With -precompile (and -txcache DIR), the whole binary is pre-translated
// into the persistent cache on a parallel worker pool and nothing is
// executed — the fleet warm-up pass.
//
// Flags select the machine configuration, translation page size, input,
// and whether to cross-check against the interpreter. The observability
// flags attach telemetry: -top prints the top screen, -profile writes
// and validates a guest pprof profile, and -annotate N adds the annotated
// disassembly of the N hottest pages:
//
//	daisy-run -workload c_sieve -sample 1 -profile p.pb -top -annotate 1
//	daisy-run -workload wc -top -snapshot-every 250ms   # live top screen
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"

	"daisy"
	"daisy/cmd/internal/obs"
	"daisy/internal/vliw"
)

func main() {
	var (
		configName = flag.String("config", "24-16-8-7", "machine configuration (see -list-configs)")
		listCfg    = flag.Bool("list-configs", false, "list machine configurations and exit")
		pageSize   = flag.Uint("pagesize", 4096, "translation page size in bytes")
		wl         = flag.String("workload", "", "run a built-in benchmark instead of a file")
		scale      = flag.Int("scale", 1, "benchmark input scale")
		inputFile  = flag.String("input", "", "file providing the program's input stream")
		useInterp  = flag.Bool("interp", false, "run on the reference interpreter instead")
		check      = flag.Bool("check", false, "run both engines and compare outputs")
		dump       = flag.Bool("dump", false, "dump the entry group's tree VLIWs before running")
		memMB      = flag.Uint("mem", 8, "physical memory size in MiB")
		maxInsts   = flag.Uint64("max", 0, "instruction budget (0 = unlimited)")
		async      = flag.Bool("async", false, "translate asynchronously on a worker pool (hot pages only)")
		cacheDir   = flag.String("txcache", "", "persistent translation cache directory (created if missing)")
		precompile = flag.Bool("precompile", false, "pre-translate the whole binary into -txcache, then exit without running")
		tier2      = flag.Bool("tier2", false, "retranslate hot stable pages at tier-2 (optimizing) effort")
		tier2Thr   = flag.Int("tier2-threshold", 0, "dispatches before a page is tier-2 eligible (0: default 8)")
		tier2Stab  = flag.Uint64("tier2-stability", 0, "instructions a page must stay unmodified before tier-2 (0: default)")
		annotate   = flag.Int("annotate", 0, "print the annotated disassembly of the N hottest pages to stderr (needs -profile)")
	)
	ob := obs.Register()
	flag.Parse()

	if *listCfg {
		for _, c := range daisy.Configs {
			fmt.Printf("%s\t(issue %d, ALU %d, mem %d, branch %d)\n",
				c.Name, c.Issue, c.ALU, c.Mem, c.Branch)
		}
		return
	}
	t2 := tier2Opts{on: *tier2, threshold: *tier2Thr, stability: *tier2Stab}
	if err := run(*configName, uint32(*pageSize), *wl, *scale, *inputFile,
		*useInterp, *check, *dump, uint32(*memMB)<<20, *maxInsts, *async, *cacheDir, *precompile, t2, *annotate, ob, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "daisy-run:", err)
		os.Exit(1)
	}
}

// tier2Opts carries the optimizing-retranslation knobs from the flag set.
type tier2Opts struct {
	on        bool
	threshold int
	stability uint64
}

func run(configName string, pageSize uint32, wl string, scale int, inputFile string,
	useInterp, check, dump bool, memSize uint32, maxInsts uint64,
	async bool, cacheDir string, precompile bool, t2 tier2Opts, annotate int, ob *obs.Flags, args []string) error {

	cfg, err := vliw.ConfigByName(configName)
	if err != nil {
		return err
	}
	if annotate > 0 && ob.ProfileFile == "" {
		return errors.New("-annotate needs -profile FILE")
	}

	var prog *daisy.Program
	var input []byte
	switch {
	case wl != "":
		w, err := daisy.WorkloadByName(wl)
		if err != nil {
			return err
		}
		if prog, err = w.Build(); err != nil {
			return err
		}
		input = w.Input(scale)
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		if prog, err = daisy.Assemble(string(src)); err != nil {
			return err
		}
	default:
		return errors.New("need a source file or -workload NAME")
	}
	if inputFile != "" {
		if input, err = os.ReadFile(inputFile); err != nil {
			return err
		}
	}

	opt := daisy.DefaultOptions()
	opt.Trans.Config = cfg
	opt.Trans.PageSize = pageSize
	opt.AsyncTranslate = async
	opt.Tier2 = t2.on
	opt.Tier2Threshold = t2.threshold
	opt.Tier2Stability = t2.stability
	if cacheDir != "" {
		cache, err := daisy.OpenTranslationCache(cacheDir)
		if err != nil {
			return err
		}
		opt.Cache = cache
	}

	if dump {
		m := daisy.NewMemory(memSize)
		if err := prog.Load(m); err != nil {
			return err
		}
		g, err := daisy.Translate(m, opt.Trans, prog.Entry())
		if err != nil {
			return err
		}
		fmt.Print(g.Dump())
	}

	if precompile {
		if opt.Cache == nil {
			return errors.New("-precompile needs -txcache DIR (the pass has no sink without one)")
		}
		m := daisy.NewMemory(memSize)
		if err := prog.Load(m); err != nil {
			return err
		}
		ma, err := daisy.NewMachine(m, &daisy.Env{}, opt)
		if err != nil {
			return err
		}
		defer ma.Close()
		rep, err := daisy.Precompile(ma, prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[daisy] %v (%s)\n", rep, opt.Cache.Dir())
		return nil
	}

	var interpOut []byte
	var interpInsts uint64
	if useInterp || check {
		m := daisy.NewMemory(memSize)
		if err := prog.Load(m); err != nil {
			return err
		}
		env := &daisy.Env{In: input}
		ip := daisy.NewInterpreter(m, env, prog.Entry())
		if err := ip.Run(maxInsts); !errors.Is(err, daisy.ErrHalt) {
			return fmt.Errorf("interpreter: %w", err)
		}
		interpOut, interpInsts = env.Out, ip.InstCount
		if useInterp {
			os.Stdout.Write(env.Out)
			fmt.Fprintf(os.Stderr, "[interp] %d instructions\n", ip.InstCount)
			return nil
		}
	}

	m := daisy.NewMemory(memSize)
	if err := prog.Load(m); err != nil {
		return err
	}
	env := &daisy.Env{In: input}
	ma, err := daisy.NewMachine(m, env, opt)
	if err != nil {
		return err
	}
	defer ma.Close()
	tel, finish, err := ob.Setup()
	if err != nil {
		return err
	}
	if tel != nil {
		ma.AttachTelemetry(tel)
	}
	runErr := ma.Run(prog.Entry(), maxInsts)
	ma.SyncTelemetry()
	if ferr := finish(); ferr != nil && runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		return runErr
	}
	os.Stdout.Write(env.Out)
	if annotate > 0 { // -profile is set, so tel carries a profile
		prof := tel.Profile()
		for i, ps := range prof.Pages() {
			if i >= annotate {
				break
			}
			fmt.Fprint(os.Stderr, ma.AnnotatedDisassembly(prof, ps.Base))
		}
	}

	s := &ma.Stats
	fmt.Fprintf(os.Stderr, "[daisy] %d base instructions in %d VLIWs (ILP %.2f)\n",
		s.BaseInsts(), s.Exec.VLIWs, s.InfILP())
	fmt.Fprintf(os.Stderr, "[daisy] pages %d, groups %d, interp insts %d, aliases %d, cross-page %d/%d/%d (direct/lr/ctr)\n",
		s.PagesBuilt, s.GroupsBuilt, s.InterpInsts, s.Exec.Aliases,
		s.CrossDirect, s.CrossLR, s.CrossCTR)
	if async {
		fmt.Fprintf(os.Stderr, "[daisy] async: enqueued %d, published %d, pushed back %d, stale dropped %d\n",
			s.AsyncEnqueues, s.AsyncPublishes, s.AsyncQueueFull, s.StaleTranslationsDropped)
	}
	if t2.on {
		fmt.Fprintf(os.Stderr, "[daisy] tier2: promoted %d, dispatches %d, deopts %d, demoted %d\n",
			s.Tier2Promotions, s.Tier2Dispatches, s.Tier2Deopts, s.Tier2Demotions)
	}
	if opt.Cache != nil {
		fmt.Fprintf(os.Stderr, "[daisy] txcache: hits %d (%d hot), misses %d, stores %d (%s)\n",
			s.CacheHits, s.CacheHotHits, s.CacheMisses, s.CacheStores, opt.Cache.Dir())
	}

	if check {
		if !bytes.Equal(interpOut, env.Out) {
			return errors.New("output differs from the interpreter")
		}
		if interpInsts != s.BaseInsts() {
			return fmt.Errorf("instruction counts differ: interp %d, daisy %d",
				interpInsts, s.BaseInsts())
		}
		fmt.Fprintln(os.Stderr, "[check] identical output and instruction counts")
	}
	return nil
}
