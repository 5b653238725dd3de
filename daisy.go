// Package daisy is a reproduction of DAISY (Dynamically Architected
// Instruction Set from Yorktown) — Ebcioglu & Altman, "DAISY: Dynamic
// Compilation for 100% Architectural Compatibility" (IBM RC 20538 /
// ISCA 1997): a tree-VLIW machine whose Virtual Machine Monitor
// dynamically translates base-architecture (PowerPC subset) binaries,
// page by page, into parallelized VLIW code with precise exceptions
// maintained entirely in software.
//
// The package is a facade over the implementation:
//
//   - Assemble builds base-architecture binaries from assembly source.
//   - NewMachine constructs a DAISY machine (translator + tree-VLIW
//     executor + VMM) over a memory image; Machine.Run executes a binary
//     with 100% architectural compatibility.
//   - NewInterpreter is the reference semantics every run can be checked
//     against.
//   - Translate exposes the incremental compiler directly, producing the
//     tree-VLIW groups for inspection.
//   - Workloads returns the benchmark suite used by the paper-shaped
//     experiments; the experiment tables themselves are regenerated by
//     cmd/daisy-paper.
//   - RunChaos executes a workload under seeded fault injection with the
//     machine and the reference interpreter in lockstep, bisecting any
//     divergence to the base instruction that caused it (cmd/daisy-chaos
//     is the command-line front end).
package daisy

import (
	"fmt"

	"daisy/internal/asm"
	"daisy/internal/chaos"
	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/telemetry"
	"daisy/internal/txcache"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// Re-exported core types. The aliases are the public names; see the
// internal packages for full documentation.
type (
	// Machine is a base-architecture machine implemented by dynamic
	// translation onto the tree VLIW (the paper's complete system).
	Machine = vmm.Machine
	// MachineOptions configures the VMM (page pool, interpretation
	// budget) and embeds TranslatorOptions.
	MachineOptions = vmm.Options
	// MachineStats are the dynamic counters behind the paper's tables.
	MachineStats = vmm.Stats
	// TranslatorOptions tune the incremental compiler (machine
	// configuration, page size, window, unrolling, speculation).
	TranslatorOptions = core.Options
	// Translator is the incremental compiler itself.
	Translator = core.Translator
	// Config is a VLIW resource configuration (issue/ALU/memory/branch).
	Config = vliw.Config
	// Group is a translated group of tree-VLIW instructions.
	Group = vliw.Group
	// Program is an assembled base-architecture binary.
	Program = asm.Program
	// Memory is the base architecture's physical memory.
	Memory = mem.Memory
	// Env is the I/O environment (input stream, output stream).
	Env = interp.Env
	// Interp is the reference interpreter.
	Interp = interp.Interp
	// State is the architected register state of the base architecture.
	State = ppc.State
	// Workload is one benchmark program with input generator and oracle.
	Workload = workload.Workload
	// ChaosScenario describes one fault-injection lockstep run: a
	// workload, an injector, and the seed its disturbances derive from.
	ChaosScenario = chaos.Scenario
	// ChaosReport is the outcome of a chaos run, including any
	// divergence bisected to its base instruction.
	ChaosReport = chaos.Report
	// ChaosInjector perturbs the machine's translation machinery
	// deterministically from a seed.
	ChaosInjector = chaos.Injector
	// Divergence records a lockstep mismatch: the suspect window, the
	// first diverging boundary, and the attributed base instruction.
	Divergence = chaos.Divergence
	// Telemetry is the observability layer: a metrics registry plus a
	// structured event tracer, attached to a Machine with
	// Machine.AttachTelemetry (zero allocation when not attached).
	Telemetry = telemetry.Telemetry
	// TelemetryOptions configure sampling rate and trace-ring capacity.
	TelemetryOptions = telemetry.Options
	// TelemetrySnapshot is a point-in-time copy of every metric, exportable
	// as Prometheus text or JSON; Canonical() zeroes host-clock values for
	// deterministic comparison.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one structured event from the telemetry ring.
	TraceEvent = telemetry.Event
	// TranslationCache is the persistent cross-run translation cache:
	// a content-addressed store of finished page translations, set on
	// MachineOptions.Cache.
	TranslationCache = txcache.Store
	// TranslationFault is a chaos-planted fault in one translation
	// attempt, set via Machine.FaultTranslation; the VMM's panic
	// isolation, watchdog, and retry machinery absorb every field.
	TranslationFault = vmm.TranslationFault
	// PrecompileReport summarizes one whole-binary pre-translation pass
	// (Precompile).
	PrecompileReport = vmm.PrecompileReport
)

// Machine configurations from the paper's evaluation.
var (
	// BigConfig is the 24-issue tree VLIW of the headline results.
	BigConfig = vliw.BigConfig
	// EightIssueConfig is the 8-issue machine of Table 5.5.
	EightIssueConfig = vliw.EightIssueConfig
	// Configs are the ten machine points of Figure 5.1.
	Configs = vliw.Configs
)

// Assemble assembles base-architecture source (see internal/asm for the
// syntax) into a loadable Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// NewMemory allocates a physical memory image of the given size.
func NewMemory(size uint32) *Memory { return mem.New(size) }

// DefaultOptions returns the paper's headline setup: the 24-issue machine,
// 4K translation pages, precise exceptions, load speculation with
// load-verify, and return inlining.
func DefaultOptions() MachineOptions { return vmm.DefaultOptions() }

// NewMachine builds a DAISY machine over a loaded memory image. The
// options are validated first: explicit nonsense (negative pool sizes,
// budgets, thresholds) and inconsistent combinations (a quarantine policy
// without a window, async knobs without AsyncTranslate, a persistent
// cache on Interpretive mode) are rejected with a descriptive error
// instead of being silently normalized.
func NewMachine(m *Memory, env *Env, opt MachineOptions) (*Machine, error) {
	return vmm.NewMachine(m, env, opt)
}

// NewInterpreter builds the reference interpreter over a loaded memory
// image, starting at entry.
func NewInterpreter(m *Memory, env *Env, entry uint32) *Interp {
	return interp.New(m, env, entry)
}

// Translate runs the incremental compiler over the page containing entry
// and returns the group translated at entry, for inspection (Group.Dump
// renders the tree VLIWs).
func Translate(m *Memory, opt TranslatorOptions, entry uint32) (*Group, error) {
	t := core.New(m, opt)
	pt, err := t.TranslatePage(entry)
	if err != nil {
		return nil, err
	}
	g, ok := pt.Groups[entry]
	if !ok {
		return nil, fmt.Errorf("daisy: no group translated at entry %#x (page holds %d groups; is the entry a valid instruction boundary?)", entry, len(pt.Groups))
	}
	return g, nil
}

// DefaultTranslatorOptions returns the translator half of DefaultOptions.
func DefaultTranslatorOptions() TranslatorOptions { return core.DefaultOptions() }

// Workloads returns the benchmark suite (compress, lex, fgrep, wc, cmp,
// sort, c_sieve and the gcc stand-in).
func Workloads() []Workload { return workload.All() }

// WorkloadByName returns one benchmark.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// ErrHalt is returned by the interpreter on a clean program halt.
var ErrHalt = interp.ErrHalt

// RunChaos executes one fault-injection lockstep run: the machine and
// the reference interpreter execute the scenario side by side and are
// compared at every precise boundary; any divergence in the returned
// report has been bisected to the base instruction that caused it.
func RunChaos(sc ChaosScenario) (*ChaosReport, error) { return chaos.Run(sc) }

// ChaosInjectors returns the built-in fault injectors (forced aliases,
// memory faults, spurious code-modification events, cast-out churn,
// interpreter starvation).
func ChaosInjectors() []ChaosInjector { return chaos.Injectors() }

// ChaosInjectorByName resolves an injector by its Name; "" and "none"
// mean no injection.
func ChaosInjectorByName(name string) (ChaosInjector, error) { return chaos.ByName(name) }

// OpenTranslationCache opens (creating if needed) a persistent
// translation cache rooted at dir. Set it on MachineOptions.Cache and
// translations persist across runs, keyed by page bytes and translator
// options; damaged or stale entries fall back to fresh translation.
func OpenTranslationCache(dir string) (*TranslationCache, error) { return txcache.Open(dir) }

// Precompile translates every page of the loaded program into the
// machine's persistent translation cache (MachineOptions.Cache) in one
// parallel pass, before any guest instruction runs. A fleet of machines
// sharing one cache pays translation once, up front, instead of serially
// on first touch; a later Run then installs pages straight from the
// cache. Precompilation only ever writes the content-addressed store —
// it never installs translations into the machine — so it composes
// safely with live execution: a page whose bytes change simply re-keys
// and misses. Pages that do not translate (data pages) are counted in
// the report and skipped; they degrade to the normal interpret/translate
// path if ever executed.
func Precompile(ma *Machine, prog *Program) (PrecompileReport, error) {
	ps := ma.Trans.Opt.PageSize
	entry := prog.Entry()
	var entries []uint32
	for _, c := range prog.Chunks {
		if len(c.Data) == 0 {
			continue
		}
		end := c.Addr + uint32(len(c.Data))
		for base := c.Addr &^ (ps - 1); base < end; base += ps {
			// Translate from the program entry when it lives in this page
			// (the one entry point known without execution); otherwise from
			// the page base.
			e := base
			if entry >= base && entry < base+ps {
				e = entry
			}
			entries = append(entries, e)
		}
	}
	return ma.Precompile(entries)
}

// NewTelemetry builds a telemetry instance; attach it to a machine with
// Machine.AttachTelemetry and read it with Snapshot, the tracer's
// WriteJSONL/WriteChromeTrace, or telemetry.RenderTop.
func NewTelemetry(opt TelemetryOptions) *Telemetry { return telemetry.New(opt) }

// DefaultTelemetryOptions returns 1-in-64 sampling with a 64K-event ring.
func DefaultTelemetryOptions() TelemetryOptions { return telemetry.DefaultOptions() }
