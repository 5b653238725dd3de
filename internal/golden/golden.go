// Package golden records deterministic execution fingerprints of the
// workload suite — per-boundary register digests plus telemetry
// event-stream digests — and locks them down as testdata goldens. It is
// the standing oracle of this repo: any change to translation, chaining,
// recovery or tracing that alters observable behaviour shows up as a
// golden diff, reviewed explicitly via `go test ./internal/golden -update`.
package golden

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/ppc"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// memSize matches the chaos harness's workload memory image.
const memSize = 8 << 20

// checkpointEvery is the boundary stride between recorded intermediate
// digests: frequent enough to localize a regression to a slice of the run,
// sparse enough to keep golden files small.
const checkpointEvery = 1024

// Checkpoint is an intermediate state digest at one precise boundary.
type Checkpoint struct {
	Boundary uint64 `json:"boundary"`
	Digest   string `json:"digest"`
}

// Run is the golden fingerprint of one workload execution on the DAISY
// machine. Every field is a deterministic function of (workload, scale).
type Run struct {
	Workload    string       `json:"workload"`
	Scale       int          `json:"scale"`
	Boundaries  uint64       `json:"boundaries"`   // precise VLIW boundaries (Observer.Boundary)
	StateDigest string       `json:"state_digest"` // rolling FNV over the registers at every boundary
	Checkpoints []Checkpoint `json:"checkpoints"`
	Insts       uint64       `json:"insts"` // completed base instructions
	OutputLen   int          `json:"output_len"`
	OutputFNV   string       `json:"output_fnv"`
	FinalDigest string       `json:"final_digest"` // digest of the halt state alone
}

// Events is the golden fingerprint of the telemetry event stream produced
// by the same run: total count, per-kind counts, and the tracer's rolling
// digest (which covers every event, including any the ring overwrote).
type Events struct {
	Workload    string            `json:"workload"`
	Scale       int               `json:"scale"`
	SampleEvery int               `json:"sample_every"`
	TraceCap    int               `json:"trace_cap"`
	Events      uint64            `json:"events"`
	Digest      string            `json:"digest"`
	ByKind      map[string]uint64 `json:"by_kind"`
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvWord(d, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		d = (d ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return d
}

// StateDigest hashes every architected register of one state.
func StateDigest(st *ppc.State) uint64 {
	d := uint64(fnvOffset)
	for _, g := range st.GPR {
		d = fnvWord(d, uint64(g))
	}
	for _, w := range [...]uint32{st.CR, st.LR, st.CTR, st.XER, st.PC, st.MSR,
		st.SRR0, st.SRR1, st.DAR, st.DSISR, st.SDR1} {
		d = fnvWord(d, uint64(w))
	}
	return d
}

func fnvBytes(b []byte) uint64 {
	d := uint64(fnvOffset)
	for _, c := range b {
		d = (d ^ uint64(c)) * fnvPrime
	}
	return d
}

// CaptureRun executes one workload on the DAISY machine with the default
// options, digesting the architected registers at every precise boundary
// and the full state at the halt. A non-nil telemetry instance is attached
// to the machine (and synced at the end), so the same run also yields the
// event-stream golden.
func CaptureRun(w workload.Workload, scale int, tel *telemetry.Telemetry) (*Run, error) {
	return CaptureRunOpts(w, scale, tel, vmm.DefaultOptions())
}

// CaptureRunOpts is CaptureRun under explicit machine options: the tier-2
// equivalence wall runs the same workloads with optimizing retranslation
// pinned on and holds their guest output to the tier-1 fingerprints.
//
// The per-boundary digests follow the machine's precise points, not how
// often StepGroup returns to its caller, so a dispatch that stays in the
// run loop leaves them unchanged. A boundary digest covers the registers
// in Exec.RF and the machine-state registers in St; the PC is not tracked
// between dispatches and is left out (FinalDigest includes it).
func CaptureRunOpts(w workload.Workload, scale int, tel *telemetry.Telemetry, opt vmm.Options) (*Run, error) {
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return nil, err
	}
	env := &interp.Env{In: w.Input(scale)}
	ma, err := vmm.NewMachine(m, env, opt)
	if err != nil {
		return nil, err
	}
	if tel != nil {
		ma.AttachTelemetry(tel)
	}

	r := &Run{Workload: w.Name, Scale: scale}
	digest := uint64(fnvOffset)
	ma.Observe(vmm.OnBoundary(func(uint64) {
		st := ma.St
		ma.Exec.RF.ToState(&st)
		st.PC = 0
		r.Boundaries++
		digest = fnvWord(digest, StateDigest(&st))
		if r.Boundaries%checkpointEvery == 0 {
			r.Checkpoints = append(r.Checkpoints, Checkpoint{
				Boundary: r.Boundaries,
				Digest:   fmt.Sprintf("%016x", digest),
			})
		}
	}))
	if err := ma.Run(prog.Entry(), 0); err != nil {
		return nil, fmt.Errorf("golden: %s boundary %d: %w", w.Name, r.Boundaries, err)
	}
	ma.SyncTelemetry()
	r.StateDigest = fmt.Sprintf("%016x", digest)
	r.FinalDigest = fmt.Sprintf("%016x", StateDigest(&ma.St))
	r.Insts = ma.Stats.BaseInsts()
	r.OutputLen = len(env.Out)
	r.OutputFNV = fmt.Sprintf("%016x", fnvBytes(env.Out))
	return r, nil
}

// CaptureEvents summarizes an attached telemetry instance's event stream
// after a CaptureRun.
func CaptureEvents(w workload.Workload, scale int, tel *telemetry.Telemetry, opt telemetry.Options) *Events {
	tr := tel.Tracer()
	e := &Events{
		Workload:    w.Name,
		Scale:       scale,
		SampleEvery: opt.SampleEvery,
		TraceCap:    opt.TraceCap,
	}
	if tr != nil {
		e.Events = tr.Len()
		e.Digest = fmt.Sprintf("%016x", tr.Digest())
		e.ByKind = tr.CountByKind()
	}
	return e
}

// WriteJSON writes v as indented JSON to path, creating parent directories.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJSON reads path into v.
func ReadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
