// Package obs is the shared observability flag plumbing for the daisy
// command-line tools: one -telemetry switch plus exporter/profiling flags,
// so daisy-run and daisy-chaos expose the same surface. -top prints the
// top screen (and, with -profile, the guest profile's flat report) at
// exit, or redraws it every -snapshot-every interval; -profile re-reads
// and validates the pprof payload it wrote.
package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"daisy/internal/telemetry"
)

// Flags holds the registered observability flags.
type Flags struct {
	Telemetry     bool
	Sample        int
	TraceCap      int
	PromFile      string
	JSONLFile     string
	ChromeFile    string
	ProfileFile   string
	Spans         bool
	Top           bool
	CPUProfile    string
	MemProfile    string
	SnapshotEvery time.Duration
}

// Register installs the flags on the default flag set.
func Register() *Flags {
	f := &Flags{}
	def := telemetry.DefaultOptions()
	flag.BoolVar(&f.Telemetry, "telemetry", false, "attach the telemetry layer (metrics + event trace)")
	flag.IntVar(&f.Sample, "sample", def.SampleEvery, "telemetry: sample 1 in N dispatches")
	flag.IntVar(&f.TraceCap, "trace-cap", def.TraceCap, "telemetry: event ring capacity (0 disables tracing)")
	flag.StringVar(&f.PromFile, "prom", "", "telemetry: write Prometheus text metrics to FILE at exit")
	flag.StringVar(&f.JSONLFile, "trace-jsonl", "", "telemetry: write the event trace as JSONL to FILE at exit")
	flag.StringVar(&f.ChromeFile, "trace-chrome", "", "telemetry: write a Chrome trace_event file to FILE at exit")
	flag.StringVar(&f.ProfileFile, "profile", "", "telemetry: write a guest pprof profile (base-PC attribution) to FILE at exit")
	flag.BoolVar(&f.Spans, "spans", false, "telemetry: trace page-lifecycle spans (begin/end events + latency histograms)")
	flag.BoolVar(&f.Top, "top", false, "telemetry: print a daisy-top screen (plus the -profile flat report) to stderr at exit; with -snapshot-every, redraw it every interval")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to FILE")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to FILE at exit")
	flag.DurationVar(&f.SnapshotEvery, "snapshot-every", 0, "telemetry: print a snapshot line (with -top: the top screen) to stderr every interval")
	return f
}

// Enabled reports whether any flag implies a telemetry instance.
func (f *Flags) Enabled() bool {
	return f.Telemetry || f.PromFile != "" || f.JSONLFile != "" ||
		f.ChromeFile != "" || f.ProfileFile != "" || f.Spans ||
		f.Top || f.SnapshotEvery > 0
}

// Setup builds the telemetry instance (nil if not enabled) and starts
// profiling / periodic snapshots. The returned finish func stops them and
// writes every requested export; call it exactly once, after the run.
func (f *Flags) Setup() (tel *telemetry.Telemetry, finish func() error, err error) {
	var stops []func()
	if f.CPUProfile != "" {
		stop, err := telemetry.StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, nil, err
		}
		stops = append(stops, stop)
	}
	if f.Enabled() {
		tel = telemetry.New(telemetry.Options{
			SampleEvery: f.Sample,
			TraceCap:    f.TraceCap,
			Profile:     f.ProfileFile != "",
			Spans:       f.Spans,
		})
		if f.SnapshotEvery > 0 {
			render := func(elapsed time.Duration) string {
				return fmt.Sprintf("[%8.3fs] %s\n", elapsed.Seconds(), tel.Snapshot().JSON())
			}
			if f.Top {
				render = func(elapsed time.Duration) string {
					return "\x1b[2J\x1b[H" + telemetry.RenderTop(tel.Snapshot(), elapsed, telemetry.TopOptions{})
				}
			}
			stops = append(stops, telemetry.Periodic(os.Stderr, f.SnapshotEvery, render))
		}
	}
	start := time.Now()
	finish = func() error {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		if f.MemProfile != "" {
			if err := telemetry.WriteHeapProfile(f.MemProfile); err != nil {
				return err
			}
		}
		if tel == nil {
			return nil
		}
		prof := tel.Profile()
		if f.Top {
			fmt.Fprint(os.Stderr, telemetry.RenderTop(tel.Snapshot(), time.Since(start), telemetry.TopOptions{}))
			if prof != nil {
				fmt.Fprint(os.Stderr, prof.RenderTop(10))
			}
		}
		if f.PromFile != "" {
			if err := writeFile(f.PromFile, func(w *os.File) error {
				return tel.Snapshot().WritePrometheus(w)
			}); err != nil {
				return err
			}
		}
		if prof != nil {
			if err := writeFile(f.ProfileFile, func(w *os.File) error {
				return writePprof(prof, w)
			}); err != nil {
				return err
			}
			if err := validatePprof(f.ProfileFile); err != nil {
				return err
			}
		}
		tr := tel.Tracer()
		if f.JSONLFile != "" && tr != nil {
			if err := writeFile(f.JSONLFile, func(w *os.File) error { return tr.WriteJSONL(w) }); err != nil {
				return err
			}
		}
		if f.ChromeFile != "" && tr != nil {
			if err := writeFile(f.ChromeFile, func(w *os.File) error { return tr.WriteChromeTrace(w) }); err != nil {
				return err
			}
		}
		return nil
	}
	return tel, finish, nil
}

// writePprof is the profile encoder; a test swaps it to plant a damaged
// payload.
var writePprof = func(p *telemetry.Profile, w io.Writer) error { return p.WritePprof(w) }

// validatePprof re-reads a written pprof payload and fails unless it
// parses, so a run never leaves a profile go tool pprof cannot open.
func validatePprof(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := telemetry.ValidatePprof(r); err != nil {
		return fmt.Errorf("%s: pprof payload invalid: %w", path, err)
	}
	return nil
}

func writeFile(path string, fn func(*os.File) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
