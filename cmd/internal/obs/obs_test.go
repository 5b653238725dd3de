package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// runProfiled drives one workload through Setup, an attached machine and
// finish, returning finish's error.
func runProfiled(t *testing.T, f *Flags) error {
	t.Helper()
	tel, finish, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New(8 << 20)
	if err := prog.Load(mm); err != nil {
		t.Fatal(err)
	}
	ma := vmm.New(mm, &interp.Env{In: w.Input(1)}, vmm.DefaultOptions())
	defer ma.Close()
	ma.AttachTelemetry(tel)
	if err := ma.Run(prog.Entry(), 0); err != nil {
		t.Fatal(err)
	}
	ma.SyncTelemetry()
	return finish()
}

func TestProfileFileValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pb")
	if err := runProfiled(t, &Flags{Sample: 1, ProfileFile: path}); err != nil {
		t.Fatal(err)
	}
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := telemetry.ValidatePprof(r); err != nil {
		t.Fatalf("written payload does not validate: %v", err)
	}
}

// TestTruncatedProfileFailsFinish plants a payload cut in half: finish
// must report it instead of leaving an unreadable profile behind.
func TestTruncatedProfileFailsFinish(t *testing.T) {
	saved := writePprof
	defer func() { writePprof = saved }()
	writePprof = func(p *telemetry.Profile, w io.Writer) error {
		var b bytes.Buffer
		if err := p.WritePprof(&b); err != nil {
			return err
		}
		_, err := w.Write(b.Bytes()[:b.Len()/2])
		return err
	}
	path := filepath.Join(t.TempDir(), "p.pb")
	if err := runProfiled(t, &Flags{Sample: 1, ProfileFile: path}); err == nil {
		t.Fatal("finish accepted a truncated pprof payload")
	}
}
