package perfwall

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"daisy/internal/stats"
)

// RunManifest is the machine-readable header of one paper-harness run
// folder: full provenance plus what ran, at what scale, and how long
// each experiment took. Timing fields (WallMS) are the only
// nondeterministic content.
type RunManifest struct {
	Manifest
	Scale       int                `json:"scale"`
	Args        []string           `json:"args,omitempty"`
	Experiments []ExperimentRecord `json:"experiments"`
	TotalWallMS float64            `json:"total_wall_ms"`
}

// ExperimentRecord is one grid entry's accounting.
type ExperimentRecord struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Rows   int     `json:"rows"`
	WallMS float64 `json:"wall_ms"`
}

// RunFolder writes one timestamped paper-harness run: tables as text,
// CSV and markdown, the manifest and auxiliary payloads.
type RunFolder struct {
	Dir      string
	manifest RunManifest
}

// NewRunFolder creates dir (and parents) and returns the writer. The
// folder name is the caller's business — daisy-paper passes a timestamp.
func NewRunFolder(dir string, m *Manifest, scale int, args []string) (*RunFolder, error) {
	for _, sub := range []string{"", "tables"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	rf := &RunFolder{Dir: dir}
	rf.manifest = RunManifest{Scale: scale, Args: args}
	if m != nil {
		rf.manifest.Manifest = *m
	}
	return rf, nil
}

// AddTable archives one experiment table in all three renderings and
// records it in the manifest.
func (rf *RunFolder) AddTable(id string, t *stats.Table, wallMS float64) error {
	base := filepath.Join(rf.Dir, "tables", sanitize(id))
	if err := os.WriteFile(base+".txt", []byte(t.String()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".csv", []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".md", []byte(t.Markdown()), 0o644); err != nil {
		return err
	}
	rf.manifest.Experiments = append(rf.manifest.Experiments, ExperimentRecord{
		ID: id, Title: t.Title, Rows: t.Rows(), WallMS: wallMS,
	})
	rf.manifest.TotalWallMS += wallMS
	return nil
}

// WriteFile writes raw bytes under the run folder, creating subdirs.
func (rf *RunFolder) WriteFile(name string, b []byte) error {
	path := filepath.Join(rf.Dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Finish writes the manifest and a human index of the run.
func (rf *RunFolder) Finish() error {
	mb, err := json.MarshalIndent(rf.manifest, "", "  ")
	if err != nil {
		return err
	}
	if err := rf.WriteFile("manifest.json", append(mb, '\n')); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# daisy-paper run\n\n")
	fmt.Fprintf(&b, "- date: %s\n- git: %s\n- go: %s\n- cpu: %s\n- scale: %d\n\n",
		rf.manifest.Date, rf.manifest.GitSHA, rf.manifest.GoVersion, rf.manifest.CPU, rf.manifest.Scale)
	fmt.Fprintf(&b, "| experiment | rows | wall ms |\n|---|---|---|\n")
	for _, e := range rf.manifest.Experiments {
		fmt.Fprintf(&b, "| [%s](tables/%s.md) | %d | %.1f |\n", e.ID, sanitize(e.ID), e.Rows, e.WallMS)
	}
	return rf.WriteFile("README.md", []byte(b.String()))
}

// Validate re-reads a finished run folder and checks its integrity: a
// parseable manifest with provenance fields, and all three renderings of
// every recorded table present and non-empty. This is what
// `make paper-smoke` asserts.
func Validate(dir string) error {
	var m RunManifest
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("manifest.json: %w", err)
	}
	if m.GoVersion == "" || m.Date == "" || m.Tool == "" {
		return fmt.Errorf("manifest.json: missing provenance fields: %+v", m.Manifest)
	}
	if len(m.Experiments) == 0 {
		return fmt.Errorf("manifest.json: no experiments recorded")
	}
	for _, e := range m.Experiments {
		for _, ext := range []string{".txt", ".csv", ".md"} {
			p := filepath.Join(dir, "tables", sanitize(e.ID)+ext)
			st, err := os.Stat(p)
			if err != nil {
				return err
			}
			if st.Size() == 0 {
				return fmt.Errorf("%s: empty table rendering", p)
			}
		}
	}
	return nil
}

func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, id)
}
