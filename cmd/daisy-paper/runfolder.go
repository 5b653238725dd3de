package main

// The run folder daisy-paper archives a reproduction into: every table as
// text, CSV and markdown under tables/, auxiliary payloads, a human
// README.md index and manifest.json, which stamps the run with its
// provenance so its numbers can be interpreted later.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"daisy/internal/stats"
)

// schemaVersion identifies the manifest.json format.
const schemaVersion = 1

// manifest is manifest.json: what code ran, on what toolchain and host,
// at what scale, and how long each experiment took. Timing fields (the
// wall times) are the only nondeterministic content.
type manifest struct {
	Schema     int    `json:"schema"`
	Tool       string `json:"tool"`
	Date       string `json:"date"` // RFC 3339, capture time
	GitSHA     string `json:"git_sha,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"` // host CPU model string
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Scale       int                `json:"scale"`
	Args        []string           `json:"args,omitempty"`
	Experiments []experimentRecord `json:"experiments"`
	TotalWallMS float64            `json:"total_wall_ms"`
}

// experimentRecord is one grid entry's accounting.
type experimentRecord struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Rows   int     `json:"rows"`
	WallMS float64 `json:"wall_ms"`
}

// runFolder writes one paper-harness run.
type runFolder struct {
	dir string
	m   manifest
}

// newRunFolder creates dir (and parents) and stamps the manifest from the
// current process and host. Provenance that cannot be determined (no git
// binary, no /proc/cpuinfo) is left empty rather than failing: a manifest
// is provenance, not a gate.
func newRunFolder(dir string, scale int, args []string) (*runFolder, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tables"), 0o755); err != nil {
		return nil, err
	}
	rf := &runFolder{dir: dir, m: manifest{
		Schema:     schemaVersion,
		Tool:       "daisy-paper",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Args:       args,
	}}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rf.m.GitSHA = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		rf.m.GitDirty = err == nil && strings.TrimSpace(string(st)) != ""
	}
	return rf, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		// x86 writes "model name", arm64 writes "Processor"/"CPU part".
		if strings.HasPrefix(line, "model name") || strings.HasPrefix(line, "Processor") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// addTable archives one experiment table in all three renderings and
// records it in the manifest.
func (rf *runFolder) addTable(id string, t *stats.Table, wallMS float64) error {
	base := filepath.Join(rf.dir, "tables", sanitize(id))
	if err := os.WriteFile(base+".txt", []byte(t.String()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".csv", []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".md", []byte(t.Markdown()), 0o644); err != nil {
		return err
	}
	rf.m.Experiments = append(rf.m.Experiments, experimentRecord{
		ID: id, Title: t.Title, Rows: t.Rows(), WallMS: wallMS,
	})
	rf.m.TotalWallMS += wallMS
	return nil
}

// writeFile writes raw bytes under the run folder, creating subdirs.
func (rf *runFolder) writeFile(name string, b []byte) error {
	path := filepath.Join(rf.dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// finish writes the manifest and a human index of the run.
func (rf *runFolder) finish() error {
	mb, err := json.MarshalIndent(rf.m, "", "  ")
	if err != nil {
		return err
	}
	if err := rf.writeFile("manifest.json", append(mb, '\n')); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# daisy-paper run\n\n")
	fmt.Fprintf(&b, "- date: %s\n- git: %s\n- go: %s\n- cpu: %s\n- scale: %d\n\n",
		rf.m.Date, rf.m.GitSHA, rf.m.GoVersion, rf.m.CPU, rf.m.Scale)
	fmt.Fprintf(&b, "| experiment | rows | wall ms |\n|---|---|---|\n")
	for _, e := range rf.m.Experiments {
		fmt.Fprintf(&b, "| [%s](tables/%s.md) | %d | %.1f |\n", e.ID, sanitize(e.ID), e.Rows, e.WallMS)
	}
	return rf.writeFile("README.md", []byte(b.String()))
}

// validate re-reads a finished run folder and checks its integrity: a
// parseable manifest with provenance fields, and all three renderings of
// every recorded table present and non-empty. This is what
// `make paper-smoke` asserts.
func validate(dir string) error {
	var m manifest
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("manifest.json: %w", err)
	}
	if m.GoVersion == "" || m.Date == "" || m.Tool == "" {
		return fmt.Errorf("manifest.json: missing provenance fields: %+v", m)
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
