// Package perfwall archives paper-harness runs: the manifest that stamps
// each run with its provenance (git SHA, toolchain, host) and the
// run-folder writer cmd/daisy-paper archives experiment grids into.
package perfwall

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// schemaVersion identifies the run-folder manifest format.
const schemaVersion = 1

// Manifest stamps a run folder with everything needed to interpret its
// numbers later: what code ran, on what toolchain, on what host.
type Manifest struct {
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
}

// CollectManifest fills a manifest from the current process and host.
// Fields that cannot be determined (no git binary, no /proc/cpuinfo) are
// left empty rather than failing: a manifest is provenance, not a gate.
func CollectManifest(tool string) *Manifest {
	m := &Manifest{
		Schema:     schemaVersion,
		Tool:       tool,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if sha, dirty, ok := gitHead(); ok {
		m.GitSHA, m.GitDirty = sha, dirty
	}
	return m
}

func gitHead() (sha string, dirty, ok bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false, false
	}
	sha = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	if err == nil && strings.TrimSpace(string(st)) != "" {
		dirty = true
	}
	return sha, dirty, true
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
