// Package perfwall is the performance-trend subsystem: the schema the
// BENCH_*.json snapshots are written in, the manifest that stamps each
// snapshot with its provenance (git SHA, toolchain, host), benchstat-style
// min-of-N comparison with a significance test, the trend wall that lines
// the whole snapshot history up per metric, and the run-folder writer the
// paper harness (cmd/daisy-paper) archives experiment grids into.
package perfwall

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion identifies the snapshot file format: an object holding an
// optional manifest header and the results, with per-rep samples.
const SchemaVersion = 1

// Result is one benchmark's parsed measurements: the standard ns/op,
// B/op and allocs/op plus every custom metric attached with
// b.ReportMetric. With -count N capture, Metrics holds the per-metric
// minimum across the N samples (the benchstat summary statistic) and
// Samples retains every per-rep value in capture order.
type Result struct {
	Name    string               `json:"name"`
	Iters   int64                `json:"iters"` // total iterations across all samples
	Metrics map[string]float64   `json:"metrics"`
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// SampleValues returns every captured value of one metric: the retained
// per-rep samples when present, else the single summary value.
func (r *Result) SampleValues(metric string) []float64 {
	if s := r.Samples[metric]; len(s) > 0 {
		return s
	}
	if v, ok := r.Metrics[metric]; ok {
		return []float64{v}
	}
	return nil
}

// Snapshot is one BENCH_*.json file: an optional provenance manifest and
// the sorted benchmark results. The oldest committed snapshots carry no
// manifest: their provenance is unknown.
type Snapshot struct {
	Manifest *Manifest `json:"manifest,omitempty"`
	Results  []Result  `json:"results"`
}

// Result returns the named benchmark's result, or nil.
func (s *Snapshot) Result(name string) *Result {
	for i := range s.Results {
		if s.Results[i].Name == name {
			return &s.Results[i]
		}
	}
	return nil
}

// Sort orders results by benchmark name (the canonical file order).
func (s *Snapshot) Sort() {
	sort.Slice(s.Results, func(i, j int) bool { return s.Results[i].Name < s.Results[j].Name })
}

// Decode parses schema-1 snapshot bytes.
func Decode(b []byte) (*Snapshot, error) {
	if len(bytes.TrimSpace(b)) == 0 {
		return nil, fmt.Errorf("perfwall: empty snapshot")
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	if s.Manifest != nil && s.Manifest.Schema > SchemaVersion {
		return nil, fmt.Errorf("perfwall: snapshot schema %d is newer than this tool (%d)",
			s.Manifest.Schema, SchemaVersion)
	}
	return &s, nil
}

// ReadSnapshot loads one snapshot file.
func ReadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the snapshot in the schema-1 form, results sorted,
// trailing newline included.
func (s *Snapshot) Encode() ([]byte, error) {
	s.Sort()
	if s.Manifest != nil {
		s.Manifest.Schema = SchemaVersion
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteSnapshot writes the snapshot to path in the schema-1 form.
func WriteSnapshot(path string, s *Snapshot) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
