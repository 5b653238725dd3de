// daisy-bench parses `go test -bench` output on stdin into a schema-1
// BENCH_*.json snapshot on stdout, seeding the repository's performance
// trajectory: every `make bench` writes a dated BENCH_<date>.json, and
// `daisy-trend check` compares two of them.
//
// A snapshot carries a provenance manifest (git SHA, go version, CPU
// model, GOMAXPROCS, benchtime, count) and, when the suite ran with
// -count N, the full per-metric sample distributions alongside the min
// summary — the raw material daisy-trend's significance test needs.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -count=4 -benchmem | daisy-bench -benchtime=1x -count=4
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"daisy/internal/perfwall"
)

func main() {
	var (
		benchtime = flag.String("benchtime", "", "benchtime the suite ran with, recorded in the manifest")
		count     = flag.Int("count", 1, "count the suite ran with, recorded in the manifest")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := parseToJSON(*benchtime, *count); err != nil {
		fmt.Fprintln(os.Stderr, "daisy-bench:", err)
		os.Exit(1)
	}
}

// parseToJSON reads `go test -bench` output and emits a schema-1
// snapshot, echoing the raw input to stderr so a piped `make bench`
// still shows the live benchmark progress. Repeated lines for the same
// benchmark (-count N) fold into one Result: the summary metrics keep
// the per-metric minimum, Iters sums across runs, and the raw values
// are retained in capture order under Samples.
func parseToJSON(benchtime string, count int) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	byName := map[string]*perfwall.Result{}
	var order []string
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		name, iters, metrics, ok := parseLine(line)
		if !ok {
			continue
		}
		r := byName[name]
		if r == nil {
			r = &perfwall.Result{Name: name,
				Metrics: map[string]float64{},
				Samples: map[string][]float64{}}
			byName[name] = r
			order = append(order, name)
		}
		r.Iters += iters
		for m, v := range metrics {
			if old, seen := r.Metrics[m]; !seen || v < old {
				r.Metrics[m] = v
			}
			r.Samples[m] = append(r.Samples[m], v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	m := perfwall.CollectManifest("daisy-bench")
	m.BenchTime = benchtime
	m.Count = count
	snap := &perfwall.Snapshot{Manifest: m}
	for _, name := range order {
		r := *byName[name]
		// A single run per benchmark carries no distribution worth
		// storing; drop the redundant one-element sample arrays.
		if allSingle(r.Samples) {
			r.Samples = nil
		}
		snap.Results = append(snap.Results, r)
	}
	b, err := snap.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

func allSingle(samples map[string][]float64) bool {
	for _, vs := range samples {
		if len(vs) > 1 {
			return false
		}
	}
	return true
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   1   123456 ns/op   3.14 some-metric   456 B/op   7 allocs/op
func parseLine(line string) (name string, iters int64, metrics map[string]float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", 0, nil, false
	}
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", 0, nil, false
	}
	metrics = map[string]float64{}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", 0, nil, false
		}
		metrics[f[i+1]] = v
	}
	return name, iters, metrics, len(metrics) > 0
}
