package main

// -compare A.json B.json: for every workload and end-to-end metric, the
// medians of the untraced runs in two -out files, the relative change from
// A to B, and whether B is worse than A by more than the metric's bound in
// BENCHMARK.json.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec reads BENCHMARK.json from the working directory, which is the
// repository root under run.sh, or else from its parent (bench/ under
// go test).
func readSpec() (*benchSpec, error) {
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var data []byte
		if data, err = os.ReadFile(p); err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			return &s, nil
		}
	}
	return nil, err
}

// runSet is the untraced results of one -out file.
type runSet struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	failed map[string]int                  // workload → failed jobs over all runs
}

func readRuns(path string) (runSet, error) {
	rs := runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l outLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		if l.Traced {
			continue
		}
		if rs.values[l.Workload] == nil {
			rs.values[l.Workload] = map[string][]float64{}
		}
		for name, m := range l.Metrics {
			rs.values[l.Workload][name] = append(rs.values[l.Workload][name], m.Value)
		}
		rs.failed[l.Workload] += l.Failed
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.values) == 0 {
		return rs, fmt.Errorf("%s: no untraced results", path)
	}
	return rs, nil
}

func compareFiles(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two -out files: A.json B.json")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: read BENCHMARK.json: %v\n", err)
		return 2
	}
	a, errA := readRuns(args[0])
	b, errB := readRuns(args[1])
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	worse := false
	// missing reports a workload or metric that one of the files lacks; it
	// counts as worse, so a dropped or renamed metric cannot pass unseen.
	missing := func(what string, inA bool) {
		file := args[0]
		if inA {
			file = args[1]
		}
		fmt.Fprintf(stdout, "%s missing from %s\n", what, file)
		worse = true
	}
	fmt.Fprintf(stdout, "%-8s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A median", "B median", "change", "bound")
	for _, w := range workloads {
		av, bv := a.values[w.name], b.values[w.name]
		if av == nil && bv == nil {
			continue
		}
		if av == nil || bv == nil {
			missing(fmt.Sprintf("%-8s", w.name), av != nil)
			continue
		}
		for _, m := range spec.EndToEnd {
			if len(av[m.Name]) == 0 || len(bv[m.Name]) == 0 {
				missing(fmt.Sprintf("%-8s %-20s", w.name, m.Name), len(av[m.Name]) > 0)
				continue
			}
			ma, mb := quantile(av[m.Name], 0.5), quantile(bv[m.Name], 0.5)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			regress := change > m.Bound
			if m.Better == "higher" {
				regress = -change > m.Bound
			}
			verdict := "ok"
			if regress {
				verdict = "WORSE"
				worse = true
			}
			fmt.Fprintf(stdout, "%-8s %-20s %14.6g %14.6g %+8.2f%% %6.1f%% %s\n",
				w.name, m.Name, ma, mb, 100*change, 100*m.Bound, verdict)
		}
		if b.failed[w.name] > 0 {
			fmt.Fprintf(stdout, "%-8s %d failed jobs in %s\n", w.name, b.failed[w.name], args[1])
			worse = true
		}
	}
	if worse {
		return 1
	}
	return 0
}
