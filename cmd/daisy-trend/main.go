// daisy-trend turns the repository's committed BENCH_*.json history into
// a perf-trend wall and a CI regression gate.
//
//	daisy-trend wall                  # every BENCH_*.json, one markdown table
//	daisy-trend wall -plots trend/    # plus one SVG sparkline per metric
//	daisy-trend check OLD NEW         # gate: exit 1 on significant regression
//
// `wall` aligns every benchmark/metric pair across the history (snapshots
// are sorted chronologically, with _pre variants before their date group)
// and renders the full per-metric trend table. `check` compares two
// snapshots benchstat-style — min-of-N summaries, Mann-Whitney rank-sum
// significance when both sides retained samples — and gates on the pinned
// key metrics (see -keys). Wall-clock metrics only gate between snapshots
// from the same host (manifest CPU/GOOS/GOARCH match); deterministic
// counters gate everywhere. An intentional regression is acknowledged
// with -ack "Benchmark/metric", which records the trade-off in the CI
// invocation instead of silently raising thresholds. `check -all` also
// lists every non-gated benchmark/metric delta.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"daisy/internal/perfwall"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "wall":
		err = wallCmd(os.Args[2:])
	case "check":
		err = checkCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "daisy-trend: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daisy-trend:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  daisy-trend wall [-dir D] [-plots DIR] [files...]   render the trend wall
  daisy-trend check [flags] OLD.json NEW.json         gate on regressions

check flags:
  -keys  comma-separated Benchmark/metric pairs (default: the pinned headline metrics)
  -ack   comma-separated Benchmark/metric pairs whose regressions are intentional
  -all   also print every non-gated benchmark/metric delta
`)
}

func wallCmd(args []string) error {
	fs := flag.NewFlagSet("wall", flag.ExitOnError)
	dir := fs.String("dir", ".", "directory to glob BENCH_*.json from when no files are given")
	plots := fs.String("plots", "", "also write one SVG sparkline per series into DIR")
	markdown := fs.Bool("md", true, "render markdown (false: aligned text)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
		if err != nil {
			return err
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json files found")
	}
	perfwall.SortHistoryPaths(paths)
	files, err := perfwall.LoadHistory(paths)
	if err != nil {
		return err
	}
	t := perfwall.WallTable(files)
	if *markdown {
		fmt.Print(t.Markdown())
	} else {
		fmt.Print(t)
	}
	if *plots != "" {
		if err := writePlots(*plots, files); err != nil {
			return err
		}
	}
	return nil
}

func writePlots(dir string, files []perfwall.HistoryFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	labels := make([]string, len(files))
	for i, f := range files {
		labels[i] = f.Label
	}
	n := 0
	for _, s := range perfwall.AlignHistory(files) {
		svg := perfwall.Sparkline(s.Key.String(), labels, s.Values, 640, 180)
		name := sanitize(s.Key.Bench+"_"+s.Key.Metric) + ".svg"
		if err := os.WriteFile(filepath.Join(dir, name), svg, 0o644); err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "[daisy-trend] %d sparklines in %s\n", n, dir)
	return nil
}

func checkCmd(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	keysFlag := fs.String("keys", "", "comma-separated Benchmark/metric pairs to gate on")
	ackFlag := fs.String("ack", "", "comma-separated Benchmark/metric pairs whose regressions are intentional")
	all := fs.Bool("all", false, "also print every non-gated delta")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("check needs exactly two files, got %d", fs.NArg())
	}
	oldS, err := perfwall.ReadSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	newS, err := perfwall.ReadSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}

	var keys []perfwall.Key
	for _, s := range splitList(*keysFlag) {
		k, err := parseKey(s)
		if err != nil {
			return err
		}
		keys = append(keys, k)
	}
	acked := splitList(*ackFlag)
	for _, a := range acked {
		if _, err := parseKey(a); err != nil {
			return err
		}
	}

	results, failed := perfwall.Check(oldS, newS, keys, acked, perfwall.CompareOptions{})
	fmt.Printf("%s -> %s\n", fs.Arg(0), fs.Arg(1))
	if !perfwall.SameHost(oldS.Manifest, newS.Manifest) {
		fmt.Println("(different or unknown hosts: wall-clock metrics are informational only)")
	}
	for _, res := range results {
		switch {
		case res.Delta == nil:
			fmt.Printf("  skip  %-55s (absent)\n", res.Key)
		case res.Acked:
			fmt.Printf("  ACKED %s\n", res.Delta)
		case res.Delta.Regression:
			fmt.Printf("  FAIL  %s\n", res.Delta)
		default:
			fmt.Printf("  ok    %s\n", res.Delta)
		}
	}
	if *all {
		gated := map[string]bool{}
		for _, res := range results {
			gated[res.Key.String()] = true
		}
		deltas := perfwall.CompareSnapshots(oldS, newS, perfwall.CompareOptions{})
		sort.Slice(deltas, func(i, j int) bool {
			if deltas[i].Bench != deltas[j].Bench {
				return deltas[i].Bench < deltas[j].Bench
			}
			return deltas[i].Metric < deltas[j].Metric
		})
		fmt.Println("  --")
		for _, d := range deltas {
			if gated[d.Bench+"/"+d.Metric] {
				continue
			}
			fmt.Printf("  info  %s\n", d)
		}
	}
	if failed {
		return fmt.Errorf("significant regression on gated metrics (acknowledge an intentional one with -ack \"Benchmark/metric\")")
	}
	fmt.Println("trend gate: ok")
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseKey(s string) (perfwall.Key, error) {
	i := strings.Index(s, "/")
	if i <= 0 || i == len(s)-1 {
		return perfwall.Key{}, fmt.Errorf("bad key %q (want Benchmark/metric, e.g. BenchmarkExecutorThroughput/ns/op)", s)
	}
	return perfwall.Key{Bench: s[:i], Metric: s[i+1:]}, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
