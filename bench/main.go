// Command bench times ANOR end to end and layer by layer: the control
// cycle (changed power target -> caps enforced on node registers ->
// feedback absorbed), crash recovery of the control plane, and the tabular
// simulator at scheduling load. It measures every layer from outside, by
// timing calls into the program's public functions; see README.md.
//
// One workload, as the driver of BENCHMARK.json runs it:
//
//	bench --workload cycle-1k --seed 1 --seconds 10 --trace 0
//
// prints each metric by name and, as the last line of standard output,
// one JSON object with the keys correct, attempted, failed and metrics.
//
// Without --workload it runs all six workloads, untraced then traced,
// each in a child process, and writes out/result-seed<N>.json.
// -repeat K runs K untraced sets on K seeds and reports medians,
// quartiles and spread against the bounds; -compare a.json b.json holds
// two such files against each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: one of the six names, or all")
	seed := flag.Uint64("seed", defaultSeed, "seed for job types, target walk, trace jitter and simulator (7 is held out: never tune on it)")
	seconds := flag.Float64("seconds", 10, "how long the workload's focus section measures")
	trace := flag.Int("trace", 0, "1 records spans, counts wire traffic and runs the microprobes, and reports the per-layer metrics")
	quick := flag.Bool("quick", false, "smoke sizes: 16 jobs, 20 cycles, 2 recoveries, a 2-tile trace")
	jobs := flag.Int("jobs", 0, "ad hoc: override the job count of cycle-1k, cycle-wide or recover-1k (ungated)")
	repeat := flag.Int("repeat", 0, "run this many untraced sets of all workloads, each on its own seed, and report spread")
	calibrate := flag.Bool("calibrate", false, "with -repeat: write bounds of three times the widest spread back to BENCHMARK.json")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: bench -compare a.json b.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	d := driver{root: root, outDir: outDir, seed: *seed, seconds: *seconds, quick: *quick}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := d.compare(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *repeat > 0:
		if err := d.repeat(*repeat, *calibrate); err != nil {
			fatal(err)
		}
	case *workload == "all":
		if err := d.all(); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runWorkload(runConfig{
			workload: w, seed: *seed, seconds: *seconds, traced: *trace != 0,
			quick: *quick, jobs: *jobs, outDir: outDir,
		})
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, res, *trace != 0)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot locates the checkout root, the directory that holds
// BENCHMARK.json, from the working directory: the root itself when run as
// the driver does, bench/ when run by hand from there.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

// outMetric and outLine are the result line the driver reads.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// report prints every metric the run produced, by name with its unit and
// sample count, and then the result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func report(w *os.File, res runResult, traced bool) {
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, note := range res.notes {
		fmt.Fprintln(w, "#", note)
	}
	for _, name := range names {
		n := ""
		if c, ok := res.samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-32s %14.6g %s%s\n", name, res.metrics[name], units[name], n)
	}
	fmt.Fprintf(w, "%-32s %14d\n%-32s %14d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)

	line := outLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		line.Metrics[m.name] = outMetric{Value: res.metrics[m.name], Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}
