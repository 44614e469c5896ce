package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// driver runs workloads in child processes, one process per run as the
// gating driver does, so no run inherits another's heap or goroutines.
type driver struct {
	root, outDir string
	seed         uint64
	seconds      float64
	quick        bool
}

// runRecord is one child's result line plus what it was asked to run.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	outLine
}

// resultFile is what all and repeat write and compare reads.
type resultFile struct {
	Seconds float64     `json:"seconds"`
	Quick   bool        `json:"quick"`
	Runs    []runRecord `json:"runs"`
}

// child runs one workload in a fresh process, passing its report through
// and parsing the result line.
func (d driver) child(workload string, seed uint64, trace int) (runRecord, error) {
	rec := runRecord{Workload: workload, Seed: seed, Trace: trace}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if d.quick {
		args = append(args, "-quick")
	}
	fmt.Printf("== %s seed %d trace %d\n", workload, seed, trace)
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Dir = d.root
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.outLine); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// all runs every workload once untraced and once traced.
func (d driver) all() error {
	file := resultFile{Seconds: d.seconds, Quick: d.quick}
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			rec, err := d.child(w.name, d.seed, trace)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, rec)
			failed += rec.Failed
		}
	}
	path := filepath.Join(d.outDir, fmt.Sprintf("result-seed%d.json", d.seed))
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Printf("== wrote %s; ops_failed %d over %d runs\n", path, failed, len(file.Runs))
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func (d driver) loadBenchmark() (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(d.root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// values groups the untraced runs of a result file by workload and metric.
func (f resultFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// maxBound is the widest bound the driver accepts; a metric whose spread
// needs more cannot be gated and belongs in the per-layer list.
const maxBound = 0.25

// repeat runs k untraced sets, one seed each (the held-out seed is
// skipped), and prints each metric's median, quartiles and spread per
// workload against its bound: steady when the spread is under a third of
// the bound, PASS when under the bound, unresolved when over it.
func (d driver) repeat(k int, calibrate bool) error {
	bf, err := d.loadBenchmark()
	if err != nil {
		return err
	}
	file := resultFile{Seconds: d.seconds, Quick: d.quick}
	seed := d.seed
	for set := 0; set < k; set++ {
		if seed == heldOutSeed {
			seed++
		}
		for _, w := range workloads {
			rec, err := d.child(w.name, seed, 0)
			if err != nil {
				return err
			}
			if rec.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed", w.name, seed, rec.Failed)
			}
			file.Runs = append(file.Runs, rec)
		}
		seed++
	}
	path := filepath.Join(d.outDir, fmt.Sprintf("repeat-seed%d.json", d.seed))
	if err := writeJSON(path, file); err != nil {
		return err
	}

	vals := file.values()
	widest := map[string]float64{}
	fmt.Printf("\n%-11s %-18s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			xs := vals[w.name][m.Name]
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "PASS"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated on spread"
			case sp > *m.Bound:
				verdict = "unresolved"
			case sp <= *m.Bound/3:
				verdict = "steady"
			}
			if m.Name != "setup_s" && sp > maxBound/3 {
				verdict += " (demote: no allowed bound is three times this spread)"
			}
			if m.Name != "setup_s" {
				widest[m.Name] = math.Max(widest[m.Name], sp)
			}
			fmt.Printf("%-11s %-18s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%  %s\n",
				w.name, m.Name, median(xs), q1, q3, 100*sp, 100**m.Bound, verdict)
		}
	}
	fmt.Printf("wrote %s\n", path)
	if !calibrate {
		return nil
	}
	for i, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			continue
		}
		// Three times the widest spread seen, rounded up to a whole per
		// cent, never under the harness's own default nor over the cap.
		b := math.Ceil(300*widest[m.Name]) / 100
		for _, def := range endToEnd {
			if def.name == m.Name {
				b = math.Max(b, def.bound)
			}
		}
		b = math.Min(b, maxBound)
		bf.EndToEnd[i].Bound = &b
		fmt.Printf("calibrated %s: widest spread %.1f%% -> bound %.0f%%\n", m.Name, 100*widest[m.Name], 100*b)
	}
	return writeJSON(filepath.Join(d.root, "BENCHMARK.json"), bf)
}

// compare holds result file b against a: per workload and end-to-end
// metric, PASS when b's median is no worse than a's by more than the
// bound, FAIL when it is, unresolved when either side's own spread is
// wider than the bound.
func (d driver) compare(pathA, pathB string) error {
	bf, err := d.loadBenchmark()
	if err != nil {
		return err
	}
	load := func(path string) (map[string]map[string][]float64, error) {
		var f resultFile
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return f.values(), nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fails := 0
	fmt.Printf("%-11s %-18s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := a[w.name][m.Name], b[w.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(xa), spread(xb))
			verdict := "PASS"
			switch {
			case sp > *m.Bound && m.Name != "setup_s":
				verdict = "unresolved"
			case worse > *m.Bound:
				verdict = "FAIL"
				fails++
			}
			fmt.Printf("%-11s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, m.Name, ma, mb, 100*worse, 100*sp, 100**m.Bound, verdict)
		}
	}
	if fails > 0 {
		return fmt.Errorf("%d metric x workload pairs worse than their bound", fails)
	}
	return nil
}
