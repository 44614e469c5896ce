package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchEntry is one simulator throughput record in the perf-json file.
type benchEntry struct {
	Date   string `json:"date"`
	Engine string `json:"engine"`
	CPU    string `json:"cpu,omitempty"`
	experiments.SimPerfResult
}

// benchFile is the perf-json document: an append-only history of
// simulator throughput measurements, oldest first.
type benchFile struct {
	Description string       `json:"description"`
	Entries     []benchEntry `json:"entries"`
}

const benchFileDescription = "Tabular-simulator throughput history. Refresh with: go run ./cmd/anor-bench -perf-json BENCH_sim.json perf"

// perfMatrix is the (nodes, maxprocs) grid perf measures and check gates
// on: the paper's 1000-node scale, 10× that, the 100k-node scale the
// multi-core runtime targets — each single-core and at 4 workers — and a
// single-core 1M-node row proving the completion calendar holds up three
// orders of magnitude past the paper. Quick mode (CI) stays bounded by
// skipping the 1M row; the calendar makes the 100k cells cheap enough to
// gate on every push.
var perfMatrix = []struct {
	nodes    int
	maxprocs int
}{
	{1000, 1}, {1000, 4},
	{10000, 1}, {10000, 4},
	{100000, 1}, {100000, 4},
	{1000000, 1},
}

// perf measures simulator throughput over the nodes × maxprocs matrix,
// printing one row per combination. With -perf-json the results are
// appended to the given history file (created if missing). -quick drops
// to one repeat and skips the 100k rows.
func perf() {
	repeats := 3
	if *quick {
		repeats = 1
	}
	fmt.Println("Simulator throughput (§5.6 tabular simulator, 75% utilization, best of repeats)")
	fmt.Printf("%-8s  %-8s  %-12s  %-10s  %-12s  %-11s  %s\n",
		"nodes", "maxprocs", "steps/s", "ns/step", "bytes/step", "allocs/step", "steps/run")
	var entries []benchEntry
	for _, cell := range perfMatrix {
		if *quick && cell.nodes > 100000 {
			continue
		}
		res, err := experiments.SimPerf(experiments.SimPerfConfig{
			Nodes: cell.nodes, Repeats: repeats, Seed: *seed, MaxProcs: cell.maxprocs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d  %-8d  %-12.0f  %-10.0f  %-12.1f  %-11.2f  %d\n",
			res.Nodes, res.MaxProcs, res.StepsPerSec, res.NsPerStep, res.BytesPerStep, res.AllocsPerStep, res.Steps)
		// One decimal is already far inside run-to-run noise; rounding keeps
		// the checked-in history diffable instead of 15 significant digits.
		res.StepsPerSec = round1(res.StepsPerSec)
		res.NsPerStep = round1(res.NsPerStep)
		res.BytesPerStep = round1(res.BytesPerStep)
		entries = append(entries, benchEntry{
			Date:          time.Now().UTC().Format("2006-01-02"),
			Engine:        "calendar-fixed-point",
			CPU:           cpuModel(),
			SimPerfResult: res,
		})
	}
	if *perfJSON == "" {
		return
	}
	if err := appendBenchEntries(*perfJSON, entries); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nappended %d entries to %s\n", len(entries), *perfJSON)
}

// round1 rounds to one decimal place for the JSON history.
func round1(v float64) float64 { return math.Round(v*10) / 10 }

// appendBenchEntries loads the history file (tolerating a missing one),
// appends the new measurements, and writes it back.
func appendBenchEntries(path string, entries []benchEntry) error {
	var doc benchFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc.Description = benchFileDescription
	doc.Entries = append(doc.Entries, entries...)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuModel best-effort reads the CPU model string for the measurement
// record; empty when the platform does not expose /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
