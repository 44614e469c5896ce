package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/dr"
	"repro/internal/ledger"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// SimPerfConfig parameterizes a simulator throughput measurement.
type SimPerfConfig struct {
	// Nodes is the simulated cluster size (default 1000, the paper's
	// §6.4 scale).
	Nodes int
	// Horizon is the simulated span per timed run (default 2 minutes;
	// runs drain past it, so the step count is measured, not assumed).
	Horizon time.Duration
	// Repeats is how many timed runs to take; the fastest is reported
	// (default 3).
	Repeats int
	// Seed drives the workload schedule and node variation.
	Seed uint64
	// MaxProcs, when positive, pins runtime.GOMAXPROCS for the
	// measurement window (restored afterwards), so one process can record
	// single-core and multi-core rows back to back.
	MaxProcs int
	// Telemetry attaches a rollup store with a flight recorder (writing
	// to a discarding sink) to every run, measuring the retained-
	// telemetry overhead against an otherwise identical configuration.
	Telemetry bool
	// Ledger attaches a fresh per-job energy ledger to every run,
	// measuring the accounting overhead the same way.
	Ledger bool
}

// SimPerfResult is one simulator throughput measurement, the record
// BENCH_sim.json tracks across engine changes.
type SimPerfResult struct {
	// Nodes is the simulated cluster size.
	Nodes int `json:"nodes"`
	// Steps is the simulated seconds one run covered.
	Steps int `json:"steps_per_run"`
	// StepsPerSec is simulated seconds advanced per wall-clock second
	// (best of Repeats).
	StepsPerSec float64 `json:"steps_per_sec"`
	// NsPerStep is the inverse view: wall-clock nanoseconds per
	// simulated second.
	NsPerStep float64 `json:"ns_per_step"`
	// BytesPerStep and AllocsPerStep are heap traffic per simulated
	// second, whole-run totals (setup included) divided by Steps.
	BytesPerStep  float64 `json:"bytes_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
	// GoVersion and MaxProcs record the measurement environment.
	GoVersion string `json:"go"`
	MaxProcs  int    `json:"maxprocs"`
	// Telemetry records whether a rollup store + flight recorder were
	// attached for the measurement.
	Telemetry bool `json:"telemetry,omitempty"`
	// Ledger records whether the energy ledger was attached.
	Ledger bool `json:"ledger,omitempty"`
}

// SimPerf measures tabular-simulator throughput: a 75%-utilization
// schedule on an N-node cluster with performance variation, stepped to
// completion, timed over Repeats runs with the fastest kept (the standard
// guard against scheduler noise). Heap traffic comes from the runtime's
// allocation counters around the fastest run's window.
func SimPerf(cfg SimPerfConfig) (SimPerfResult, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 1000
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 2 * time.Minute
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.MaxProcs))
	}
	// The catalog's node counts target the 16-node evaluation cluster;
	// scale instances with the cluster as §6.4 does (×25 at 1000 nodes).
	scale := cfg.Nodes / 40
	if scale < 1 {
		scale = 1
	}
	types := make([]workload.Type, 0, 6)
	for _, t := range workload.LongRunning() {
		types = append(types, t.Scale(scale))
	}
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(cfg.Seed), Types: types,
		Utilization: 0.75, TotalNodes: cfg.Nodes, Horizon: cfg.Horizon,
	})
	if err != nil {
		return SimPerfResult{}, err
	}
	simCfg := sim.Config{
		Nodes: cfg.Nodes, Types: types, Weights: weights, Arrivals: arrivals,
		// Matches the BenchmarkSimStep bid (150 W/node average, 30 W/node
		// reserve) so history entries and bench runs describe one workload.
		Bid:          dr.Bid{AvgPower: units.Power(cfg.Nodes) * 150, Reserve: units.Power(cfg.Nodes) * 30},
		Signal:       dr.NewRandomWalk(cfg.Seed, 4*time.Second, 0.25, 2*time.Hour),
		Horizon:      cfg.Horizon,
		Seed:         cfg.Seed,
		VariationStd: 0.05,
	}
	if cfg.Telemetry {
		// One store shared across warmup and every timed run, as a daemon
		// or sweep would hold it: the warmup allocates the series and
		// rings, the timed runs fold into them.
		st := telemetry.NewStore()
		st.SetRecorder(telemetry.NewRecorder(io.Discard))
		simCfg.Telemetry = st
	}

	// A ledger spans one virtual timeline, so each run gets a fresh one;
	// the per-run map setup is amortized over the run's steps like every
	// other setup allocation.
	run := func() (sim.Result, error) {
		if cfg.Ledger {
			simCfg.Ledger = ledger.New()
		}
		return sim.Run(simCfg)
	}

	// Warmup run: faults in the binary and steadies the heap.
	if _, err := run(); err != nil {
		return SimPerfResult{}, err
	}

	// Each repeat accumulates whole runs until the timing window is at
	// least minWindow of wall clock: a fast engine finishes a small run in
	// well under a millisecond, where a single-run timing is dominated by
	// timer granularity and scheduler noise rather than engine speed.
	const minWindow = 250 * time.Millisecond
	var best SimPerfResult
	for r := 0; r < cfg.Repeats; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		steps, runSteps := 0, 0
		var elapsed time.Duration
		for {
			res, err := run()
			if err != nil {
				return SimPerfResult{}, err
			}
			runSteps = len(res.Tracking)
			steps += runSteps
			if elapsed = time.Since(start); elapsed >= minWindow {
				break
			}
		}
		runtime.ReadMemStats(&m1)
		if steps == 0 || elapsed <= 0 {
			return SimPerfResult{}, fmt.Errorf("experiments: degenerate perf run (%d steps in %v)", steps, elapsed)
		}
		sps := float64(steps) / elapsed.Seconds()
		if sps > best.StepsPerSec {
			best = SimPerfResult{
				Nodes:         cfg.Nodes,
				Steps:         runSteps,
				StepsPerSec:   sps,
				NsPerStep:     float64(elapsed.Nanoseconds()) / float64(steps),
				BytesPerStep:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(steps),
				AllocsPerStep: float64(m1.Mallocs-m0.Mallocs) / float64(steps),
				GoVersion:     runtime.Version(),
				MaxProcs:      runtime.GOMAXPROCS(0),
				Telemetry:     cfg.Telemetry,
				Ledger:        cfg.Ledger,
			}
		}
	}
	return best, nil
}
