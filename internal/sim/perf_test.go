package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/ledger"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// steadyType is a synthetic job type whose execution time dwarfs any test
// horizon, so a cluster filled with it reaches steady state — no arrivals,
// starts, or completions — and stays there for the rest of the run.
func steadyType() workload.Type {
	return workload.Type{
		Name: "steady", Nodes: 4, BaseSeconds: 1e6, Epochs: 1,
		PMin: 140, PMax: 240, MaxSlowdown: 2, MidFrac: 0.35,
	}
}

// steadyConfig fills the cluster at t=0 with never-finishing jobs. The
// budget lands strictly between the jobs' total minimum and maximum power
// so the budgeter path exercises its full slowdown solve every step.
func steadyConfig(horizon time.Duration, budgeter bool) Config {
	typ := steadyType()
	const jobCount = 16
	arrivals := make([]schedule.Arrival, jobCount)
	for i := range arrivals {
		arrivals[i] = schedule.Arrival{JobID: fmt.Sprintf("s-%02d", i), TypeName: typ.Name, ClaimedType: typ.Name}
	}
	nodes := jobCount * typ.Nodes
	cfg := Config{
		Nodes:        nodes,
		Types:        []workload.Type{typ},
		Arrivals:     arrivals,
		Bid:          dr.Bid{AvgPower: units.Power(nodes) * 190, Reserve: 1},
		Signal:       dr.Constant(0),
		Horizon:      horizon,
		Seed:         1,
		VariationStd: 0.1,
	}
	if budgeter {
		cfg.Budgeter = budget.EvenSlowdown{}
		cfg.TypeModels = map[string]perfmodel.Model{typ.Name: typ.RelativeModel()}
		cfg.DefaultModel = typ.RelativeModel()
	}
	return cfg
}

// TestAllocsPerStep pins the engine's allocation budgets. Allocation
// counts, unlike wall-clock speed, do not depend on the host, so these
// rows hold on any machine. Every row runs at a 2-minute horizon.
//
//   - Marginal rows fill the cluster with never-finishing jobs and
//     subtract a 30-second run: the difference divided by the extra
//     steps is the marginal cost of a step, which must be ~0 (a small
//     fractional budget absorbs the amortized growth of the tracking
//     series). The per-run setup cancels.
//   - Whole-run rows step the width-scaled workload to completion and
//     divide every allocation of the run, setup included, by its steps.
//     Each bound is the row's last recorded BENCH_sim.json value plus 0.5.
//
// The name matches CI's alloc-gate filter (AllocsPerStep).
func TestAllocsPerStep(t *testing.T) {
	budgeted := func(_ testing.TB, h time.Duration) Config { return steadyConfig(h, true) }
	scaled := func(nodes int) func(testing.TB, time.Duration) Config {
		return func(tb testing.TB, h time.Duration) Config { return scaledConfig(tb, nodes, h, 1) }
	}
	for _, c := range []struct {
		name   string
		config func(tb testing.TB, horizon time.Duration) Config
		// perRun resets state that spans one run, before every run.
		perRun   func(*Config)
		marginal bool
		max      float64
	}{
		{name: "aqa", config: func(_ testing.TB, h time.Duration) Config { return steadyConfig(h, false) }, marginal: true, max: 0.5},
		{name: "even-slowdown", config: budgeted, marginal: true, max: 0.5},
		// A stepped walk recaps jobs every few seconds: the worst case
		// for calendar churn, every recap rescheduling every job.
		{name: "calendar", config: func(_ testing.TB, h time.Duration) Config {
			cfg := steadyConfig(h, true)
			cfg.Signal = dr.NewRandomWalk(21, 4*time.Second, 0.25, 2*time.Hour)
			return cfg
		}, marginal: true, max: 0.5},
		// A ledger spans one virtual timeline, so each run gets a fresh
		// one; its setup cancels in the subtraction.
		{name: "ledger", config: budgeted, perRun: func(cfg *Config) { cfg.Ledger = ledger.New() }, marginal: true, max: 0.5},
		// The store and its flight recorder outlive the runs, as a daemon
		// or sweep would hold them.
		{name: "telemetry", config: func(_ testing.TB, h time.Duration) Config {
			cfg := steadyConfig(h, true)
			cfg.Telemetry = telemetry.NewStore()
			cfg.Telemetry.SetRecorder(telemetry.NewRecorder(&bytes.Buffer{}))
			return cfg
		}, marginal: true, max: 0.5},
		{name: "whole-run-1000-nodes", config: scaled(1000), max: 0.39 + 0.5},
		{name: "whole-run-10000-nodes", config: scaled(10000), max: 0.45 + 0.5},
		{name: "whole-run-100000-nodes", config: scaled(100000), max: 0.56 + 0.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			measure := func(h time.Duration) (allocs float64, steps int) {
				cfg := c.config(t, h)
				run := func() Result {
					if c.perRun != nil {
						c.perRun(&cfg)
					}
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				steps = len(run().Tracking) // warm up, and fail fast outside the measured loop
				return testing.AllocsPerRun(3, func() { run() }), steps
			}
			allocs, steps := measure(2 * time.Minute)
			perStep := allocs / float64(steps)
			if c.marginal {
				shortAllocs, shortSteps := measure(30 * time.Second)
				perStep = (allocs - shortAllocs) / float64(steps-shortSteps)
				t.Logf("allocs: %v over %d steps → %v over %d steps, %.4f per step", shortAllocs, shortSteps, allocs, steps, perStep)
			} else {
				t.Logf("allocs: %v over %d steps, %.4f per step", allocs, steps, perStep)
			}
			if perStep > c.max {
				t.Errorf("%.3f allocs per step, want ≤ %.2f", perStep, c.max)
			}
		})
	}
}

// scaledConfig is the width-scaled workload: the long-running catalog
// types widened with the cluster (×nodes/40, as §6.4 widens them ×25 at
// 1000 nodes) on a 75%-utilization schedule, 5% node variation, a bid of
// 150 W per node with 30 W per node of reserve, and a random-walk target.
func scaledConfig(tb testing.TB, nodes int, horizon time.Duration, seed uint64) Config {
	tb.Helper()
	types := make([]workload.Type, 0, 6)
	for _, t := range workload.LongRunning() {
		types = append(types, t.Scale(nodes/40))
	}
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(seed), Types: types,
		Utilization: 0.75, TotalNodes: nodes, Horizon: horizon,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Nodes: nodes, Types: types, Weights: weights, Arrivals: arrivals,
		Bid:          dr.Bid{AvgPower: units.Power(nodes) * 150, Reserve: units.Power(nodes) * 30},
		Signal:       dr.NewRandomWalk(seed, 4*time.Second, 0.25, 2*time.Hour),
		Horizon:      horizon,
		Seed:         seed,
		VariationStd: 0.05,
	}
}

// BenchmarkSimStep10k measures per-step cost at 10000 nodes — ten times
// the paper's simulated cluster — on the width-scaled workload with a
// 180 W per node bid. The name matches the CI hot-path filter
// (SimStep|Allocate) so regressions at scale surface in every pull
// request.
func BenchmarkSimStep10k(b *testing.B) {
	cfg := scaledConfig(b, 10000, time.Minute, 17)
	cfg.Bid = dr.Bid{AvgPower: 10000 * 180, Reserve: 10000 * 50}
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps += len(res.Tracking)
	}
	b.StopTimer()
	if b.Elapsed().Seconds() > 0 {
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "sim-steps/s")
	}
}
