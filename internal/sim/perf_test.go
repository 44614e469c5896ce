package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/stats"
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
// so the budgeter path exercises its full bisection every step.
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

// TestSteadyStateAllocsPerStep asserts the dense-index engine's headline
// property: once the cluster reaches steady state, stepping it does not
// allocate. Two runs differing only in horizon isolate the marginal cost
// of the extra steps; dividing out the step count bounds allocations per
// step (a small fractional budget absorbs the per-run setup and the
// amortized growth of the tracking series during the drain phase).
func TestSteadyStateAllocsPerStep(t *testing.T) {
	for _, mode := range []struct {
		name     string
		budgeter bool
	}{{"aqa", false}, {"even-slowdown", true}} {
		t.Run(mode.name, func(t *testing.T) {
			allocsAt := func(h time.Duration) float64 {
				cfg := steadyConfig(h, mode.budgeter)
				if _, err := Run(cfg); err != nil { // fail fast outside the measured loop
					t.Fatal(err)
				}
				return testing.AllocsPerRun(3, func() {
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Never-finishing jobs hold the run to its 4×horizon bound, so
			// the step counts are exact.
			shortH, longH := 30*time.Second, 120*time.Second
			short, long := allocsAt(shortH), allocsAt(longH)
			extraSteps := float64((4*120 + 1) - (4*30 + 1))
			marginal := (long - short) / extraSteps
			t.Logf("allocs: %v (short) → %v (long), %.4f per steady-state step", short, long, marginal)
			if marginal > 0.5 {
				t.Errorf("steady-state allocations = %.3f per step, want ~0 (≤0.5)", marginal)
			}
		})
	}
}

// sim10kConfig is the 10000-node configuration — ten times the paper's
// simulated cluster — that the dense-index engine makes practical to
// benchmark.
func sim10kConfig(tb testing.TB) Config {
	tb.Helper()
	const nodes = 10000
	horizon := time.Minute
	types := make([]workload.Type, 0, 6)
	for _, t := range workload.LongRunning() {
		types = append(types, t.Scale(250))
	}
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(17), Types: types,
		Utilization: 0.75, TotalNodes: nodes, Horizon: horizon,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Nodes: nodes, Types: types, Weights: weights, Arrivals: arrivals,
		Bid:          dr.Bid{AvgPower: nodes * 180, Reserve: nodes * 50},
		Signal:       dr.NewRandomWalk(17, 4*time.Second, 0.25, time.Hour),
		Horizon:      horizon,
		Seed:         17,
		VariationStd: 0.05,
	}
}

// BenchmarkSimStep10k measures per-step cost at 10000 nodes. The name
// matches the CI perf-smoke filter (SimStep|Allocate) so regressions at
// scale surface in every pull request.
func BenchmarkSimStep10k(b *testing.B) {
	cfg := sim10kConfig(b)
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
