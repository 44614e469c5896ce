// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5–§6). Each benchmark runs a bounded configuration of the
// corresponding experiment so that `go test -bench=. -benchmem` completes
// in minutes; `cmd/anor-bench` runs the full-size versions and prints the
// figures' rows and series.
//
// The custom metrics attached to each benchmark carry the figure's
// headline numbers (slowdowns, tracking error, QoS percentiles) so a
// bench run doubles as a shape check against the paper.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/dr"
	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// BenchmarkFig3Characterization sweeps all eight NPB job types across the
// power-cap range (Fig. 3).
func BenchmarkFig3Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig3(experiments.Fig3Config{Runs: 3, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				if s.Name == "bt.D.81" {
					b.ReportMetric(s.Y[0], "bt-slowdown-at-140W")
				}
			}
		}
	}
}

// BenchmarkFig3FitTable precharacterizes every type and fits the §4.2
// quadratic model (§5.1's R² table).
func BenchmarkFig3FitTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FitTable(experiments.FitTableConfig{Runs: 5, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.TypeName == "bt.D.81" {
					b.ReportMetric(r.R2, "bt-R2")
				}
			}
		}
	}
}

// BenchmarkFig4BudgeterComparison evaluates the even-slowdown vs
// even-power budget sweeps (Fig. 4).
func BenchmarkFig4BudgeterComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4(experiments.Fig4Config{})
		if i == 0 {
			// Worst-job slowdown at the mid budget under each policy.
			series := res.PerBudgeter["even-slowdown"]
			mid := len(series[0].X) / 2
			worst := 0.0
			for _, s := range series {
				if s.Y[mid] > worst {
					worst = s.Y[mid]
				}
			}
			b.ReportMetric(100*worst, "even-slowdown-worst-%")
			series = res.PerBudgeter["even-power"]
			worst = 0
			for _, s := range series {
				if s.Y[mid] > worst {
					worst = s.Y[mid]
				}
			}
			b.ReportMetric(100*worst, "even-power-worst-%")
		}
	}
}

// BenchmarkFig5Misclassification runs the four misclassification
// scenarios (Fig. 5).
func BenchmarkFig5Misclassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Fig5(experiments.Fig5Config{})
		if i == 0 && len(results) != 4 {
			b.Fatalf("scenarios = %d", len(results))
		}
	}
}

// sharedCapBench runs one Figs. 6–8 experiment with one trial per policy.
func sharedCapBench(b *testing.B, run func(experiments.Fig6Config) ([]experiments.SharedCapRow, error), jobID string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run(experiments.Fig6Config{Trials: 1, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				switch row.Policy {
				case "Performance Aware":
					b.ReportMetric(100*row.MeanSlowdown[jobID], "aware-slowdown-%")
				case "Under-estimate bt", "Over-estimate sp":
					b.ReportMetric(100*row.MeanSlowdown[jobID], "misclassified-slowdown-%")
				case "Under-estimate bt, with feedback", "Over-estimate sp, with feedback":
					b.ReportMetric(100*row.MeanSlowdown[jobID], "feedback-slowdown-%")
				}
			}
		}
	}
}

// BenchmarkFig6SharedCapBTSP measures BT+SP under a shared 840 W budget
// across the six policies of Fig. 6.
func BenchmarkFig6SharedCapBTSP(b *testing.B) {
	sharedCapBench(b, experiments.Fig6, "bt.D.x")
}

// BenchmarkFig7TwoBT measures two BT instances with one misclassified as
// IS (Fig. 7).
func BenchmarkFig7TwoBT(b *testing.B) {
	sharedCapBench(b, experiments.Fig7, "bt.D.x=is.D.x")
}

// BenchmarkFig8TwoSP measures two SP instances with one misclassified as
// EP (Fig. 8).
func BenchmarkFig8TwoSP(b *testing.B) {
	sharedCapBench(b, experiments.Fig8, "sp.D.x")
}

// BenchmarkFig9PowerTracking runs a bounded moving-target schedule on the
// full emulated stack and reports tracking error (Fig. 9).
func BenchmarkFig9PowerTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Config{
			Horizon: 10 * time.Minute,
			Seed:    uint64(i + 10),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.P90Err, "P90-track-err-%")
			b.ReportMetric(float64(res.Jobs), "jobs")
		}
	}
}

// BenchmarkFig10PolicyComparison compares Uniform / Characterized /
// Misclassified / Adjusted over a bounded schedule (Fig. 10).
func BenchmarkFig10PolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.Fig10Config{
			Seed:    uint64(i + 10),
			Horizon: 10 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bt := "bt.D.81"
			for _, row := range rows {
				switch row.Policy {
				case "Misclassified":
					b.ReportMetric(100*row.MeanSlowdown[bt], "misclassified-bt-%")
				case "Adjusted":
					b.ReportMetric(100*row.MeanSlowdown[bt], "adjusted-bt-%")
				}
			}
		}
	}
}

// BenchmarkFig11Variation runs a bounded variation sweep on the tabular
// simulator (Fig. 11).
func BenchmarkFig11Variation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		levels, err := experiments.Fig11(experiments.Fig11Config{
			Nodes:     250,
			Levels:    []float64{0, 0.15, 0.30},
			Trials:    3,
			Horizon:   20 * time.Minute,
			NodeScale: 6,
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := levels[0], levels[len(levels)-1]
			b.ReportMetric(mean(first.P90QoSByType), "P90-QoS-no-variation")
			b.ReportMetric(mean(last.P90QoSByType), "P90-QoS-max-variation")
		}
	}
}

// BenchmarkHierFidelity sweeps rack counts through the §8 hierarchical
// allocation schemes and reports their deviation from flat allocation.
func BenchmarkHierFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.HierFidelity(uint64(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worstQuad := 0.0
			for _, p := range points {
				if p.QuadraticErr > worstQuad {
					worstQuad = p.QuadraticErr
				}
			}
			b.ReportMetric(worstQuad, "worst-quadratic-slowdown-err")
		}
	}
}

// BenchmarkQoSTrace regenerates the §5.2 queue-trace statistic.
func BenchmarkQoSTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.QueueTraceStat(uint64(i))
		if i == 0 {
			b.ReportMetric(r, "P90-wait/exec")
		}
	}
}

// BenchmarkAQATraining runs the §4.4 bid-training search against the
// tabular simulator.
func BenchmarkAQATraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TrainBid(uint64(i+6), 50, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Bid.Reserve.Kilowatts(), "reserve-kW")
			b.ReportMetric(res.Eval.QoS90, "QoS90")
		}
	}
}

// BenchmarkTabularSimulator1000 measures the raw throughput of the §5.6
// simulator at the paper's 1000-node scale (15 simulated minutes per
// iteration).
func BenchmarkTabularSimulator1000(b *testing.B) {
	types := make([]workload.Type, 0, 6)
	for _, t := range workload.LongRunning() {
		types = append(types, t.Scale(25))
	}
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		arrivals, err := schedule.Generate(schedule.Config{
			RNG: stats.NewRNG(seed), Types: types,
			Utilization: 0.75, TotalNodes: 1000, Horizon: 15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Nodes: 1000, Types: types, Weights: weights, Arrivals: arrivals,
			Bid:          dr.Bid{AvgPower: 150000, Reserve: 30000},
			Signal:       dr.NewRandomWalk(seed, 4*time.Second, 0.25, 2*time.Hour),
			Horizon:      15 * time.Minute,
			Seed:         seed,
			VariationStd: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Jobs)), "jobs")
		}
	}
}

// sweepBenchRun is one small simulator run for the sweep-engine
// benchmarks: 32 nodes for 5 simulated minutes, seeded from the flat run
// index so serial and parallel sweeps compute identical work.
func sweepBenchRun(baseSeed uint64, run int) error {
	seed := sweep.DeriveSeed(baseSeed, run)
	types := workload.LongRunning()
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(seed), Types: types,
		Utilization: 0.8, TotalNodes: 32, Horizon: 5 * time.Minute,
	})
	if err != nil {
		return err
	}
	_, err = sim.Run(sim.Config{
		Nodes: 32, Types: types, Weights: weights, Arrivals: arrivals,
		Bid:     dr.Bid{AvgPower: 5000, Reserve: 1000},
		Signal:  dr.NewRandomWalk(seed^0xf16, 4*time.Second, 0.25, time.Hour),
		Horizon: 5 * time.Minute,
		Seed:    seed,
	})
	return err
}

// benchmarkSweep drives 8 independent simulator runs through the sweep
// pool with the given worker bound.
func benchmarkSweep(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		err := sweep.ForEach(context.Background(), 8, sweep.Options{Workers: workers},
			func(_ context.Context, run int) error {
				return sweepBenchRun(uint64(i+1), run)
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial runs the 8-run sweep on one worker: the baseline
// for the parallel speedup.
func BenchmarkSweepSerial(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepParallel runs the same 8-run sweep on GOMAXPROCS
// workers; results are bit-identical to the serial sweep.
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

// BenchmarkSimStep measures the per-simulated-second cost of the tabular
// simulator at the paper's 1000-node scale, reporting simulated steps per
// wall-clock second. BENCH_sim.json tracks this number across engine
// changes (the sim-steps/s metric divides by the arrival horizon, not the
// drain-inclusive step count, so it understates raw throughput; the
// history file measures actual steps).
func BenchmarkSimStep(b *testing.B) {
	const simNodes = 1000
	horizon := 2 * time.Minute
	types := make([]workload.Type, 0, 6)
	for _, t := range workload.LongRunning() {
		types = append(types, t.Scale(25))
	}
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(1), Types: types,
		Utilization: 0.75, TotalNodes: simNodes, Horizon: horizon,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Nodes: simNodes, Types: types, Weights: weights, Arrivals: arrivals,
			Bid:          dr.Bid{AvgPower: 150000, Reserve: 30000},
			Signal:       dr.NewRandomWalk(1, 4*time.Second, 0.25, 2*time.Hour),
			Horizon:      horizon,
			Seed:         1,
			VariationStd: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	steps := horizon.Seconds() * float64(b.N)
	b.ReportMetric(steps/b.Elapsed().Seconds(), "sim-steps/s")
}

func mean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum / float64(len(m))
}
