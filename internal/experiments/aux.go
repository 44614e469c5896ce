package experiments

import (
	"time"

	"repro/internal/clock"
	"repro/internal/dr"
	"repro/internal/perfmodel"
	"repro/internal/queuetrace"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// FitRow is one job type's precharacterization quality (§5.1: most types
// fit with R² ≥ 0.97; IS, MG, and SP are the exceptions).
type FitRow struct {
	TypeName string
	R2       float64
	Model    perfmodel.Model
}

// FitTableConfig tunes the precharacterization experiment.
type FitTableConfig struct {
	// Runs per cap level (default 10, as in the paper's error bars).
	Runs int
	// Seed drives the run-to-run noise.
	Seed uint64
}

// FitTable precharacterizes every catalog type by running the noisy
// benchmark across the cap sweep and fitting the quadratic model of §4.2,
// reporting each fit's R². Noise magnitude scales inversely with the
// type's power sensitivity range so flat curves (IS, SP, MG) fit with
// lower R², matching the paper's reported exceptions.
func FitTable(cfg FitTableConfig) ([]FitRow, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	var out []FitRow
	rng := stats.NewRNG(cfg.Seed ^ 0xf17)
	for ti, typ := range workload.Catalog() {
		var caps, times []float64
		// Run-to-run variation dominates real characterization error: a
		// whole run lands a little fast or slow (thermal state, placement)
		// on top of small per-epoch jitter. Flat curves (IS, SP, MG) bury
		// their few-percent signal in it, reproducing the paper's weaker
		// fits for those types (§5.1).
		const runStd = 0.015
		const epochStd = 0.008
		for ci, cap := 0, units.Power(140); cap <= typ.PMax; cap, ci = cap+20, ci+1 {
			for r := 0; r < cfg.Runs; r++ {
				app, err := runOnceVaried(typ, cap,
					cfg.Seed^uint64(ti)*99991^uint64(ci)*101^uint64(r)*31,
					epochStd, 1+rng.Normal(0, runStd))
				if err != nil {
					return nil, err
				}
				caps = append(caps, cap.Watts())
				times = append(times, app/float64(typ.Epochs))
			}
		}
		m, r2, err := perfmodel.Fit(caps, times, typ.PMin, typ.PMax)
		if err != nil {
			return nil, err
		}
		out = append(out, FitRow{TypeName: typ.Name, R2: r2, Model: m})
	}
	return out, nil
}

// QueueTraceStat generates the synthetic month-long queue trace and
// returns its 90th percentile wait/exec ratio (§5.2 reports > 22 for the
// real trace it substitutes).
func QueueTraceStat(seed uint64) float64 {
	jobs := queuetrace.Generate(queuetrace.Config{RNG: stats.NewRNG(seed)})
	return queuetrace.P90Ratio(jobs)
}

// TrainingResult is the outcome of the AQA bid-training experiment
// (§4.4.1-§4.4.2): the chosen bid and queue weights with their evaluation.
type TrainingResult struct {
	Bid     dr.Bid
	Weights map[string]float64
	Eval    dr.Evaluation
}

// TrainBid runs the AQA training search against the tabular simulator: it
// picks the average power, reserve, and queue weights that minimize
// electricity cost subject to the QoS (Q ≤ 5 at 90%) and tracking (≤30%
// error ≥90% of time) constraints.
func TrainBid(seed uint64, nodes int, iterations int) (TrainingResult, error) {
	if nodes <= 0 {
		nodes = 100
	}
	if iterations <= 0 {
		iterations = 30
	}
	types := workload.LongRunning()
	names := make([]string, len(types))
	for i, t := range types {
		names[i] = t.Name
	}
	tariff := dr.Tariff{EnergyPerKWh: 0.10, ReserveCreditPerKWh: 0.04}
	horizon := 30 * time.Minute

	evaluate := func(bid dr.Bid, ws []float64) dr.Evaluation {
		weights := map[string]float64{}
		for i, n := range names {
			weights[n] = ws[i]
		}
		arrivals, err := schedule.Generate(schedule.Config{
			RNG:         stats.NewRNG(seed ^ 0xabcd),
			Types:       types,
			Utilization: 0.75,
			TotalNodes:  nodes,
			Horizon:     horizon,
		})
		if err != nil {
			return dr.Evaluation{QoS90: 1e9}
		}
		arrivals = append(prewarmWave(types, 0.75, nodes, nil), arrivals...)
		res, err := sim.Run(sim.Config{
			Nodes:       nodes,
			Types:       types,
			Weights:     weights,
			Arrivals:    arrivals,
			Bid:         bid,
			Signal:      dr.NewRandomWalk(seed^0x51317, 4*time.Second, 0.25, 8*horizon),
			Horizon:     horizon,
			Seed:        seed,
			TrackWarmup: 2 * time.Minute,
		})
		if err != nil {
			return dr.Evaluation{QoS90: 1e9}
		}
		return dr.Evaluation{
			QoS90:   res.QoS90,
			TrackOK: res.TrackSummary.WithinConstraint,
			Cost:    tariff.Cost(res.AvgPower, bid.Reserve, horizon),
		}
	}

	// Probe: run once with an unconstraining bid to find the cluster's
	// natural (uncapped) draw at this utilization, then search bids below
	// it — the cluster tracks upward only as far as job demand reaches,
	// so the average must leave reserve headroom under the natural draw.
	// This mirrors AQA's "simulate expected scenarios" training (§4.4.2).
	maxPower := units.Power(float64(nodes)) * workload.NodeTDP
	probe := evaluateNatural(seed, nodes, types, horizon)
	if probe <= 0 {
		probe = maxPower / 2
	}
	res, err := dr.Train(dr.TrainConfig{
		RNG:        stats.NewRNG(seed),
		Queues:     len(types),
		AvgMin:     units.Power(0.65 * probe.Watts()),
		AvgMax:     units.Power(0.90 * probe.Watts()),
		ReserveMin: units.Power(0.03 * probe.Watts()),
		ReserveMax: units.Power(0.25 * probe.Watts()),
		QoSLimit:   5,
		Iterations: iterations,
		Evaluate:   evaluate,
	})
	if err != nil {
		return TrainingResult{}, err
	}
	weights := map[string]float64{}
	for i, n := range names {
		weights[n] = res.Weights[i]
	}
	return TrainingResult{Bid: res.Bid, Weights: weights, Eval: res.Eval}, nil
}

// evaluateNatural simulates the workload with an unconstraining bid and
// returns the cluster's average unconstrained draw over the steady window
// (prewarmed queue, ramp and drain excluded) — the reference point for
// sizing feasible bids.
func evaluateNatural(seed uint64, nodes int, types []workload.Type, horizon time.Duration) units.Power {
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG:         stats.NewRNG(seed ^ 0xabcd),
		Types:       types,
		Utilization: 0.75,
		TotalNodes:  nodes,
		Horizon:     horizon,
	})
	if err != nil {
		return 0
	}
	arrivals = append(prewarmWave(types, 0.75, nodes, nil), arrivals...)
	maxPower := units.Power(float64(nodes)) * workload.NodeTDP
	res, err := sim.Run(sim.Config{
		Nodes:    nodes,
		Types:    types,
		Weights:  weights,
		Arrivals: arrivals,
		Bid:      dr.Bid{AvgPower: maxPower, Reserve: 0},
		Signal:   dr.Constant(0),
		Horizon:  horizon,
		Seed:     seed,
	})
	if err != nil {
		return 0
	}
	var sum float64
	n := 0
	warmup := 2 * time.Minute
	if warmup > horizon/4 {
		warmup = horizon / 4
	}
	// Average measured power over [warmup, horizon].
	start := res.Tracking[0].Time
	for _, p := range res.Tracking {
		off := p.Time.Sub(start)
		if off >= warmup && off <= horizon {
			sum += p.Measured.Watts()
			n++
		}
	}
	if n == 0 {
		return res.AvgPower
	}
	return units.Power(sum / float64(n))
}

// autoClock is a tiny helper for experiments needing a throwaway clock.
func autoClock() clock.Clock {
	return clock.NewAuto(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}
