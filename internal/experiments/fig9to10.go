package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dr"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Fig9Config parameterizes the hour-long moving-target experiment of
// §6.3: 16 nodes, targets moving every 4 s between 2.3 kW and 4.5 kW, six
// long-running job types arriving for 95% utilization.
type Fig9Config struct {
	// Nodes is the cluster size (default 16).
	Nodes int
	// Horizon is the schedule length (default 1 hour).
	Horizon time.Duration
	// Utilization is the arrival target (default 0.95).
	Utilization float64
	// Bid sets the target range: default mean 3.4 kW, reserve 1.1 kW
	// (2.3–4.5 kW as in Fig. 9).
	Bid dr.Bid
	// Budgeter is the cluster policy (default even-slowdown).
	Budgeter budget.Budgeter
	// UseFeedback enables the adjusted policy.
	UseFeedback bool
	// Misclassify maps true type → claimed type for the schedule.
	Misclassify map[string]string
	// Seed drives the schedule, signal, and noise.
	Seed uint64
	// NoPrewarm disables the t=0 backlog wave. By default the queue is
	// prewarmed so the cluster starts loaded, as in the paper's
	// backlogged 95%-utilization runs.
	NoPrewarm bool
	// Warmup excludes the first interval from the tracking metrics
	// (default 60 s, covering connection ramp-up).
	Warmup time.Duration
}

// Fig9Result is the tracking outcome of one scheduled run.
type Fig9Result struct {
	// Tracking is the (target, measured) series.
	Tracking []trace.Point
	// Summary holds tracking-error metrics against the bid's reserve.
	Summary trace.Summary
	// P90Err is the 90th percentile reserve-relative error (§6.3 quotes
	// <24% worst case, <17% otherwise).
	P90Err float64
	// SlowdownByType groups fractional slowdowns by true type.
	SlowdownByType map[string][]float64
	// Jobs is the completed-job count.
	Jobs int
}

// Fig9 runs the power-tracking experiment once and reports the series and
// error metrics.
func Fig9(cfg Fig9Config) (Fig9Result, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 16
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Hour
	}
	if cfg.Utilization <= 0 {
		cfg.Utilization = 0.95
	}
	if !cfg.Bid.Valid() {
		cfg.Bid = dr.Bid{AvgPower: 3400, Reserve: 1100}
	}
	if cfg.Budgeter == nil {
		cfg.Budgeter = budget.EvenSlowdown{}
	}

	if cfg.Warmup == 0 {
		cfg.Warmup = time.Minute
	}

	types := workload.LongRunning()
	arrivals, err := schedule.Generate(schedule.Config{
		RNG:         stats.NewRNG(cfg.Seed),
		Types:       types,
		Utilization: cfg.Utilization,
		TotalNodes:  cfg.Nodes,
		Horizon:     cfg.Horizon,
		Misclassify: cfg.Misclassify,
	})
	if err != nil {
		return Fig9Result{}, err
	}
	if !cfg.NoPrewarm {
		arrivals = append(prewarmWave(types, cfg.Utilization, cfg.Nodes, cfg.Misclassify), arrivals...)
	}

	signal := dr.NewRandomWalk(cfg.Seed^0x5eed, 4*time.Second, 0.25, 4*cfg.Horizon)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	v := clock.NewVirtual(start)
	cluster, err := core.NewCluster(core.Config{
		Nodes:    cfg.Nodes,
		Clock:    v,
		Budgeter: cfg.Budgeter,
		Target: func(now time.Time) units.Power {
			return cfg.Bid.Target(signal.At(now.Sub(start)))
		},
		UseFeedback: cfg.UseFeedback,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return Fig9Result{}, err
	}
	defer cluster.Close()

	typeMap := map[string]workload.Type{}
	for _, t := range types {
		typeMap[t.Name] = t
	}
	weights := map[string]float64{}
	for _, t := range types {
		weights[t.Name] = 1
	}

	var runRes ScheduledRunResult
	var runErr error
	core.Drive(v, func() {
		runRes, runErr = RunScheduled(ScheduledRunConfig{
			Cluster:       cluster,
			Arrivals:      arrivals,
			Types:         typeMap,
			Weights:       weights,
			Nodes:         cfg.Nodes,
			EpochNoiseStd: 0.01,
			Seed:          cfg.Seed,
		})
	})
	if runErr != nil {
		return Fig9Result{}, runErr
	}

	// Tracking metrics cover the schedule window: after warmup (endpoint
	// connections ramping up) and before the post-horizon drain, when
	// arrivals have stopped and the emptying cluster cannot track.
	var window []trace.Point
	for _, p := range runRes.Tracking {
		off := p.Time.Sub(start)
		if off >= cfg.Warmup && off <= cfg.Horizon {
			window = append(window, p)
		}
	}
	errs := trace.Errors(window, cfg.Bid.Reserve)
	return Fig9Result{
		Tracking:       runRes.Tracking,
		Summary:        trace.Summarize(window, cfg.Bid.Reserve),
		P90Err:         stats.Percentile(errs, 90),
		SlowdownByType: runRes.SlowdownByType,
		Jobs:           len(runRes.Results),
	}, nil
}

// prewarmWave synthesizes a t=0 backlog: one wave of submissions cycling
// through the job mix until the requested node demand is queued, so the
// cluster starts the schedule loaded.
func prewarmWave(types []workload.Type, utilization float64, nodes int, misclassify map[string]string) []schedule.Arrival {
	var out []schedule.Arrival
	demand := 0
	want := int(utilization * float64(nodes))
	for i := 0; demand < want; i++ {
		t := types[i%len(types)]
		claimed := t.Name
		if c, ok := misclassify[t.Name]; ok {
			claimed = c
		}
		out = append(out, schedule.Arrival{
			At:          0,
			JobID:       fmt.Sprintf("warm-%02d-%s", i, t.Name),
			TypeName:    t.Name,
			ClaimedType: claimed,
		})
		demand += t.Nodes
	}
	return out
}

// Fig10Row is one capping technique's outcome in Fig. 10.
type Fig10Row struct {
	Policy string
	// MeanSlowdown and CI95 are fractional mean slowdown and its 95%
	// confidence half-width, per true type name.
	MeanSlowdown map[string]float64
	CI95         map[string]float64
	// P90Err is the run's 90th percentile tracking error.
	P90Err float64
}

// Fig10Config tunes Fig. 10 (policy comparison over the hour schedule).
type Fig10Config struct {
	Seed    uint64
	Horizon time.Duration
	// Parallel bounds concurrent policy runs (0 = GOMAXPROCS).
	Parallel int
}

// Fig10 compares the four capping techniques of Fig. 10 — Uniform,
// Characterized, Misclassified (BT claimed as IS), and Adjusted
// (misclassified plus feedback) — over the same hour-long schedule. All
// four policies share the seed (same schedule, same signal) so the
// capping technique is the only variable; each runs its own emulated
// cluster, so the four fan out across a sweep pool.
func Fig10(cfg Fig10Config) ([]Fig10Row, error) {
	mis := map[string]string{"bt.D.81": "is.D.32"}
	configs := []struct {
		name        string
		budgeter    budget.Budgeter
		misclassify map[string]string
		feedback    bool
	}{
		{"Uniform", budget.Uniform{}, nil, false},
		{"Characterized", budget.EvenSlowdown{}, nil, false},
		{"Misclassified", budget.EvenSlowdown{}, mis, false},
		{"Adjusted", budget.EvenSlowdown{}, mis, true},
	}
	return sweep.Map(context.Background(), len(configs), sweep.Options{Workers: cfg.Parallel},
		func(_ context.Context, run int) (Fig10Row, error) {
			c := configs[run]
			res, err := Fig9(Fig9Config{
				Horizon:     cfg.Horizon,
				Budgeter:    c.budgeter,
				Misclassify: c.misclassify,
				UseFeedback: c.feedback,
				Seed:        cfg.Seed,
			})
			if err != nil {
				return Fig10Row{}, err
			}
			row := Fig10Row{
				Policy:       c.name,
				MeanSlowdown: map[string]float64{},
				CI95:         map[string]float64{},
				P90Err:       res.P90Err,
			}
			for name, xs := range res.SlowdownByType {
				row.MeanSlowdown[name] = stats.Mean(xs)
				row.CI95[name] = stats.ConfidenceInterval(xs, 0.95)
			}
			return row, nil
		})
}
