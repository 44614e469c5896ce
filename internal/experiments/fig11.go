package experiments

import (
	"context"
	"time"

	"repro/internal/dr"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

// Fig11Config parameterizes the performance-variation study of §6.4: a
// simulated 1000-node cluster, six job types scaled to 25× their testbed
// node counts, 75% utilization, 10 trials per variation level.
type Fig11Config struct {
	// Nodes is the simulated cluster size (default 1000).
	Nodes int
	// Levels are the variation levels as "99% of performance within ±X"
	// fractions (default 0, 0.075, 0.15, 0.225, 0.30 as on the figure's
	// x-axis).
	Levels []float64
	// Trials per level (default 10).
	Trials int
	// Horizon is the arrival window (default 1 hour).
	Horizon time.Duration
	// Utilization is the arrival target (default 0.75).
	Utilization float64
	// NodeScale multiplies type node counts (default 25).
	NodeScale int
	// Seed is the base seed; every (level, trial) cell derives its own
	// seed from it.
	Seed uint64
	// FeedbackQoSExempt turns on the §6.4 mitigation (exempting at-risk
	// jobs from capping) to reproduce the reported null result.
	FeedbackQoSExempt bool
	// Parallel bounds concurrent trials (0 = GOMAXPROCS).
	Parallel int
}

// Fig11Level is one variation level's outcome.
type Fig11Level struct {
	// Level is the ±fraction containing 99% of performance.
	Level float64
	// P90QoSByType maps true type → mean (over trials) of the 90th
	// percentile QoS degradation, with 90% confidence half-widths.
	P90QoSByType map[string]float64
	CI90ByType   map[string]float64
	// TrackOKFraction is the fraction of trials meeting the tracking
	// constraint (≤30% error ≥90% of time).
	TrackOKFraction float64
}

// levelToStd converts a "99% within ±X" level to the normal standard
// deviation: 99% of a normal lies within ±2.576σ.
func levelToStd(level float64) float64 { return level / 2.576 }

// Fig11 runs the variation sweep and reports per-type 90th percentile QoS
// degradation, reproducing the Fig. 11 trend: more variation, more QoS
// degradation, with sensitive types crossing the Q=5 target first.
func Fig11(cfg Fig11Config) ([]Fig11Level, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1000
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []float64{0, 0.075, 0.15, 0.225, 0.30}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Hour
	}
	if cfg.Utilization <= 0 {
		cfg.Utilization = 0.75
	}
	if cfg.NodeScale <= 0 {
		cfg.NodeScale = 25
	}

	var types []workload.Type
	weights := map[string]float64{}
	for _, t := range workload.LongRunning() {
		st := t.Scale(cfg.NodeScale)
		types = append(types, st)
		weights[st.Name] = 1
	}
	// Bid sized from a probe of the cluster's natural draw: the average
	// sits below it so upward targets stay reachable, with the reserve
	// inside the remaining headroom.
	natural := evaluateNatural(cfg.Seed, cfg.Nodes, types, cfg.Horizon/2)
	if natural <= 0 {
		natural = units.Power(0.75*230) * units.Power(cfg.Nodes)
	}
	bid := dr.Bid{
		AvgPower: units.Power(0.80 * natural.Watts()),
		Reserve:  units.Power(0.15 * natural.Watts()),
	}

	// Every (level, trial) cell is one independent simulator run: the
	// whole grid fans out across a sweep pool, with per-cell seeds
	// derived from the flat grid index. The shared inputs (types,
	// weights, bid) are immutable from here on; each cell builds its own
	// schedule, signal, and simulator state.
	type trialOut struct {
		p90ByType map[string]float64
		trackOK   bool
	}
	outs, err := sweep.Map(context.Background(), len(cfg.Levels)*cfg.Trials,
		sweep.Options{Workers: cfg.Parallel},
		func(_ context.Context, run int) (trialOut, error) {
			level := cfg.Levels[run/cfg.Trials]
			seed := sweep.DeriveSeed(cfg.Seed, run)
			arrivals, err := schedule.Generate(schedule.Config{
				RNG:         stats.NewRNG(seed),
				Types:       types,
				Utilization: cfg.Utilization,
				TotalNodes:  cfg.Nodes,
				Horizon:     cfg.Horizon,
			})
			if err != nil {
				return trialOut{}, err
			}
			arrivals = append(prewarmWave(types, cfg.Utilization, cfg.Nodes, nil), arrivals...)
			res, err := sim.Run(sim.Config{
				Nodes:             cfg.Nodes,
				Types:             types,
				Weights:           weights,
				Arrivals:          arrivals,
				Bid:               bid,
				Signal:            dr.NewRandomWalk(seed^0xf16, 4*time.Second, 0.25, 8*cfg.Horizon),
				Horizon:           cfg.Horizon,
				Seed:              seed,
				VariationStd:      levelToStd(level),
				FeedbackQoSExempt: cfg.FeedbackQoSExempt,
				TrackWarmup:       2 * time.Minute,
			})
			if err != nil {
				return trialOut{}, err
			}
			to := trialOut{
				p90ByType: map[string]float64{},
				trackOK:   res.TrackSummary.WithinConstraint,
			}
			for name, qs := range res.QoSByType {
				to.p90ByType[name] = stats.Percentile(qs, 90)
			}
			return to, nil
		})
	if err != nil {
		return nil, err
	}

	var out []Fig11Level
	for li, level := range cfg.Levels {
		perType := map[string][]float64{}
		trackOK := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			to := outs[li*cfg.Trials+trial]
			for name, p90 := range to.p90ByType {
				perType[name] = append(perType[name], p90)
			}
			if to.trackOK {
				trackOK++
			}
		}
		lvl := Fig11Level{
			Level:           level,
			P90QoSByType:    map[string]float64{},
			CI90ByType:      map[string]float64{},
			TrackOKFraction: float64(trackOK) / float64(cfg.Trials),
		}
		for name, xs := range perType {
			lvl.P90QoSByType[name] = stats.Mean(xs)
			lvl.CI90ByType[name] = stats.ConfidenceInterval(xs, 0.90)
		}
		out = append(out, lvl)
	}
	return out, nil
}
