package experiments

import (
	"time"

	"repro/internal/dr"
	"repro/internal/ledger"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// EnergyConfig parameterizes a per-job energy accounting run: the
// long-running catalog types widened with the cluster (×nodes/40), a 75%
// utilization schedule, 5% node variation and a random-walk target,
// stepped once with the ledger attached.
type EnergyConfig struct {
	// Nodes is the simulated cluster size (default 1000).
	Nodes int
	// Horizon is the arrival-window length (default 10 minutes).
	Horizon time.Duration
	// Seed drives the schedule, variation, and target walk (default 1).
	Seed uint64
}

// EnergyReport runs one deterministic simulation with the energy ledger
// attached and returns the final accounting snapshot (audited: the
// conservation identity holds bit-exactly or Conserved is false) plus
// the simulation result it was attributed from.
func EnergyReport(cfg EnergyConfig) (ledger.Snapshot, sim.Result, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 1000
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 10 * time.Minute
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
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
		return ledger.Snapshot{}, sim.Result{}, err
	}
	led := ledger.New()
	res, err := sim.Run(sim.Config{
		Nodes: cfg.Nodes, Types: types, Weights: weights, Arrivals: arrivals,
		Bid:          dr.Bid{AvgPower: units.Power(cfg.Nodes) * 150, Reserve: units.Power(cfg.Nodes) * 30},
		Signal:       dr.NewRandomWalk(cfg.Seed, 4*time.Second, 0.25, 2*time.Hour),
		Horizon:      cfg.Horizon,
		Seed:         cfg.Seed,
		VariationStd: 0.05,
		Ledger:       led,
	})
	if err != nil {
		return ledger.Snapshot{}, sim.Result{}, err
	}
	return led.SnapshotAt(led.LastMs()), res, nil
}
