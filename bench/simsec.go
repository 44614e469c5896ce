package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/sim"
	"repro/internal/tracein"
	"repro/internal/units"
	"repro/internal/workload"
)

// The simulator at scheduling load: the SDSC-SP2-style sample tiled in
// time and copied side by side, written to a CSV in set-up and streamed
// through tracein.Open into sim.Config.Source, which is the path
// `anor-sim -trace` takes. Shards and GOMAXPROCS stay at their defaults.
//
// The seed moves the arrivals, not the regulation signal. The signal
// decides how often the budget binds, which is most of what a step costs:
// seeding it moved steps/s by a fifth from seed to seed, and a benchmark
// has to do the same work on every seed.
const regulationSeed = 0x5eed

// simShape sizes a trace. policy selects the paper's per-job budgeter
// (EvenSlowdown over the least-sensitive default model); without it the
// run uses AQA's uniform caps.
type simShape struct {
	tiles, copies int
	policy        bool
}

type simSection struct {
	shape simShape
	seed  uint64
	trace traceInfo
	setup time.Duration
}

func prepareSim(shape simShape, dir string, seed uint64) (*simSection, error) {
	begin := time.Now()
	info, err := writeTiledTrace(filepath.Join(dir, "trace.csv"), seed, shape.tiles, shape.copies)
	if err != nil {
		return nil, err
	}
	return &simSection{shape: shape, seed: seed, trace: info, setup: time.Since(begin)}, nil
}

// The bid is fixed per node so that no probe run is needed: the tiled
// trace draws 180 to 195 W a node uncapped, and anor-sim bids 80 % of the
// natural draw with a 15 % reserve.
const (
	bidAvgPerNodeW     = 150.0
	bidReservePerNodeW = 28.0
)

type simRun struct {
	wall       time.Duration
	steps      int
	jobs       int
	unfinished int
	digest     string
	mallocs    uint64
}

// runOnce streams the trace through one sim.Run at the given GOMAXPROCS
// (0 leaves it alone) and digests the result.
func (s *simSection) runOnce(procs int, countAllocs bool) (simRun, error) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	n := float64(s.trace.nodes)
	cfg := sim.Config{
		Nodes:       s.trace.nodes,
		Bid:         dr.Bid{AvgPower: units.Power(bidAvgPerNodeW * n), Reserve: units.Power(bidReservePerNodeW * n)},
		Signal:      dr.NewRandomWalk(regulationSeed, 4*time.Second, 0.25, 8*s.trace.horizon),
		Horizon:     s.trace.horizon,
		Seed:        s.seed,
		TrackWarmup: 2 * time.Minute,
	}
	if s.shape.policy {
		cfg.Budgeter = budget.EvenSlowdown{}
		cfg.DefaultModel = workload.LeastSensitive().RelativeModel()
	}
	var m0, m1 runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&m0)
	}
	begin := time.Now()
	src, err := tracein.Open(s.trace.path, tracein.Options{MaxNodes: s.trace.nodes})
	if err != nil {
		return simRun{}, err
	}
	cfg.Source = src
	res, err := sim.Run(cfg)
	src.Close()
	wall := time.Since(begin)
	if err != nil {
		return simRun{}, err
	}
	if countAllocs {
		runtime.ReadMemStats(&m1)
	}
	return simRun{
		wall: wall, steps: len(res.Tracking), jobs: len(res.Jobs), unfinished: res.Unfinished,
		digest: digestResult(res), mallocs: m1.Mallocs - m0.Mallocs,
	}, nil
}

// digestResult hashes what a policy study reads off a run. Floats print
// with every digit, so two commits agree only if they agree exactly.
func digestResult(res sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %v %v %v %d %v %v %d",
		res.TrackSummary.Points, float64(res.TrackSummary.MeanAbsErr), res.TrackSummary.P90Err,
		res.TrackSummary.WithinConstraint, len(res.Jobs), res.QoS90, float64(res.AvgPower), len(res.Tracking))
	return hex.EncodeToString(h.Sum(nil))
}

type simResult struct {
	runs, runsProcs1  []simRun
	attempted, failed int
	digest            string
	peakRSSMB         float64
}

// run repeats the simulation for budget (at least once, at most maxRuns
// when positive). Traced, runs alternate between the default GOMAXPROCS
// and GOMAXPROCS=1, the plain single-threaded baseline. Every run of one
// trace must produce the same digest.
func (s *simSection) run(budget time.Duration, maxRuns int, traced bool, rec *recorder) (simResult, error) {
	var res simResult
	begin := time.Now()
	for i := 0; more(i, begin, budget, 1, maxRuns); i++ {
		procs1 := traced && i%2 == 1
		procs := 0
		if procs1 {
			procs = 1
		}
		t0 := time.Now()
		r, err := s.runOnce(procs, traced)
		if err != nil {
			return res, err
		}
		if rec != nil {
			name := "sim.run"
			if procs1 {
				name = "sim.run_procs1"
			}
			rec.add(name, t0, t0.Add(r.wall), -1, i)
		}
		if procs1 {
			res.runsProcs1 = append(res.runsProcs1, r)
		} else {
			res.runs = append(res.runs, r)
		}
		res.attempted += s.trace.jobs
		res.failed += r.unfinished + (s.trace.jobs - r.jobs - r.unfinished)
		if res.digest == "" {
			res.digest = r.digest
		} else if r.digest != res.digest {
			// Same trace, same seed, different answer: nothing of this
			// run can be trusted.
			res.failed += s.trace.jobs
		}
	}
	if traced && len(res.runsProcs1) == 0 {
		r, err := s.runOnce(1, true)
		if err != nil {
			return res, err
		}
		res.runsProcs1 = append(res.runsProcs1, r)
		if r.digest != res.digest {
			res.failed += s.trace.jobs
		}
	}
	if traced {
		res.peakRSSMB = peakRSSMB()
	}
	return res, nil
}
