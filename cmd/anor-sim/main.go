// Command anor-sim runs the tabular cluster simulator of §5.6: a
// 1000-node-class cluster under a demand-response power target, with
// optional per-node performance variation, reporting QoS degradation and
// power-tracking metrics.
//
// Usage:
//
//	anor-sim -nodes 1000 -hours 1 -util 0.75 -variation 0.15 -seed 1 \
//	         -scale 25 -table state.csv
//	anor-sim -nodes 1000 -runs 8 -parallel 4 -seed 1   # multi-seed sweep
//
// With -runs > 1 a live progress/throughput line updates on stderr
// (disable with -progress=false); -events streams JSONL events: dr_bid,
// sim_step, sim_recap spans, and the SLO engine's alert transitions.
// With -telemetry ADDR the run serves /metrics, /timeseries, and pprof
// so anor-top can attach live; -record FILE
// streams every telemetry sample into a flight-recorder file replayable
// with anor-top -replay, and -profile-dir rotates continuous CPU/heap
// profiles. Single runs carry a per-job energy ledger (printed after the
// run and served live as /accounting), and -slo RULES evaluates
// declarative SLO rules over the virtual-time rollups, printing a
// machine-readable slo-verdict: line. None of it changes any simulated
// number: observability is strictly read-only against the deterministic
// simulator.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/tracein"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 1000, "simulated node count")
	hours := flag.Float64("hours", 1, "arrival-window length in hours")
	util := flag.Float64("util", 0.75, "target node utilization")
	variation := flag.Float64("variation", 0, "performance-variation level (99% of nodes within ±X, e.g. 0.15)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	scale := flag.Int("scale", 25, "node-count multiplier applied to each job type")
	avg := flag.Float64("avg", 0, "bid average power in watts (0 = 80% of probed natural draw)")
	reserve := flag.Float64("reserve", 0, "bid reserve in watts (0 = 15% of probed natural draw)")
	policy := flag.String("budgeter", "", "per-job budgeter (even-slowdown, even-power); empty = AQA uniform caps")
	feedback := flag.Bool("feedback", false, "exempt at-risk jobs from capping (§6.4 mitigation)")
	table := flag.String("table", "", "write per-second cluster state CSV here")
	failuresPath := flag.String("failures", "", "node fail-stop/recovery schedule (JSON lines: {\"at_ns\",\"node\",\"kind\"}); empty disables")
	runs := flag.Int("runs", 1, "independent runs; >1 reports per-run lines plus mean±std aggregates")
	parallel := flag.Int("parallel", 0, "concurrent runs when -runs > 1 (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", true, "print a live progress/throughput line on stderr when -runs > 1")
	eventsOut := flag.String("events", "", "stream structured JSONL events (dr_bid, sim_step, sim_recap spans, SLO alerts) to this file; empty disables")
	tracePath := flag.String("trace", "", "stream arrivals from a job trace (.csv or .jsonl) instead of the synthetic generator; -util and -scale are ignored")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /timeseries, and pprof on this address so anor-top can attach live; empty disables")
	recordOut := flag.String("record", "", "write every telemetry sample to this binary flight-recorder file (replayable with anor-top -replay)")
	profileDir := flag.String("profile-dir", "", "rotate continuous CPU+heap profiles into this directory; empty disables")
	sloPath := flag.String("slo", "", "SLO rule file (JSON): rules are evaluated against the run's virtual-time rollups and the verdict prints as a machine-readable slo-verdict: line (single run)")
	flag.Parse()
	if *runs < 1 {
		log.Fatalf("anor-sim: -runs must be ≥ 1 (got %d)", *runs)
	}
	if *table != "" && *runs > 1 {
		log.Fatal("anor-sim: -table writes one run's state; use it with -runs=1")
	}
	if *sloPath != "" && *runs > 1 {
		log.Fatal("anor-sim: -slo evaluates one run's virtual-time series; use it with -runs=1")
	}

	var failures []faults.NodeEvent
	if *failuresPath != "" {
		f, err := os.Open(*failuresPath)
		if err != nil {
			log.Fatal(err)
		}
		failures, err = faults.ReadNodeSchedule(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		faults.SortNodeSchedule(failures)
		if err := faults.ValidateNodeSchedule(failures, *nodes); err != nil {
			log.Fatal(err)
		}
	}

	horizon := time.Duration(*hours * float64(time.Hour))

	// Arrivals come either from a streamed trace file (each run opens its
	// own reader; jobs never reside in memory as one slice) or from the
	// synthetic generator.
	var types []workload.Type
	var weights map[string]float64
	var arrivals []schedule.Arrival
	openTrace := func() *tracein.Reader {
		r, err := tracein.Open(*tracePath, tracein.Options{MaxNodes: *nodes})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	if *tracePath == "" {
		weights = map[string]float64{}
		for _, t := range workload.LongRunning() {
			st := t.Scale(*scale)
			types = append(types, st)
			weights[st.Name] = 1
		}
		var err error
		arrivals, err = schedule.Generate(schedule.Config{
			RNG: stats.NewRNG(*seed), Types: types,
			Utilization: *util, TotalNodes: *nodes, Horizon: horizon,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	var tracer *obs.Tracer
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f, fmt.Sprintf("anor-sim-%d", os.Getpid()))
		defer tracer.Flush()
	}

	// Telemetry: retained rollup series (sim series in virtual time,
	// runtime health in wall time), optionally teed into a flight-recorder
	// file and served as /timeseries for a live anor-top.
	var store *telemetry.Store
	var registry *obs.Registry
	// The energy ledger follows the telemetry rule: one run's virtual
	// timeline per ledger (sweep runs would all stamp the same virtual
	// milliseconds and collide), so only single runs carry one.
	var led *ledger.Ledger
	if *runs == 1 {
		led = ledger.New()
	}
	var sloEngine *slo.Engine
	if *telemetryAddr != "" || *recordOut != "" || *sloPath != "" {
		store = telemetry.NewStore()
		registry = obs.NewRegistry()
		if *recordOut != "" {
			f, err := os.Create(*recordOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			rec := telemetry.NewRecorder(f)
			store.SetRecorder(rec)
			defer rec.Flush()
		}
		if *sloPath != "" {
			rules, err := slo.LoadFile(*sloPath)
			if err != nil {
				log.Fatal(err)
			}
			sloEngine = slo.NewEngine(store, rules, tracer)
			if led != nil {
				// A live /slo scrape mid-run evaluates at the virtual
				// front the ledger has settled to, not wall time.
				sloEngine.SetNow(func() time.Time { return time.UnixMilli(led.LastMs()) })
			}
		}
		sampler := telemetry.StartSampler(telemetry.SamplerConfig{
			Store: store, Registry: registry, Tracer: tracer,
		})
		defer sampler.Close()
		if *telemetryAddr != "" {
			mounts := []obs.Mount{{Pattern: "/timeseries", Handler: store.Handler()}}
			if led != nil {
				mounts = append(mounts, obs.Mount{Pattern: "/accounting", Handler: led.Handler(led.LastMs)})
			}
			if sloEngine != nil {
				mounts = append(mounts, obs.Mount{Pattern: "/slo", Handler: sloEngine.Handler()})
			}
			admin, err := obs.StartAdmin(*telemetryAddr, registry, nil, mounts...)
			if err != nil {
				log.Fatal(err)
			}
			defer admin.Close()
			log.Printf("anor-sim: telemetry on http://%s (/metrics, /timeseries, /accounting, /debug/pprof/)", admin.Addr())
		}
	}
	if *profileDir != "" {
		prof, err := obs.StartProfiler(obs.ProfilerConfig{Dir: *profileDir})
		if err != nil {
			log.Fatal(err)
		}
		defer prof.Close()
	}

	bid := dr.Bid{AvgPower: units.Power(*avg), Reserve: units.Power(*reserve)}
	if bid.AvgPower == 0 || bid.Reserve == 0 {
		// The probe always uses the base seed's schedule so the bid — an
		// input shared by every run — does not depend on -runs.
		probeCfg := sim.Config{
			Nodes: *nodes, Types: types, Weights: weights, Arrivals: arrivals,
			Bid:    dr.Bid{AvgPower: units.Power(*nodes) * workload.NodeTDP, Reserve: 0},
			Signal: dr.Constant(0), Horizon: horizon, Seed: *seed,
		}
		if *tracePath != "" {
			r := openTrace()
			defer r.Close()
			probeCfg.Arrivals, probeCfg.Source = nil, r
		}
		probe, err := sim.Run(probeCfg)
		if err != nil {
			log.Fatal(err)
		}
		if bid.AvgPower == 0 {
			bid.AvgPower = units.Power(0.80 * probe.AvgPower.Watts())
		}
		if bid.Reserve == 0 {
			bid.Reserve = units.Power(0.15 * probe.AvgPower.Watts())
		}
		log.Printf("anor-sim: probed natural draw %s → bid avg %s reserve %s",
			probe.AvgPower, bid.AvgPower, bid.Reserve)
	}
	if tracer.Enabled() {
		tracer.Emit(obs.Event{Type: obs.EvDRBid, Fields: obs.F{
			"avg_w": bid.AvgPower.Watts(), "reserve_w": bid.Reserve.Watts(),
		}})
	}

	var budgeter budget.Budgeter
	switch *policy {
	case "":
	case "even-slowdown":
		budgeter = budget.EvenSlowdown{}
	case "even-power":
		budgeter = budget.EvenPower{}
	default:
		log.Fatalf("anor-sim: unknown budgeter %q", *policy)
	}
	// Shared read-only inputs: types, weights, typeModels, and the bid are
	// built once and shared across all runs (sim.Run never mutates them).
	var typeModels map[string]perfmodel.Model
	var defaultModel perfmodel.Model
	if budgeter != nil {
		typeModels = map[string]perfmodel.Model{}
		for _, t := range types {
			typeModels[t.Name] = t.RelativeModel()
		}
		defaultModel = workload.LeastSensitive().RelativeModel()
	}
	stepCounter := obs.NewCounter()
	mkConfig := func(runSeed uint64, arr []schedule.Arrival, runID string) sim.Config {
		cfg := sim.Config{
			Nodes: *nodes, Types: types, Weights: weights, Arrivals: arr,
			Bid:               bid,
			Signal:            dr.NewRandomWalk(runSeed^0x5eed, 4*time.Second, 0.25, 8*horizon),
			Horizon:           horizon,
			Seed:              runSeed,
			VariationStd:      *variation / 2.576, // 99% within ±level
			FeedbackQoSExempt: *feedback,
			Failures:          failures,
			Budgeter:          budgeter,
			TypeModels:        typeModels,
			DefaultModel:      defaultModel,
			TrackWarmup:       2 * time.Minute,
			Tracer:            tracer,
			Progress:          stepCounter,
			RunID:             runID,
		}
		if *tracePath != "" {
			// Each run streams the trace through its own reader; the
			// caller is responsible for closing it after sim.Run returns.
			cfg.Arrivals, cfg.Source = nil, openTrace()
		}
		return cfg
	}

	if *runs == 1 {
		cfg := mkConfig(*seed, arrivals, "run0")
		// Sim series carry virtual timestamps; only a single run records
		// them (concurrent sweep runs would all stamp the same virtual
		// seconds and collide in one store).
		cfg.Telemetry = store
		cfg.Metrics = registry
		cfg.Ledger = led
		if *table != "" {
			f, err := os.Create(*table)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			cfg.TableLog = f
		}
		res, err := sim.Run(cfg)
		if r, ok := cfg.Source.(*tracein.Reader); ok {
			r.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
		printRun(res)
		printEnergy(led)
		if sloEngine != nil {
			// Pin evaluation to the run's virtual end so window math
			// sees the same "now" the recorded series were stamped with.
			end := time.UnixMilli(led.LastMs())
			if n := len(res.Tracking); n > 0 {
				end = res.Tracking[n-1].Time.Add(time.Second)
			}
			sloEngine.SetNow(func() time.Time { return end })
			verdict, _ := json.Marshal(sloEngine.Evaluate(end))
			fmt.Printf("slo-verdict: %s\n", verdict)
		}
		return
	}

	// Multi-run sweep: each run derives its seed from the flat run index,
	// so results are deterministic in -seed regardless of -parallel.
	runsDone := obs.NewCounter()
	stopProgress := startProgress(*progress, *runs, stepCounter, runsDone)
	results, err := sweep.Map(context.Background(), *runs,
		sweep.Options{Workers: *parallel, OnRunDone: func(int) { runsDone.Inc() }, Telemetry: store},
		func(_ context.Context, run int) (sim.Result, error) {
			runSeed := sweep.DeriveSeed(*seed, run)
			var arr []schedule.Arrival
			if *tracePath == "" {
				var err error
				arr, err = schedule.Generate(schedule.Config{
					RNG: stats.NewRNG(runSeed), Types: types,
					Utilization: *util, TotalNodes: *nodes, Horizon: horizon,
				})
				if err != nil {
					return sim.Result{}, err
				}
			}
			cfg := mkConfig(runSeed, arr, fmt.Sprintf("run%d", run))
			res, err := sim.Run(cfg)
			if r, ok := cfg.Source.(*tracein.Reader); ok {
				r.Close()
			}
			return res, err
		})
	stopProgress()
	if err != nil {
		log.Fatal(err)
	}
	printAggregate(*seed, results)
}

// startProgress launches the live progress/throughput line on stderr:
// runs completed, simulated seconds advanced across all workers, and
// sim-seconds-per-wallclock-second throughput. Progress counters are
// read-only taps on the sweep, so the display never perturbs results.
// The returned stop function erases the line and joins the printer.
func startProgress(enabled bool, runs int, steps, runsDone *obs.Counter) func() {
	if !enabled || runs <= 1 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		var last uint64
		for {
			select {
			case <-done:
				fmt.Fprintf(os.Stderr, "\r\x1b[K")
				return
			case <-tick.C:
				s := steps.Value()
				fmt.Fprintf(os.Stderr, "\ranor-sim: %d/%d runs done, %d sim-s advanced, %d sim-s/s   ",
					runsDone.Value(), runs, s, s-last)
				last = s
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// printEnergy reports the per-job energy accounting: the conservation
// audit line plus the top consumers by joules.
func printEnergy(led *ledger.Ledger) {
	if led == nil {
		return
	}
	a := led.SnapshotAt(led.LastMs())
	audit := "audit ok"
	if !a.Conserved {
		audit = fmt.Sprintf("AUDIT BROKEN Δ=%dµJ errs=%d", a.ConservationDeltaMicroJ, a.Errors)
	}
	fmt.Printf("energy: total %.0f J (jobs %.0f J, idle %.0f J), %d requeues, %s\n",
		a.TotalJoules, a.JobsJoules, a.IdleJoules, a.Requeues, audit)
	for _, j := range a.Top(5) {
		fmt.Printf("  %-14s %-10s %12.0f J  avg %7.1f W  peak %7.1f W  thr %5.0f s  n=%d\n",
			j.ID, j.Type, j.Joules, j.AvgWatts, j.PeakWatts, j.ThrottledS, j.Nodes)
	}
}

// printRun reports one simulation in full detail.
func printRun(res sim.Result) {
	fmt.Printf("jobs completed: %d (unfinished %d)\n", len(res.Jobs), res.Unfinished)
	if res.Requeues > 0 {
		fmt.Printf("failure requeues: %d\n", res.Requeues)
	}
	fmt.Printf("mean utilization: %.1f%%\n", 100*res.MeanUtilization)
	fmt.Printf("average power: %s\n", res.AvgPower)
	fmt.Printf("tracking: P90 err %.1f%% of reserve, constraint(≤30%% @90%%) ok=%v\n",
		100*res.TrackSummary.P90Err, res.TrackSummary.WithinConstraint)
	fmt.Printf("QoS degradation: P90 %.2f (target ≤ 5)\n", res.QoS90)
	var names []string
	for n := range res.QoSByType {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		qs := res.QoSByType[n]
		fmt.Printf("  %-10s n=%3d  P90 QoS %.2f\n", n, len(qs), stats.Percentile(qs, 90))
	}
}

// printAggregate reports a per-run summary line followed by mean±std
// aggregates across the sweep.
func printAggregate(baseSeed uint64, results []sim.Result) {
	var qos90, p90Err, avgPower, utilization []float64
	trackOK := 0
	for run, res := range results {
		fmt.Printf("run %2d (seed %#016x): jobs %4d  util %5.1f%%  avg %s  P90 err %5.1f%%  P90 QoS %.2f  ok=%v\n",
			run, sweep.DeriveSeed(baseSeed, run), len(res.Jobs), 100*res.MeanUtilization,
			res.AvgPower, 100*res.TrackSummary.P90Err, res.QoS90,
			res.TrackSummary.WithinConstraint)
		qos90 = append(qos90, res.QoS90)
		p90Err = append(p90Err, res.TrackSummary.P90Err)
		avgPower = append(avgPower, res.AvgPower.Watts())
		utilization = append(utilization, res.MeanUtilization)
		if res.TrackSummary.WithinConstraint {
			trackOK++
		}
	}
	meanStd := func(xs []float64) (float64, float64) {
		m := stats.Mean(xs)
		if len(xs) < 2 {
			return m, 0
		}
		return m, stats.StdDev(xs)
	}
	fmt.Printf("\naggregate over %d runs:\n", len(results))
	m, s := meanStd(qos90)
	fmt.Printf("  P90 QoS degradation: %.2f ± %.2f (target ≤ 5)\n", m, s)
	m, s = meanStd(p90Err)
	fmt.Printf("  P90 tracking error:  %.1f%% ± %.1f%% of reserve\n", 100*m, 100*s)
	m, s = meanStd(avgPower)
	fmt.Printf("  average power:       %s ± %s\n", units.Power(m), units.Power(math.Round(s)))
	m, s = meanStd(utilization)
	fmt.Printf("  mean utilization:    %.1f%% ± %.1f%%\n", 100*m, 100*s)
	fmt.Printf("  tracking constraint: %d/%d runs ok\n", trackOK, len(results))
}
