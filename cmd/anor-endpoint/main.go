// Command anor-endpoint is the ANOR job-tier endpoint process (§4): one
// runs per job. It stands up the job's GEOPM runtime over simulated
// node hardware, runs the selected synthetic benchmark with epoch
// instrumentation, connects to the cluster manager (anord) over TCP,
// relays power budgets down to the agents, and streams the online-fitted
// power-performance model back up.
//
// With -metrics it serves /metrics, /healthz, and pprof, exposing epoch
// rates, cap-application latency, and model-fit residuals; -events
// streams epoch-batch/model-refit events and cap_apply/cap_fanout spans
// as JSONL; -telemetry retains job-labelled power/cap/epoch-rate rollup
// series as /timeseries, and -record tees them into a flight-recorder
// file. An energy ledger accrues this job's joules from every sample,
// serves /accounting on the -metrics address, and prints an energy line
// at exit.
//
// Usage:
//
//	anor-endpoint -cluster localhost:9700 -job j1 -bench bt.D.81 \
//	              -claim is.D.32 -nodes 2 -metrics :9791
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/endpointd"
	"repro/internal/geopm"
	"repro/internal/ledger"
	"repro/internal/modeler"
	"repro/internal/nodesim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	cluster := flag.String("cluster", "localhost:9700", "cluster manager address")
	jobID := flag.String("job", "", "job ID (required)")
	benchName := flag.String("bench", "is.D.32", "benchmark type to run")
	claim := flag.String("claim", "", "type announced to the cluster (default: the true type; set for misclassification experiments)")
	nodes := flag.Int("nodes", 0, "node count (default: the type's)")
	variation := flag.Float64("variation", 1.0, "performance-variation multiplier")
	noise := flag.Float64("noise", 0.01, "per-epoch noise standard deviation")
	seed := flag.Uint64("seed", 1, "noise seed")
	reconnectMin := flag.Duration("reconnect-min", 500*time.Millisecond, "minimum backoff between cluster re-dials")
	reconnectMax := flag.Duration("reconnect-max", 10*time.Second, "maximum backoff between cluster re-dials")
	hold := flag.Duration("hold", 0, "hold the last cap this long while disconnected before the failsafe cap (default 3x report period)")
	failsafeCap := flag.Float64("failsafe-cap", 0, "per-node failsafe cap in watts enforced after -hold expires disconnected (default: node minimum cap)")
	readTimeout := flag.Duration("read-timeout", 0, "per-receive wire deadline; a silent cluster past it counts as a dropped link; 0 disables")
	statePath := flag.String("state-file", "", "durable endpoint state file: persists the highest controller epoch and the last applied cap, which is re-imposed before the first dial after a restart; empty disables")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz, and pprof on this address; empty disables")
	eventsOut := flag.String("events", "", "stream structured JSONL events to this file; empty disables")
	telemetryOn := flag.Bool("telemetry", false, "retain multi-resolution rollup series and serve /timeseries on the -metrics address")
	recordOut := flag.String("record", "", "append every telemetry sample to this binary flight-recorder file (implies -telemetry)")
	verbose := flag.Bool("v", false, "enable debug logging")
	flag.Parse()

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level, "anor-endpoint").WithJob(*jobID)
	fatalf := func(format string, args ...any) {
		logger.Errorf(format, args...)
		os.Exit(1)
	}

	if *jobID == "" {
		fatalf("-job is required")
	}
	typ, err := workload.ByName(*benchName)
	if err != nil {
		fatalf("%v", err)
	}
	nNodes := *nodes
	if nNodes <= 0 {
		nNodes = typ.Nodes
	}
	claimed := *claim
	if claimed == "" {
		claimed = typ.Name
	}

	var store *telemetry.Store
	if *telemetryOn || *recordOut != "" {
		store = telemetry.NewStore()
		if *recordOut != "" {
			f, err := os.Create(*recordOut)
			if err != nil {
				fatalf("creating flight-recorder file: %v", err)
			}
			defer f.Close()
			rec := telemetry.NewRecorder(f)
			store.SetRecorder(rec)
			defer rec.Flush()
		}
	}
	// The job-tier energy ledger: one account (this job) accrued from
	// every telemetry sample, served as /accounting alongside /metrics.
	led := ledger.New()
	var registry *obs.Registry
	if *metricsAddr != "" {
		registry = obs.NewRegistry()
		var mounts []obs.Mount
		if store != nil {
			mounts = append(mounts, obs.Mount{Pattern: "/timeseries", Handler: store.Handler()})
		}
		mounts = append(mounts, obs.Mount{Pattern: "/accounting",
			Handler: led.Handler(func() int64 { return time.Now().UnixMilli() })})
		admin, err := obs.StartAdmin(*metricsAddr, registry, nil, mounts...)
		if err != nil {
			fatalf("%v", err)
		}
		defer admin.Close()
		logger.Infof("admin endpoint on http://%s (/metrics, /healthz, /timeseries, /accounting, /debug/pprof/)", admin.Addr())
	}
	var tracer *obs.Tracer
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatalf("creating events file: %v", err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f, fmt.Sprintf("%s-%d", *jobID, os.Getpid()))
		defer tracer.Flush()
	}
	if store != nil {
		sampler := telemetry.StartSampler(telemetry.SamplerConfig{
			Store: store, Registry: registry, Tracer: tracer,
		})
		defer sampler.Close()
	}

	clk := clock.Real{}
	pios := make([]*geopm.PlatformIO, nNodes)
	for i := range pios {
		node := nodesim.NewNode(i, nodesim.Config{Clock: clk, NoiseStd: 0.01, Seed: *seed})
		node.SetDemand(typ.PMax)
		pios[i] = geopm.NewPlatformIO(node)
	}
	ep := geopm.NewEndpoint()
	rt, err := geopm.NewRuntime(geopm.RuntimeConfig{
		JobID: *jobID, PIOs: pios, Endpoint: ep, Clock: clk,
		Metrics: registry, Tracer: tracer,
	})
	if err != nil {
		fatalf("%v", err)
	}
	mdl, err := modeler.New(modeler.Config{Default: typ.Model()})
	if err != nil {
		fatalf("%v", err)
	}

	epd, err := endpointd.New(endpointd.Config{
		JobID:         *jobID,
		TypeName:      claimed,
		Nodes:         nNodes,
		Dial:          func() (net.Conn, error) { return net.Dial("tcp", *cluster) },
		GEOPM:         ep,
		Modeler:       mdl,
		Clock:         clk,
		Metrics:       registry,
		Tracer:        tracer,
		Telemetry:     store,
		Ledger:        led,
		Log:           logger,
		ReconnectMin:  *reconnectMin,
		ReconnectMax:  *reconnectMax,
		ReconnectSeed: *seed,
		HoldDuration:  *hold,
		FailsafeCap:   units.Power(*failsafeCap),
		ReadTimeout:   *readTimeout,
		StatePath:     *statePath,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	jobCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := rt.Run(jobCtx); err != nil {
			logger.Errorf("runtime: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := epd.Run(jobCtx); err != nil && jobCtx.Err() == nil {
			logger.Errorf("endpoint: %v", err)
			cancel()
		}
	}()

	logger.Infof("running %s (claimed %s) on %d nodes (uncapped ≈%s)",
		typ.Name, claimed, nNodes, time.Duration(typ.BaseSeconds*float64(time.Second)))
	exec := &workload.Executor{
		Type:      typ,
		Clock:     clk,
		Cap:       rt.Cap,
		OnEpoch:   func(int) { rt.ProfEpoch() },
		Variation: *variation,
		Noise:     stats.NewRNG(*seed),
		NoiseStd:  *noise,
	}
	res, err := exec.Run(ctx)
	rt.RecordAppTotals(res.AppSeconds, res.Epochs)
	cancel()
	wg.Wait()
	if err != nil {
		logger.Errorf("benchmark: %v", err)
	}

	fmt.Print(rt.Report())
	base := typ.BaseSeconds * *variation
	if base > 0 && res.AppSeconds > 0 {
		fmt.Printf("Slowdown vs uncapped: %.1f%%\n", 100*(res.AppSeconds/base-1))
	}
	acct := led.SnapshotAt(time.Now().UnixMilli())
	for _, j := range acct.Jobs {
		fmt.Printf("Energy: %.0f J (avg %.1f W, peak %.1f W, %.0f s throttled)\n",
			j.Joules, j.AvgWatts, j.PeakWatts, j.ThrottledS)
	}
}
