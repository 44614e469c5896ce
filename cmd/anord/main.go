// Command anord is the ANOR cluster-tier power manager daemon (§4.1): it
// listens for job-tier endpoint connections, periodically re-reads a
// power-target schedule from a file (for experimental repeatability, as
// in the paper), distributes the available power across connected jobs
// with the selected budgeter policy, and logs power-tracking state.
//
// With -metrics it serves an admin HTTP endpoint: /metrics (Prometheus
// text), /healthz, and the net/http/pprof suite, exposing rebudget-loop
// duration, per-job allocated vs measured power, tracking error, and
// connected-endpoint counts while the daemon runs. With -events it
// streams rebudget/set_budget spans and model-update events as JSONL. With
// -telemetry it retains multi-resolution rollup series (1s/10s/60s) and
// serves them as /timeseries JSON for anor-top; -record additionally
// streams every sample into a binary flight-recorder file that anor-top
// can replay offline, and -profile-dir rotates continuous CPU/heap
// profiles. A per-job energy ledger always runs, serving /accounting
// (joules, watts, throttled seconds, and a conservation audit per job);
// -slo RULES evaluates declarative SLO rules over the telemetry rollups,
// serves the verdicts as /slo, and emits alert events on transitions.
//
// With -trace it appends one CSV row (time, target, measured power) as
// each rebudget tick ends, so a killed anord leaves a whole file; anord
// itself keeps no series.
//
// Usage:
//
//	anord -listen :9700 -nodes 16 -targets targets.jsonl \
//	      -budgeter even-slowdown -feedback -metrics :9790 \
//	      -trace tracking.csv -events events.jsonl
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

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/clustermgr"
	"repro/internal/durable"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	listen := flag.String("listen", ":9700", "address to accept job-tier connections on")
	nodes := flag.Int("nodes", 16, "total cluster node count (for idle accounting)")
	targetsPath := flag.String("targets", "", "power-target schedule file (JSON lines; required)")
	budgeterName := flag.String("budgeter", "even-slowdown", "power budgeter: even-slowdown, even-power, or uniform")
	period := flag.Duration("period", 2*time.Second, "rebudget period")
	feedback := flag.Bool("feedback", false, "let trained job-tier models override precharacterized curves")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "evict endpoints silent for this long (ping at half); 0 disables")
	modelTTL := flag.Duration("model-ttl", 30*time.Second, "distrust trained models older than this, falling back to precharacterized curves; 0 disables")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "per-endpoint wire-send deadline; a timed-out send drops the connection; 0 disables")
	defaultPolicy := flag.String("default", "least", "model for unknown job types: least or most sensitive")
	reserve := flag.Float64("reserve", 1100, "demand-response reserve in watts: normalizes the tracking-error histogram and the shutdown summary")
	traceOut := flag.String("trace", "", "stream the tracking series to this CSV file: one time_s,target_w,measured_w row appended per rebudget tick")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz, and pprof on this address (e.g. :9790); empty disables")
	eventsOut := flag.String("events", "", "stream structured JSONL events to this file; empty disables")
	telemetryOn := flag.Bool("telemetry", false, "retain multi-resolution rollup series in memory and serve /timeseries on the -metrics address")
	sloPath := flag.String("slo", "", "SLO rule file (JSON); evaluates rules over the -telemetry rollups, serves /slo on the -metrics address, and emits alert events")
	recordOut := flag.String("record", "", "append every telemetry sample to this binary flight-recorder file (implies -telemetry)")
	profileDir := flag.String("profile-dir", "", "rotate continuous CPU+heap profiles into this directory; empty disables")
	stateDir := flag.String("state-dir", "", "durable control-plane state directory (WAL + snapshots): sessions, models, caps, and the energy ledger survive a crash and restart with a bumped fencing epoch; empty disables")
	walFlush := flag.Duration("wal-flush", 50*time.Millisecond, "bounded-loss WAL fsync interval: a crash loses at most this window of journal records; 0 syncs every append")
	snapshotEvery := flag.Duration("snapshot-every", 30*time.Second, "how often to write a compacting control-plane snapshot and prune old WAL segments")
	verbose := flag.Bool("v", false, "enable debug logging")
	flag.Parse()

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level, "anord")
	fatalf := func(format string, args ...any) {
		logger.Errorf(format, args...)
		os.Exit(1)
	}

	if *targetsPath == "" {
		fatalf("-targets is required")
	}
	if *reserve <= 0 {
		fatalf("-reserve must be positive")
	}
	budgeter, err := budgeterByName(*budgeterName)
	if err != nil {
		fatalf("%v", err)
	}
	defModel, err := defaultModel(*defaultPolicy)
	if err != nil {
		fatalf("%v", err)
	}

	// The registry always exists: its tracking-error histogram feeds the
	// shutdown summary. The other sinks are nil (no-op) unless asked for.
	registry := obs.NewRegistry()
	var tracer *obs.Tracer
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatalf("creating events file: %v", err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f, fmt.Sprintf("anord-%d", os.Getpid()))
		defer tracer.Flush()
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
		sampler := telemetry.StartSampler(telemetry.SamplerConfig{
			Store: store, Registry: registry, Tracer: tracer,
		})
		defer sampler.Close()
	}
	if *profileDir != "" {
		prof, err := obs.StartProfiler(obs.ProfilerConfig{Dir: *profileDir, Log: logger})
		if err != nil {
			fatalf("%v", err)
		}
		defer prof.Close()
	}
	var sloEngine *slo.Engine
	if *sloPath != "" {
		if store == nil {
			fatalf("-slo needs -telemetry: rules evaluate over the rollup store")
		}
		rules, err := slo.LoadFile(*sloPath)
		if err != nil {
			fatalf("loading SLO rules: %v", err)
		}
		sloEngine = slo.NewEngine(store, rules, tracer)
		logger.Infof("slo: %d rules loaded from %s", len(rules), *sloPath)
	}
	// The energy ledger is always on: attribution costs one map lookup
	// per connected job per tick, and the shutdown audit line plus the
	// /accounting endpoint are worth that even on small clusters.
	led := ledger.New()

	// Durable control plane: recover the previous generation's state (the
	// ledger continues the recovered accounts rather than starting fresh)
	// and journal this generation's changes under a bumped fencing epoch.
	var dstore *durable.Store
	var recovered *durable.ControlState
	if *stateDir != "" {
		s, rec, err := durable.Open(durable.Options{
			Dir: *stateDir, FlushEvery: *walFlush, SnapshotEvery: *snapshotEvery,
			Metrics: registry, Log: logger,
		})
		if err != nil {
			fatalf("opening state dir: %v", err)
		}
		dstore, recovered = s, rec.State
		led = rec.Ledger
		defer dstore.Close()
		logger.Infof("durable: epoch %d, recovered %d sessions / %d models / %d WAL records in %s (torn=%v corrupt=%d)",
			rec.Epoch, rec.Sessions, rec.Models, rec.WALRecords,
			time.Duration(rec.Duration), rec.TornTail, rec.Corrupt)
	}

	var track func(trace.Point)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("creating tracking CSV: %v", err)
		}
		defer f.Close()
		csvw, err := trace.NewCSVWriter(f)
		if err != nil {
			fatalf("writing tracking CSV: %v", err)
		}
		warned := false
		track = func(p trace.Point) {
			if err := csvw.Write(p); err != nil && !warned {
				warned = true
				logger.Warnf("writing %s: %v", *traceOut, err)
			}
		}
	}

	typeModels := map[string]perfmodel.Model{}
	for _, t := range workload.Catalog() {
		typeModels[t.Name] = t.RelativeModel()
	}

	start := time.Now()
	var mu sync.Mutex
	var points []schedule.TargetPoint
	reload := func() error {
		f, err := os.Open(*targetsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pts, err := schedule.ReadTargets(f)
		if err != nil {
			return err
		}
		mu.Lock()
		points = pts
		mu.Unlock()
		return nil
	}
	if err := reload(); err != nil {
		fatalf("loading targets: %v", err)
	}
	go func() {
		// The paper's manager re-reads its target file periodically so
		// operators can steer a live run.
		for range time.Tick(5 * time.Second) {
			if err := reload(); err != nil {
				logger.Warnf("reloading targets: %v", err)
			}
		}
	}()

	mgr, err := clustermgr.NewManager(clustermgr.Config{
		Clock:    clock.Real{},
		Budgeter: budgeter,
		Target: func(now time.Time) units.Power {
			mu.Lock()
			pts := points
			mu.Unlock()
			return schedule.TargetFunc(start, pts)(now)
		},
		Period:           *period,
		TotalNodes:       *nodes,
		IdlePower:        workload.NodeIdlePower,
		TypeModels:       typeModels,
		DefaultModel:     defModel,
		UseFeedback:      *feedback,
		HeartbeatTimeout: *heartbeat,
		ModelTTL:         *modelTTL,
		WriteTimeout:     *writeTimeout,
		Metrics:          registry,
		Tracer:           tracer,
		Telemetry:        store,
		Ledger:           led,
		Store:            dstore,
		Recovered:        recovered,
		Reserve:          units.Power(*reserve),
		Track:            track,
		Log:              logger,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if *metricsAddr != "" {
		registry.Gauge("anord_start_time_seconds", "Unix time anord started.").Set(float64(start.Unix()))
		var mounts []obs.Mount
		if store != nil {
			mounts = append(mounts, obs.Mount{Pattern: "/timeseries", Handler: store.Handler()})
		}
		mounts = append(mounts, obs.Mount{Pattern: "/accounting",
			Handler: led.Handler(func() int64 { return time.Now().UnixMilli() })})
		if sloEngine != nil {
			mounts = append(mounts, obs.Mount{Pattern: "/slo", Handler: sloEngine.Handler()})
		}
		if dstore != nil {
			mounts = append(mounts, obs.Mount{Pattern: "/durable",
				Handler: dstore.StatusHandler(mgr.ControlState)})
		}
		admin, err := obs.StartAdmin(*metricsAddr, registry, nil, mounts...)
		if err != nil {
			fatalf("%v", err)
		}
		defer admin.Close()
		logger.Infof("admin endpoint on http://%s (/metrics, /healthz, /timeseries, /accounting, /debug/pprof/)", admin.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatalf("%v", err)
	}
	logger.Infof("listening on %s, %d nodes, %s budgeter, feedback=%v",
		ln.Addr(), *nodes, budgeter.Name(), *feedback)
	go func() {
		if err := mgr.Serve(ln); err != nil {
			logger.Debugf("accept loop ended: %v", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if sloEngine != nil {
		// Evaluate at the rebudget cadence: each verdict then reflects
		// the telemetry the loop just produced.
		go sloEngine.Run(ctx, *period)
	}

	// Flush the event stream every 15 s so a crash loses at most that
	// much of it; shutdown flushes the rest.
	if tracer != nil {
		go func() {
			tick := time.NewTicker(15 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := tracer.Flush(); err != nil {
						logger.Warnf("flushing events: %v", err)
					}
				}
			}
		}()
	}

	_ = mgr.Run(ctx) // until a signal; no tick runs after it returns

	// Graceful drain: stop accepting, close every session (handlers
	// journal byes and close ledger stints), then seal the durable state
	// with a final flush + snapshot so the next generation recovers a
	// clean image with nothing to replay.
	ln.Close()
	mgr.CloseSessions()
	drained := make(chan struct{})
	go func() { mgr.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		logger.Warnf("session drain timed out after 5s")
	}
	if dstore != nil {
		if err := dstore.Flush(); err != nil {
			logger.Warnf("final WAL flush: %v", err)
		}
		if err := dstore.Snapshot(mgr.ControlState); err != nil {
			logger.Warnf("final snapshot: %v", err)
		}
	}

	logger.Infof("%s", trackingSummary(registry, units.Power(*reserve)))
	acct := led.SnapshotAt(time.Now().UnixMilli())
	logger.Infof("energy: total %.0f J (jobs %.0f J, idle %.0f J), %d jobs opened, %d requeues, conserved=%v",
		acct.TotalJoules, acct.JobsJoules, acct.IdleJoules, acct.Opens, acct.Requeues, acct.Conserved)
	if sloEngine != nil {
		v := sloEngine.Evaluate(time.Now())
		logger.Infof("slo: %d fired, %d ok, %d no-data", v.Fired, v.OK, v.NoData)
	}
}

// trackingSummary renders the shutdown line from the reserve-relative
// error histogram Tick fills. 0.3 is a bucket bound, so the count and the
// ≤30 %-error-≥90 %-of-the-time verdict are exact; P90 is interpolated.
func trackingSummary(r *obs.Registry, reserve units.Power) string {
	h := r.Histogram("anord_tracking_error_ratio", "", obs.DefErrorBuckets)
	n := h.Count()
	if n == 0 {
		return "0 tracking points"
	}
	mean := units.Power(h.Sum() * reserve.Watts() / float64(n))
	within := float64(h.CountAtMost(0.30))/float64(n) >= 0.90
	return fmt.Sprintf("%d tracking points, mean |err| %s, P90 err %.1f%% (bucket-interpolated), constraint ok=%v",
		n, mean, 100*h.Quantile(0.9), within)
}

func budgeterByName(name string) (budget.Budgeter, error) {
	switch name {
	case "even-slowdown":
		return budget.EvenSlowdown{}, nil
	case "even-power":
		return budget.EvenPower{}, nil
	case "uniform":
		return budget.Uniform{}, nil
	default:
		return nil, fmt.Errorf("anord: unknown budgeter %q", name)
	}
}

func defaultModel(policy string) (perfmodel.Model, error) {
	switch policy {
	case "least":
		return workload.LeastSensitive().RelativeModel(), nil
	case "most":
		return workload.MostSensitive().RelativeModel(), nil
	default:
		return perfmodel.Model{}, fmt.Errorf("anord: unknown default policy %q", policy)
	}
}
