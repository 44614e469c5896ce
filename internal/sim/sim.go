// Package sim implements the tabular cluster simulator of §5.6: a
// table-driven model of a large cluster (the paper simulates 1000 nodes)
// advanced one second at a time. A node table tracks which job each node
// runs and a job table each running job's cap and achieved power; the
// scheduler tracks queue entry, start, and end. Each simulated second the
// simulator applies node failures, completes jobs whose nodes all reached
// 100%, admits arrivals, schedules queued jobs, and re-caps power against
// the demand-response target P̄ + R·y(t).
//
// Progress follows the paper's linear model: each node's rate of progress
// scales linearly between the job type's slowest rate (at the minimum cap)
// and fastest rate (at its maximum power), multiplied by a per-node
// performance-variation coefficient drawn once per simulation (§6.4).
// Progress is kept in integer fixed point and cluster power in integer
// milliwatts (engine_calendar.go, engine.measure), so every closed form
// the engine uses is exact.
//
// There is one engine. A completion calendar prices each job's finishing
// second in closed form whenever its cap is set, and the step loop is
// event-driven: a second on which nothing can change reuses the previous
// caps and measurement, and runs of such seconds fast-forward to the next
// event while still emitting one row per second. The core is
// allocation-free at steady state: jobs and nodes reference each other
// through dense integer indices into reusable tables (see engine.go).
// Results are bit-identical to the naive map-keyed, per-second,
// per-node oracle in reference_test.go (the golden test in equiv_test.go
// holds the two side by side).
package sim

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config parameterizes one simulation run.
//
// Ownership: Run reads but never mutates the reference-typed inputs
// (Types, Weights, Arrivals, TypeModels, Signal, Budgeter). Callers may
// therefore share one set of them across many concurrent Runs — the shape
// of a parallel sweep — provided nothing mutates them after construction.
// Everything Run mutates (node table, job table, RNG) is private to the
// call.
type Config struct {
	// Nodes is the cluster size. Required positive.
	Nodes int
	// IdlePower is the draw of an idle node (default 70 W).
	IdlePower units.Power
	// Types is the job mix; every arrival's true type must be present.
	Types []workload.Type
	// Weights are AQA queue weights by claimed type name (missing types
	// default inside the scheduler).
	Weights map[string]float64
	// Arrivals is the submission schedule.
	Arrivals []schedule.Arrival
	// Bid and Signal define the demand-response power target.
	Bid    dr.Bid
	Signal dr.Signal
	// Horizon is how long arrivals are admitted; the simulation then
	// drains running and queued jobs (bounded by 4× horizon).
	Horizon time.Duration
	// Seed drives performance-variation sampling.
	Seed uint64
	// VariationStd is the standard deviation of the per-node performance
	// coefficient (normal, mean 1); 0 disables variation (§6.4).
	VariationStd float64
	// Budgeter, when set, applies per-job caps using believed models.
	// When nil, the AQA baseline applies one uniform cap across active
	// nodes (§4.4.2).
	Budgeter budget.Budgeter
	// TypeModels are believed relative curves by claimed type name, used
	// only with a Budgeter.
	TypeModels map[string]perfmodel.Model
	// DefaultModel covers claimed types missing from TypeModels.
	DefaultModel perfmodel.Model
	// FeedbackQoSExempt enables the §6.4 mitigation: running jobs whose
	// in-flight QoS degradation exceeds ExemptFraction of QoSLimit are
	// exempted from power capping.
	FeedbackQoSExempt bool
	// QoSLimit is the degradation constraint (default 5, §5.2).
	QoSLimit float64
	// ExemptFraction is the at-risk threshold as a fraction of QoSLimit
	// (default 0.8).
	ExemptFraction float64
	// Source, when set, streams arrivals (with their job types) instead
	// of Arrivals — the path external job traces take, so million-job
	// traces never reside in memory as one slice (see internal/tracein).
	// Mutually exclusive with Arrivals. Streamed arrivals are validated
	// as they surface: unknown types register on first use, and
	// malformed entries (unsortable times, jobs wider than the cluster)
	// abort the run with a descriptive error.
	Source ArrivalSource
	// Failures is the node fail-stop/recovery schedule, sorted by time
	// (ties by node index). A failing node kills whatever job it runs —
	// the job is requeued from scratch, its other nodes freed — and
	// leaves the schedulable pool (drawing 0 W) until a recovery event
	// returns it, rebooted, to the free list. An empty schedule leaves
	// the simulation byte-identical to a build without this field.
	Failures []faults.NodeEvent
	// TableLog, when set, receives one CSV row of cluster state per
	// simulated second (§5.6 appends table state to a file).
	TableLog io.Writer
	// TrackWarmup excludes the first interval from TrackSummary (queue
	// ramp-up); the summary always ends at Horizon, excluding the drain.
	// The full series remains in Result.Tracking.
	TrackWarmup time.Duration

	// Observability. All of it is strictly observational: metrics,
	// events, and progress counters read simulation state but never feed
	// back into it, so results are bit-identical whether or not any of
	// these are set (the determinism guard in obs_test.go enforces this).

	// Metrics, when non-nil, receives per-step timing and cluster-state
	// gauges. Nil disables with no measurable overhead on the hot loop.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives a sim_step event every TraceEvery
	// simulated seconds, stamped with virtual time.
	Tracer *obs.Tracer
	// TraceEvery is the sim_step emission period in simulated seconds
	// (default 60 when a Tracer is set).
	TraceEvery int
	// Progress, when non-nil, is incremented once per simulated second.
	// Share one counter across a sweep's runs and read it from another
	// goroutine for a live throughput display.
	Progress *obs.Counter
	// Telemetry, when non-nil, receives one retained sample per simulated
	// second for power target/measured, busy nodes, and running/queued
	// jobs, stamped in virtual time — the series anor-top renders and the
	// flight recorder persists. Its inputs fall out of the per-job
	// measurement (see engine.measure), so enabling this adds no per-node
	// work and ~0 allocations per step.
	Telemetry *telemetry.Store
	// Ledger, when non-nil, receives per-job energy attribution: jobs
	// open when they bind nodes, close on completion (or requeue after a
	// fail-stop), and carry their measured per-step power; idle nodes
	// accrue to the ledger's idle pool. Ledger calls visit jobs in
	// deterministic (job-ID) order, and attaching a ledger changes no
	// simulation result (ledger_test.go holds this). Settlement is lazy —
	// clean steps and fast-forward windows cost the ledger nothing —
	// keeping attribution ~0 allocs per step. When Telemetry is also set,
	// a cumulative sim_energy_total_joules series is recorded each
	// simulated second.
	Ledger *ledger.Ledger
	// RunID labels emitted events when one simulation is part of a
	// multi-run sweep.
	RunID string
}

// simMetrics holds the simulator's instruments; all nil without a
// registry.
type simMetrics struct {
	stepDur      *obs.Histogram
	measuredDist *obs.Histogram
	steps        *obs.Counter
	running      *obs.Gauge
	queued       *obs.Gauge
	busy         *obs.Gauge
	target       *obs.Gauge
	measured     *obs.Gauge
	failures     *obs.Counter
	recoveries   *obs.Counter
	requeues     *obs.Counter
	downNodes    *obs.Gauge
}

func newSimMetrics(r *obs.Registry) simMetrics {
	if r == nil {
		return simMetrics{}
	}
	return simMetrics{
		stepDur:      r.Histogram("sim_step_seconds", "Wall-clock duration of one simulated second.", obs.DefLatencyBuckets),
		measuredDist: r.Histogram("sim_power_measured_watts_dist", "Distribution of measured cluster power across simulated seconds.", obs.DefPowerBuckets),
		steps:        r.Counter("sim_steps_total", "Simulated seconds advanced."),
		running:      r.Gauge("sim_running_jobs", "Jobs currently running in the simulated cluster."),
		queued:       r.Gauge("sim_queued_jobs", "Jobs currently queued in the simulated cluster."),
		busy:         r.Gauge("sim_busy_nodes", "Nodes currently assigned to jobs."),
		target:       r.Gauge("sim_power_target_watts", "Demand-response power target at the current step."),
		measured:     r.Gauge("sim_power_measured_watts", "Measured cluster power at the current step."),
		failures:     r.Counter("sim_node_failures_total", "Fail-stop node events applied."),
		recoveries:   r.Counter("sim_node_recoveries_total", "Node recovery events applied."),
		requeues:     r.Counter("sim_job_requeues_total", "Jobs requeued after losing a node to a fail-stop."),
		downNodes:    r.Gauge("sim_down_nodes", "Nodes currently failed out of the schedulable pool."),
	}
}

// simTelemetry holds the run's retained-series handles; all nil without
// a store, so the per-step records are no-ops behind one nil check each.
type simTelemetry struct {
	target   *telemetry.Series
	measured *telemetry.Series
	busy     *telemetry.Series
	running  *telemetry.Series
	queued   *telemetry.Series
	// energy is the cumulative attributed-energy series, created only
	// when a ledger rides along so ledger-free stores keep their exact
	// PR-7 series set.
	energy *telemetry.Series
}

func newSimTelemetry(st *telemetry.Store, led *ledger.Ledger) simTelemetry {
	tel := simTelemetry{
		target:   st.Series("sim_power_target_watts"),
		measured: st.Series("sim_power_measured_watts"),
		busy:     st.Series("sim_busy_nodes"),
		running:  st.Series("sim_running_jobs"),
		queued:   st.Series("sim_queued_jobs"),
	}
	if st != nil && led != nil {
		tel.energy = st.Series("sim_energy_total_joules")
	}
	return tel
}

// JobRecord summarizes one job's lifecycle.
type JobRecord struct {
	ID          string
	TypeName    string
	ClaimedType string
	Nodes       int
	Submit      time.Duration
	Start       time.Duration
	End         time.Duration
	QoS         float64
}

// Result is a simulation outcome.
type Result struct {
	// Tracking is the per-second (target, measured) series.
	Tracking []trace.Point
	// TrackSummary holds the tracking-error metrics against the bid's
	// reserve.
	TrackSummary trace.Summary
	// Jobs are completed jobs.
	Jobs []JobRecord
	// Unfinished counts jobs still queued or running at drain cutoff.
	Unfinished int
	// Requeues counts jobs requeued after a fail-stop killed them.
	Requeues int
	// QoS90 is the 90th percentile QoS degradation over completed jobs.
	QoS90 float64
	// QoSByType groups completed jobs' QoS by true type.
	QoSByType map[string][]float64
	// MeanUtilization is average busy-node fraction over the horizon.
	MeanUtilization float64
	// AvgPower is the time-average measured power.
	AvgPower units.Power
}

var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Run executes the simulation to completion.
func Run(cfg Config) (Result, error) {
	if cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("sim: config requires a positive node count (got %d)", cfg.Nodes)
	}
	if cfg.Signal == nil || !cfg.Bid.Valid() {
		return Result{}, errors.New("sim: config requires a valid bid and signal")
	}
	if cfg.Horizon <= 0 {
		return Result{}, errors.New("sim: config requires a horizon")
	}
	if cfg.IdlePower == 0 {
		cfg.IdlePower = workload.NodeIdlePower
	}
	if cfg.QoSLimit == 0 {
		cfg.QoSLimit = 5
	}
	if cfg.ExemptFraction == 0 {
		cfg.ExemptFraction = 0.8
	}
	if cfg.Source != nil && len(cfg.Arrivals) > 0 {
		return Result{}, errors.New("sim: config sets both Arrivals and Source; pick one")
	}
	types := map[string]workload.Type{}
	for _, t := range cfg.Types {
		types[t.Name] = t
	}
	var prev schedule.Arrival
	for i, a := range cfg.Arrivals {
		typ, ok := types[a.TypeName]
		if !ok {
			return Result{}, fmt.Errorf("sim: arrival %s has unknown type %s", a.JobID, a.TypeName)
		}
		if err := validateArrival(a, typ, cfg.Nodes, prev, i > 0); err != nil {
			return Result{}, err
		}
		prev = a
	}
	if cfg.Budgeter != nil && cfg.DefaultModel.Validate() != nil {
		return Result{}, errors.New("sim: budgeter mode requires a valid default model")
	}
	if len(cfg.Failures) > 0 {
		if err := faults.ValidateNodeSchedule(cfg.Failures, cfg.Nodes); err != nil {
			return Result{}, err
		}
	}

	coeffs := variationCoeffs(cfg.Seed, cfg.VariationStd, cfg.Nodes)

	scheduler, err := sched.New(cfg.Nodes, cfg.Weights)
	if err != nil {
		return Result{}, err
	}
	e := newEngine(cfg, types, scheduler, coeffs)

	// Arrival stream: the slice path wraps cfg.Arrivals (validated above);
	// a streaming Source is validated arrival by arrival as it is pulled.
	// One arrival of look-ahead is kept — it also feeds the event horizon.
	src := cfg.Source
	streaming := src != nil
	if src == nil {
		src = &sliceSource{arrivals: cfg.Arrivals, types: types}
	}
	var pending, prevArrival schedule.Arrival
	var pendingType workload.Type
	pendingOK, havePrev := false, false
	pull := func() error {
		a, typ, ok, err := src.Next()
		if err != nil {
			pendingOK = false
			return fmt.Errorf("sim: arrival stream: %w", err)
		}
		if !ok {
			pendingOK = false
			return nil
		}
		if streaming {
			if known, seen := types[a.TypeName]; seen {
				typ = known
			} else {
				if typ.Name == "" {
					typ.Name = a.TypeName
				}
				if typ.Name != a.TypeName {
					return fmt.Errorf("sim: arrival %s claims type %s but the stream supplied type %s",
						a.JobID, a.TypeName, typ.Name)
				}
				types[typ.Name] = typ
			}
			if err := validateArrival(a, typ, cfg.Nodes, prevArrival, havePrev); err != nil {
				return err
			}
		}
		pending, pendingType, pendingOK = a, typ, true
		prevArrival, havePrev = a, true
		return nil
	}
	if err := pull(); err != nil {
		return Result{}, err
	}

	var res Result
	var logger *csv.Writer
	var logRec [6]string
	if cfg.TableLog != nil {
		logger = csv.NewWriter(cfg.TableLog)
		if err := logger.Write([]string{"t_s", "running", "queued", "busy_nodes", "target_w", "measured_w"}); err != nil {
			return Result{}, err
		}
	}

	horizonS := int(cfg.Horizon / time.Second)
	maxS := 4 * horizonS
	var busyNodeSeconds float64
	var powerIntegral float64
	steps := 0
	lastRequeues := 0
	// A run ends shortly after its horizon once the queue drains, so the
	// horizon is the natural capacity hint for the per-second series.
	res.Tracking = make([]trace.Point, 0, horizonS+1)

	met := newSimMetrics(cfg.Metrics)
	tel := newSimTelemetry(cfg.Telemetry, cfg.Ledger)
	traceEvery := cfg.TraceEvery
	if traceEvery <= 0 {
		traceEvery = 60
	}

	// Event-driven stepping state. A step is "dirty" when cluster state
	// may have changed (arrival, completion, failure, or the first step);
	// clean steps skip the scheduler call, skip re-capping unless the
	// power budget moved, and reuse the previous measurement — each of
	// those skips is a provable no-op, so results are bit-identical to
	// recomputing everything (the reference oracle does).
	stepped, _ := cfg.Signal.(dr.Stepped)
	targetFixed := cfg.Bid.Reserve == 0 // target is P̄ for any signal value
	var lastJobBudget units.Power
	// The row state: what every emitted second reports.
	var target, measured units.Power
	var busy int
	haveBudget, haveMeasured := false, false

	// emitRow records second s: its tracking point, TableLog row,
	// progress and step counters, retained series, and trace events.
	// Stepped seconds and fast-forwarded ones share it, so a skipped
	// second is indistinguishable from a computed one. Bound once here,
	// outside the loop, so the per-second path does not allocate.
	emitRow := func(s int) error {
		rowNow := simEpoch.Add(time.Duration(s) * time.Second)
		running, queued := len(e.order), scheduler.QueuedCount()
		res.Tracking = append(res.Tracking, trace.Point{Time: rowNow, Target: target, Measured: measured})
		powerIntegral += measured.Watts()
		steps++
		if s <= horizonS {
			busyNodeSeconds += float64(busy)
		}
		if logger != nil {
			logRec[0] = strconv.Itoa(s)
			logRec[1] = strconv.Itoa(running)
			logRec[2] = strconv.Itoa(queued)
			logRec[3] = strconv.Itoa(busy)
			logRec[4] = strconv.FormatFloat(target.Watts(), 'f', 0, 64)
			logRec[5] = strconv.FormatFloat(measured.Watts(), 'f', 0, 64)
			if err := logger.Write(logRec[:]); err != nil {
				return err
			}
		}

		// Observation only: nothing below feeds back into the simulation.
		cfg.Progress.Inc()
		met.steps.Inc()
		met.measuredDist.Observe(measured.Watts())
		if cfg.Telemetry != nil {
			tel.target.Record(rowNow, target.Watts())
			tel.measured.Record(rowNow, measured.Watts())
			tel.busy.Record(rowNow, float64(busy))
			tel.running.Record(rowNow, float64(running))
			tel.queued.Record(rowNow, float64(queued))
			if tel.energy != nil {
				// Cumulative energy through this second: an O(1) read of the
				// settled total plus one pending rate × elapsed product.
				tel.energy.Record(rowNow, cfg.Ledger.TotalJoulesAt(rowNow.UnixMilli()+1000))
			}
		}
		if cfg.Tracer.Enabled() && s%traceEvery == 0 {
			cfg.Tracer.Emit(obs.Event{Type: obs.EvSimStep, TimeUnixNano: rowNow.UnixNano(), Run: cfg.RunID, Fields: obs.F{
				"t_s": s, "running": running, "queued": queued,
				"busy_nodes": busy, "target_w": target.Watts(), "measured_w": measured.Watts(),
			}})
			// A root span per traced step, stamped in virtual time, mirrors
			// the daemon tiers' rebudget spans so anor-trace consumes sim
			// and live-session event files uniformly. Span IDs come from the
			// process RNG and never feed back into simulation state.
			sp := cfg.Tracer.StartSpanAt("sim_recap", obs.TraceContext{}, rowNow)
			sp.Set("t_s", s).Set("jobs", running).
				Set("target_w", target.Watts()).Set("measured_w", measured.Watts())
			sp.EndAt(rowNow.Add(time.Second))
		}
		return nil
	}

	for t := 0; t <= maxS; t++ {
		now := simEpoch.Add(time.Duration(t) * time.Second)
		e.curStep = int64(t)
		var stepStart time.Time
		if met.stepDur != nil {
			stepStart = time.Now()
		}
		dirty := t == 0

		// 0. Fault layer: apply fail-stop/recovery events due this second.
		// The no-failure path skips it entirely.
		if len(cfg.Failures) > 0 {
			failed, recovered, err := e.applyFailures(time.Duration(t)*time.Second, now)
			if err != nil {
				return Result{}, err
			}
			if failed+recovered > 0 {
				dirty = true
			}
			for i := 0; i < failed; i++ {
				met.failures.Inc()
			}
			for i := 0; i < recovered; i++ {
				met.recoveries.Inc()
			}
		}

		// 1. Node update: complete the jobs the calendar has due now.
		completed, err := e.completeDue(now)
		if err != nil {
			return Result{}, err
		}
		if completed > 0 {
			dirty = true
		}

		// 2. Admit arrivals (only within the horizon; later arrivals are
		// pulled from the stream when their second comes).
		for pendingOK && pending.At <= time.Duration(t)*time.Second {
			if pending.At <= cfg.Horizon {
				scheduler.Submit(sched.Job{
					ID: pending.JobID, TypeName: pending.TypeName, ClaimedType: pending.ClaimedType,
					Nodes: pendingType.Nodes, MinTime: pendingType.BaseSeconds,
				}, now)
				dirty = true
			}
			if err := pull(); err != nil {
				return Result{}, err
			}
		}

		// 3. Schedule queued jobs onto free nodes. StartEligible is
		// deterministic and time-independent, so on a clean step — no
		// submissions, completions, or capacity changes since its last
		// call — it would start nothing and is skipped.
		if dirty {
			if _, err := e.startJobs(now); err != nil {
				return Result{}, err
			}
		}

		// 4. Power manager: pick caps against the current target. On a
		// clean step with an unchanged budget the previous caps stand
		// (re-capping is a pure function of membership and budget); the
		// §6.4 feedback exemption depends on wall-clock QoS, so feedback
		// runs re-cap every second.
		target = cfg.Bid.Target(cfg.Signal.At(time.Duration(t) * time.Second))
		busy = scheduler.BusyNodes()
		// Down nodes draw nothing and get no idle-power allowance; with no
		// failure schedule e.down is always 0.
		idle := cfg.Nodes - busy - e.down
		jobBudget := target - cfg.IdlePower*units.Power(idle)
		capsChanged := false
		if dirty || !haveBudget || jobBudget != lastJobBudget || cfg.FeedbackQoSExempt {
			capsChanged = e.applyCaps(jobBudget, now)
		}
		lastJobBudget, haveBudget = jobBudget, true
		// Re-bucket every job whose rate changed this step — new starts
		// and recapped jobs — now that the capping phase has settled their
		// final caps for the second.
		e.calFlushRescale()

		// 5. Measure and record. The cluster power sum is a pure function
		// of node→job assignments and per-job caps, so a clean step with
		// unchanged caps reuses the previous value.
		if dirty || capsChanged || !haveMeasured {
			measured = e.measure()
			haveMeasured = true
			// Attribution settles only when the measurement could have
			// moved: the ledger's rates are piecewise-constant between these
			// points, so clean steps and fast-forward rows accrue implicitly.
			if cfg.Ledger != nil {
				e.ledgerSettle(now)
			}
		}
		if err := emitRow(t); err != nil {
			return Result{}, err
		}
		// Gauges and the step timer follow computed steps only: a
		// fast-forwarded second would set each gauge to the value it
		// already holds, and costs no step time worth timing.
		if cfg.Metrics != nil {
			met.running.Set(float64(len(e.order)))
			met.queued.Set(float64(scheduler.QueuedCount()))
			met.busy.Set(float64(busy))
			met.target.Set(target.Watts())
			met.measured.Set(measured.Watts())
			met.downNodes.Set(float64(e.down))
			met.requeues.Add(uint64(e.requeues - lastRequeues))
			lastRequeues = e.requeues
		}
		if met.stepDur != nil {
			met.stepDur.Observe(time.Since(stepStart).Seconds())
		}

		// Stop once drained after the horizon.
		if t >= horizonS && len(e.order) == 0 && scheduler.QueuedCount() == 0 &&
			(!pendingOK || pending.At > cfg.Horizon) {
			break
		}

		// 6. Event horizon: jump simulated time across seconds where the
		// cluster state provably cannot change. Nothing happens before the
		// next arrival, failure, target change (known exactly for Stepped
		// signals or a zero-reserve bid), or calendar completion; an idle
		// cluster also stops at the horizon boundary, where the drain-stop
		// check must run. Clean steps start nothing (startJobs needs a
		// dirty step), and a constant busy/down split holds the job budget
		// — and therefore every cap — fixed, so each intervening second
		// would record the same row. Feedback runs re-cap against
		// wall-clock QoS every second and never take the busy window.
		if targetFixed || stepped != nil {
			clusterIdle := len(e.order) == 0 && scheduler.QueuedCount() == 0
			if (clusterIdle && t < horizonS) || (!clusterIdle && !cfg.FeedbackQoSExempt && t < maxS) {
				end := maxS + 1
				if clusterIdle {
					end = horizonS
				}
				if pendingOK {
					if s := ceilSeconds(pending.At); s < end {
						end = s
					}
				}
				if e.nextFailure < len(cfg.Failures) {
					if s := ceilSeconds(cfg.Failures[e.nextFailure].At); s < end {
						end = s
					}
				}
				if !targetFixed {
					if nc := stepped.NextChange(time.Duration(t) * time.Second); nc != dr.NeverChanges {
						if s := ceilSeconds(nc); s < end {
							end = s
						}
					}
				}
				// A stale-low calNext only shortens the window — the
				// landing step completes nothing and recomputes it.
				if e.calNext < int64(end) {
					end = int(e.calNext)
				}
				for s := t + 1; s < end; s++ {
					if err := emitRow(s); err != nil {
						return Result{}, err
					}
				}
				if end-1 > t {
					t = end - 1
				}
			}
		}
	}
	if logger != nil {
		logger.Flush()
		if err := logger.Error(); err != nil {
			return Result{}, err
		}
	}
	if cfg.Ledger != nil && len(res.Tracking) > 0 {
		// The power integral sums a closed per-second series: the row at
		// time T covers [T, T+1). Settle every account to the end of the
		// last covered second so Σ(job energy) + idle energy spans exactly
		// the integral's interval.
		cfg.Ledger.FinishAt(res.Tracking[len(res.Tracking)-1].Time.Add(time.Second).UnixMilli())
	}

	res.Unfinished = len(e.order) + scheduler.QueuedCount()
	res.Requeues = e.requeues
	for _, j := range scheduler.Finished() {
		res.Jobs = append(res.Jobs, JobRecord{
			ID: j.ID, TypeName: j.TypeName, ClaimedType: j.ClaimedType, Nodes: j.Nodes,
			Submit: j.Submit.Sub(simEpoch), Start: j.Start.Sub(simEpoch), End: j.End.Sub(simEpoch),
			QoS: j.QoS(j.End),
		})
	}
	res.QoS90 = stats.Percentile(scheduler.QoSDegradations(), 90)
	res.QoSByType = scheduler.QoSByType()
	var window []trace.Point
	for _, p := range res.Tracking {
		off := p.Time.Sub(simEpoch)
		if off >= cfg.TrackWarmup && off <= cfg.Horizon {
			window = append(window, p)
		}
	}
	res.TrackSummary = trace.Summarize(window, cfg.Bid.Reserve)
	if horizonS > 0 {
		res.MeanUtilization = busyNodeSeconds / float64(horizonS) / float64(cfg.Nodes)
	}
	if steps > 0 {
		res.AvgPower = units.Power(powerIntegral / float64(steps))
	}
	return res, nil
}

// coeffMemo caches the most recent performance-variation draw. The
// coefficients are a pure function of (Seed, VariationStd, Nodes) and the
// engine only ever reads its coefficient table, so repeated runs of one
// configuration — benchmark timing windows, equivalence matrices,
// parameter sweeps varying anything else — share one slice instead of
// re-deriving Nodes normal variates each run (the dominant setup cost at
// 100k+ nodes). A single entry suffices: alternating configurations just
// regenerate, landing exactly where the uncached code was.
var coeffMemo struct {
	sync.Mutex
	seed  uint64
	std   float64
	nodes int
	c     []float64
}

// variationCoeffs returns the per-node performance coefficients for a
// configuration: normal(1, std) clamped below at 0.1, or all-ones when
// std is 0. The returned slice is shared and must be treated read-only.
func variationCoeffs(seed uint64, std float64, nodes int) []float64 {
	coeffMemo.Lock()
	defer coeffMemo.Unlock()
	if coeffMemo.c != nil && coeffMemo.seed == seed && coeffMemo.std == std && coeffMemo.nodes == nodes {
		return coeffMemo.c
	}
	rng := stats.NewRNG(seed)
	coeffs := make([]float64, nodes)
	for i := range coeffs {
		coeffs[i] = 1
		if std > 0 {
			c := rng.Normal(1, std)
			if c < 0.1 {
				c = 0.1
			}
			coeffs[i] = c
		}
	}
	coeffMemo.seed, coeffMemo.std, coeffMemo.nodes, coeffMemo.c = seed, std, nodes, coeffs
	return coeffs
}

// ceilSeconds returns the first whole simulated second at or after offset
// d — the step at which an event timestamped d takes effect.
func ceilSeconds(d time.Duration) int {
	return int((d + time.Second - 1) / time.Second)
}

// progressRate returns fraction-per-second progress for a node of the
// given type at a cap, per the paper's linear interpolation between the
// precharacterized fastest and slowest rates. The type is passed by
// pointer: the calendar prices every running job on every recap, and a
// by-value Type is a sizeable copy.
func progressRate(t *workload.Type, cap units.Power) float64 {
	fast := 1 / t.BaseSeconds
	slow := 1 / (t.BaseSeconds * t.MaxSlowdown)
	switch {
	case cap >= t.PMax:
		return fast
	case cap <= t.PMin:
		return slow
	default:
		f := (cap - t.PMin).Watts() / (t.PMax - t.PMin).Watts()
		return slow + f*(fast-slow)
	}
}
