package geopm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/units"
)

// DefaultControlPeriod is how often agents run their control loop. GEOPM
// agents typically sample at millisecond to second granularity; the paper's
// cluster tier updates every few seconds, so a sub-second job tier keeps
// the job tier strictly faster, as the design requires.
const DefaultControlPeriod = 500 * time.Millisecond

// RuntimeConfig parameterizes a per-job GEOPM runtime.
type RuntimeConfig struct {
	// JobID labels reports and diagnostics.
	JobID string
	// PIOs are the platform I/O handles of the job's nodes, one per node.
	// Must be non-empty.
	PIOs []*PlatformIO
	// Endpoint is the mailbox shared with the job-tier modeler. Required.
	Endpoint *Endpoint
	// Clock paces the control loop. Required.
	Clock clock.Clock
	// Period overrides DefaultControlPeriod when positive.
	Period time.Duration
	// InitialCap is enforced on attach before any policy arrives; zero
	// means leave hardware at TDP.
	InitialCap units.Power
	// Metrics, when non-nil, receives the runtime's cap-fan-out latency
	// and policy counters. Nil disables with no measurable overhead.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives a cap_fanout span per applied
	// policy.
	Tracer *obs.Tracer
}

// Runtime is the per-job GEOPM instance: one agent per node arranged in a
// communication tree, a job-wide epoch counter fed by the instrumented
// application, and a control loop that applies endpoint policies to every
// node and publishes aggregated samples back (§4.3).
type Runtime struct {
	cfg    RuntimeConfig
	agents []*Agent

	metFanout    *obs.Histogram
	metDecision  *obs.Histogram
	metPolicies  *obs.Counter
	metEpochs    *obs.Counter
	metNodeErrs  *obs.Counter
	metLiveNodes *obs.Gauge

	epochs atomic.Int64

	mu         sync.Mutex
	currentCap units.Power
	lastPolicy uint64
	started    time.Time
	ended      time.Time
	running    bool
	appSeconds float64
	appEpochs  int
	firstOK    bool
	baseEnergy units.Energy
	lastSample Sample
}

// ErrNoNodes is returned when a runtime is constructed without platform
// handles.
var ErrNoNodes = errors.New("geopm: runtime requires at least one node")

// NewRuntime builds a runtime for one job.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if len(cfg.PIOs) == 0 {
		return nil, ErrNoNodes
	}
	if cfg.Endpoint == nil {
		return nil, errors.New("geopm: runtime requires an endpoint")
	}
	if cfg.Clock == nil {
		return nil, errors.New("geopm: runtime requires a clock")
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultControlPeriod
	}
	r := &Runtime{cfg: cfg}
	if cfg.Metrics != nil {
		r.metFanout = cfg.Metrics.HistogramVec("geopm_cap_fanout_seconds",
			"Latency of enforcing a fresh policy across the agent tree.", obs.DefLatencyBuckets, "job").With(cfg.JobID)
		r.metDecision = cfg.Metrics.HistogramVec("geopm_decision_to_enforce_seconds",
			"Latency from the cluster-tier budget decision to hardware enforcement, from propagated trace timestamps.", obs.DefLatencyBuckets, "job").With(cfg.JobID)
		r.metPolicies = cfg.Metrics.CounterVec("geopm_policies_applied_total",
			"Fresh endpoint policies enforced across the agent tree.", "job").With(cfg.JobID)
		r.metEpochs = cfg.Metrics.CounterVec("geopm_epochs_total",
			"geopm_prof_epoch() calls recorded by the runtime.", "job").With(cfg.JobID)
		r.metNodeErrs = cfg.Metrics.CounterVec("geopm_node_errors_total",
			"Per-node enforce/sample failures skipped by graceful degradation.", "job").With(cfg.JobID)
		r.metLiveNodes = cfg.Metrics.GaugeVec("geopm_live_nodes",
			"Nodes that answered the runtime's last sample pass.", "job").With(cfg.JobID)
	}
	for _, pio := range cfg.PIOs {
		r.agents = append(r.agents, NewAgent(pio))
	}
	_, capMax := CapRange()
	r.currentCap = capMax
	if cfg.InitialCap > 0 {
		r.currentCap = cfg.InitialCap
	}
	return r, nil
}

// ProfEpoch records that every process in the job reached the
// geopm_prof_epoch() instrumentation point once more. It is the hook the
// synthetic benchmarks call from their main loop (§5.1).
func (r *Runtime) ProfEpoch() {
	r.epochs.Add(1)
	r.metEpochs.Inc()
}

// EpochCount returns the job-wide epoch count.
func (r *Runtime) EpochCount() int64 { return r.epochs.Load() }

// Cap returns the per-node cap the agents currently enforce. Benchmarks
// read it to pace their epoch loops.
func (r *Runtime) Cap() units.Power {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.currentCap
}

// Nodes returns the number of nodes the runtime manages.
func (r *Runtime) Nodes() int { return len(r.agents) }

// RecordAppTotals stores the application's own timing summary (the
// executor's result) for inclusion in the job report's Application Totals
// section (§5.4).
func (r *Runtime) RecordAppTotals(appSeconds float64, epochs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appSeconds = appSeconds
	r.appEpochs = epochs
}

// enforceAll fans a per-node cap out through the communication tree, level
// by level, as the root agent does when a new policy arrives. The tree is
// heap-indexed (agent 0 is the root; for arity k the children of i are
// i·k+1 … i·k+k), so its level order is agent index order whatever k is,
// and the walk needs no tree structure at all. Nodes that reject the
// enforcement — fail-stopped hosts whose MSR device files vanished — are
// skipped and counted, so one dead node never blocks the policy from
// reaching the live ones. It returns how many nodes accepted the cap; the
// error is non-nil only when every node failed.
func (r *Runtime) enforceAll(cap units.Power) (int, error) {
	live := 0
	var lastErr error
	for _, a := range r.agents {
		if err := a.Enforce(cap); err != nil {
			lastErr = err
			r.metNodeErrs.Inc()
			continue
		}
		live++
	}
	if live == 0 {
		return 0, lastErr
	}
	return live, nil
}

// tick runs one control-loop iteration: apply any fresh policy, sample all
// nodes, and publish the aggregate to the endpoint.
func (r *Runtime) tick(now time.Time) error {
	policy, seq := r.cfg.Endpoint.ReadPolicy()

	r.mu.Lock()
	fresh := seq != 0 && seq != r.lastPolicy
	if fresh {
		r.lastPolicy = seq
		r.currentCap = policy.PowerCap
	}
	cap := r.currentCap
	r.mu.Unlock()

	if fresh {
		// Continue the causal chain across the shared-memory boundary:
		// the fan-out span is a child of the cap-apply span whose
		// WritePolicy carried the context (which in turn descends from
		// the cluster-tier budget decision).
		sp := r.cfg.Tracer.StartSpan("cap_fanout", policy.Trace)
		var t0 time.Time
		if r.metFanout != nil {
			t0 = time.Now()
		}
		if _, err := r.enforceAll(cap); err != nil {
			return err
		}
		if r.metFanout != nil {
			r.metFanout.Observe(time.Since(t0).Seconds())
		}
		if root := policy.Trace.RootStartUnixNano; root > 0 {
			if lat := float64(time.Now().UnixNano()-root) / 1e9; lat >= 0 {
				r.metDecision.Observe(lat)
			}
		}
		r.metPolicies.Inc()
		if sp != nil { // the fields' boxing allocates even on a nil span
			sp.SetJob(r.cfg.JobID).Set("cap_w", cap.Watts()).Set("nodes", len(r.agents)).End()
		}
	}

	// Sample every live node; a node that errors (fail-stopped host) is
	// skipped and counted, and the aggregate covers the survivors. Only
	// when no node answers is the job considered gone.
	var energy units.Energy
	var power units.Power
	live := 0
	var lastErr error
	for _, a := range r.agents {
		s, err := a.Sample(now)
		if err != nil {
			lastErr = err
			r.metNodeErrs.Inc()
			continue
		}
		energy += s.Energy
		power += s.Power
		live++
	}
	r.metLiveNodes.Set(float64(live))
	if live == 0 {
		return lastErr
	}

	r.mu.Lock()
	if !r.firstOK {
		r.firstOK = true
		r.baseEnergy = energy
	}
	sample := Sample{
		EpochCount: r.epochs.Load(),
		Energy:     energy - r.baseEnergy,
		Power:      power,
		PowerCap:   cap,
		Time:       now,
	}
	r.lastSample = sample
	r.mu.Unlock()

	r.cfg.Endpoint.WriteSample(sample)
	return nil
}

// LastSample returns the most recently published sample.
func (r *Runtime) LastSample() Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSample
}

// Run attaches the runtime and executes its control loop until ctx is
// cancelled, then restores the nodes to TDP caps. It returns ctx.Err()
// causes as nil (cancellation is the normal shutdown path).
func (r *Runtime) Run(ctx context.Context) error {
	r.mu.Lock()
	r.started = r.cfg.Clock.Now()
	r.running = true
	initial := r.currentCap
	r.mu.Unlock()

	if _, err := r.enforceAll(initial); err != nil {
		return err
	}
	if err := r.tick(r.cfg.Clock.Now()); err != nil {
		return err
	}

	defer func() {
		r.mu.Lock()
		r.ended = r.cfg.Clock.Now()
		r.running = false
		r.mu.Unlock()
		_, capMax := CapRange()
		_, _ = r.enforceAll(capMax)
	}()

	for {
		select {
		case <-ctx.Done():
			return nil
		case now := <-r.cfg.Clock.After(r.cfg.Period):
			if err := r.tick(now); err != nil {
				return err
			}
		}
	}
}

// Report summarizes the run so far (or the whole run once Run has
// returned).
func (r *Runtime) Report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.ended
	if r.running || end.IsZero() {
		end = r.cfg.Clock.Now()
	}
	elapsed := end.Sub(r.started).Seconds()
	rep := Report{
		JobID:      r.cfg.JobID,
		Nodes:      len(r.agents),
		Elapsed:    elapsed,
		AppSeconds: r.appSeconds,
		AppEpochs:  r.appEpochs,
		Epochs:     r.epochs.Load(),
		Energy:     r.lastSample.Energy,
		FinalCap:   r.currentCap,
	}
	if elapsed > 0 {
		rep.AvgPower = units.Power(rep.Energy.Joules() / elapsed)
	}
	return rep
}
