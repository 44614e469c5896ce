// Package endpointd implements the ANOR job-tier endpoint process (§4):
// the software layer that bridges a job's GEOPM endpoint to the cluster
// manager over the wire protocol. One endpoint daemon runs per job (on one
// of the job's compute nodes in the paper's deployment).
//
// Downward, it receives SetBudget messages and writes them as GEOPM
// policies for the job's agent tree to enforce. Upward, it polls the GEOPM
// endpoint for samples, feeds them to the job's power modeler, and
// periodically sends the current power-performance model and measured
// power to the cluster tier.
package endpointd

import (
	"context"
	"errors"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/geopm"
	"repro/internal/ledger"
	"repro/internal/modeler"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// DefaultPeriod is the endpoint's sampling/reporting period: faster than
// the cluster tier's rebudget loop, slower than the GEOPM agent's control
// loop, matching the tiered cadence of §4.
const DefaultPeriod = time.Second

// Config parameterizes an endpoint daemon.
type Config struct {
	// JobID identifies the job to the cluster manager. Required.
	JobID string
	// TypeName is the job type claimed at Hello (the scheduler's
	// classification — possibly wrong, possibly empty for unknown).
	TypeName string
	// Nodes is the job's node count.
	Nodes int
	// Conn is the connection to the cluster manager. Exactly one of Conn
	// and Dial is required. With Conn the daemon services that single
	// connection and exits on its first transport error (the original
	// behavior, right for in-process experiments over net.Pipe).
	Conn *proto.Conn
	// Dial, when set, puts the daemon in reconnecting mode: it owns the
	// connection lifecycle, dialing (and re-dialing with exponential
	// backoff + jitter) whenever the link drops, re-sending Hello and an
	// immediate model update to resync cluster-tier state on every new
	// connection.
	Dial func() (net.Conn, error)
	// ReconnectMin and ReconnectMax bound the backoff between dial
	// attempts (defaults 500 ms and 10 s). The wait doubles per failure
	// and carries multiplicative jitter to avoid thundering herds.
	ReconnectMin, ReconnectMax time.Duration
	// ReconnectSeed seeds the jitter stream, so chaos tests reproduce.
	ReconnectSeed uint64
	// HoldDuration is how long a disconnected daemon keeps enforcing the
	// last received cap before failing safe (default 3× Period).
	HoldDuration time.Duration
	// FailsafeCap is the per-node cap enforced after HoldDuration without
	// a cluster connection — a power level safe against any budget the
	// cluster tier could be tracking (default the node minimum cap).
	FailsafeCap units.Power
	// ReadTimeout bounds each wire receive while connected; a silent peer
	// past the deadline counts as a dropped link (reconnecting mode) or a
	// fatal error (single-connection mode). Zero disables.
	ReadTimeout time.Duration
	// GEOPM is the shared mailbox with the job's root agent. Required.
	GEOPM *geopm.Endpoint
	// Modeler learns the job's power-performance model. Required.
	Modeler *modeler.Modeler
	// Clock paces the report loop. Required.
	Clock clock.Clock
	// Period overrides DefaultPeriod when positive.
	Period time.Duration
	// Metrics, when non-nil, receives the endpoint's operational metrics
	// (epoch rate, cap-application latency, model-fit residuals). Nil
	// disables with no measurable overhead.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives structured epoch-batch and
	// model-refit events and a cap_apply span per SetBudget.
	Tracer *obs.Tracer
	// Telemetry, when non-nil, retains per-sample power/cap/epoch-rate
	// series under job-labeled names (endpoint_power_watts{job="..."}),
	// so one store — and one flight recording — can carry a whole fleet
	// of endpoints. Nil disables with no overhead.
	Telemetry *telemetry.Store
	// StatePath, when non-empty, names the endpoint's durable state file:
	// the highest controller epoch heard, the last applied per-node cap,
	// and the failsafe flag, rewritten atomically on every change. On
	// restart the recorded cap regime is re-applied to the GEOPM mailbox
	// before the first dial, and the epoch fences SetBudget traffic from
	// superseded controllers. Empty disables persistence and fencing
	// storage (in-session fencing still applies).
	StatePath string
	// Ledger, when non-nil, receives this job's energy attribution: a
	// record opens when Run starts, accrues every fresh GEOPM sample's
	// power at the sample's own timestamp, and closes as Detached when
	// Run returns. This is the job-tier view — sample-resolution, no
	// idle pool — complementing the cluster tier's tick-resolution
	// accounting. Nil disables with no overhead.
	Ledger *ledger.Ledger
	// Log receives leveled diagnostics. Nil disables.
	Log *obs.Logger
}

// epMetrics holds the endpoint's instruments, bound to the job label at
// construction. Every field is nil — a no-op sink — without a registry.
type epMetrics struct {
	epochs      *obs.Counter
	rate        *obs.Gauge
	capApply    *obs.Histogram
	decision    *obs.Histogram
	capsRecv    *obs.Counter
	updates     *obs.Counter
	refits      *obs.Counter
	r2          *obs.Gauge
	residual    *obs.Gauge
	power       *obs.Gauge
	cap         *obs.Gauge
	reconnects  *obs.Counter
	disconns    *obs.Counter
	failsafes   *obs.Counter
	connected   *obs.Gauge
	powerDist   *obs.Histogram
	fenced      *obs.Counter
	capRestores *obs.Counter
}

func newEpMetrics(r *obs.Registry, job string) epMetrics {
	if r == nil {
		return epMetrics{}
	}
	return epMetrics{
		epochs:      r.CounterVec("endpoint_epochs_total", "Application epochs observed via GEOPM samples.", "job").With(job),
		rate:        r.GaugeVec("endpoint_epoch_rate_hz", "Epoch completion rate over the last sample span.", "job").With(job),
		capApply:    r.HistogramVec("endpoint_cap_apply_seconds", "Latency from SetBudget receipt to the GEOPM policy write.", obs.DefLatencyBuckets, "job").With(job),
		decision:    r.HistogramVec("endpoint_decision_to_apply_seconds", "Latency from the cluster-tier budget decision to the GEOPM policy write, from propagated trace timestamps.", obs.DefLatencyBuckets, "job").With(job),
		capsRecv:    r.CounterVec("endpoint_caps_received_total", "SetBudget messages received from the cluster tier.", "job").With(job),
		updates:     r.CounterVec("endpoint_model_updates_sent_total", "Model updates reported to the cluster tier.", "job").With(job),
		refits:      r.CounterVec("endpoint_model_refits_total", "Accepted online model re-fits.", "job").With(job),
		r2:          r.GaugeVec("endpoint_model_r2", "R² of the latest accepted model fit.", "job").With(job),
		residual:    r.GaugeVec("endpoint_model_fit_residual", "1 - R² of the latest accepted model fit.", "job").With(job),
		power:       r.GaugeVec("endpoint_power_watts", "Job power from the latest GEOPM sample.", "job").With(job),
		cap:         r.GaugeVec("endpoint_cap_watts", "Per-node cap from the latest GEOPM sample.", "job").With(job),
		reconnects:  r.CounterVec("endpoint_reconnects_total", "Successful re-dials to the cluster manager after a dropped link.", "job").With(job),
		disconns:    r.CounterVec("endpoint_disconnects_total", "Cluster-manager connections lost to transport errors.", "job").With(job),
		failsafes:   r.CounterVec("endpoint_failsafe_total", "Failsafe cap enforcements after exhausting the disconnected hold window.", "job").With(job),
		connected:   r.GaugeVec("endpoint_connected", "1 while a cluster-manager connection is up, 0 while reconnecting.", "job").With(job),
		powerDist:   r.HistogramVec("endpoint_power_watts_dist", "Distribution of job power across GEOPM samples.", obs.DefPowerBuckets, "job").With(job),
		fenced:      r.CounterVec("endpoint_fenced_total", "SetBudget messages dropped because they carried a stale controller epoch.", "job").With(job),
		capRestores: r.CounterVec("endpoint_cap_restores_total", "Cap regimes re-applied from the persisted state file at startup.", "job").With(job),
	}
}

// epTelemetry holds the endpoint's retained-series handles, job-labeled
// at construction; all nil without a store.
type epTelemetry struct {
	power *telemetry.Series
	cap   *telemetry.Series
	rate  *telemetry.Series
}

func newEpTelemetry(st *telemetry.Store, job string) epTelemetry {
	if st == nil {
		return epTelemetry{}
	}
	return epTelemetry{
		power: st.Series(telemetry.Label("endpoint_power_watts", "job", job)),
		cap:   st.Series(telemetry.Label("endpoint_cap_watts", "job", job)),
		rate:  st.Series(telemetry.Label("endpoint_epoch_rate_hz", "job", job)),
	}
}

// Endpoint is the job-tier daemon.
type Endpoint struct {
	cfg           Config
	met           epMetrics
	tel           epTelemetry
	lastSampleSeq uint64
	lastEpochs    int64
	lastEpochTime time.Time
	lastRefits    int
	led           ledger.Handle

	// mu guards lastDecision, written by the receive goroutine and read
	// by the report loop.
	mu sync.Mutex
	// lastDecision is the trace context of the budget decision whose cap
	// the job currently runs under; model updates echo it upward so the
	// cluster tier (and offline analysis) can close the decision →
	// actuation → feedback loop.
	lastDecision obs.TraceContext
	// epoch is the highest controller-fencing epoch heard (also under
	// mu); lastCapW/failsafed mirror the durable state file.
	epoch     uint64
	lastCapW  float64
	failsafed bool
}

// New validates the configuration and constructs an endpoint daemon.
func New(cfg Config) (*Endpoint, error) {
	switch {
	case cfg.JobID == "":
		return nil, errors.New("endpointd: config requires a job ID")
	case cfg.Conn == nil && cfg.Dial == nil:
		return nil, errors.New("endpointd: config requires a connection or a dialer")
	case cfg.Conn != nil && cfg.Dial != nil:
		return nil, errors.New("endpointd: config takes a connection or a dialer, not both")
	case cfg.GEOPM == nil:
		return nil, errors.New("endpointd: config requires a GEOPM endpoint")
	case cfg.Modeler == nil:
		return nil, errors.New("endpointd: config requires a modeler")
	case cfg.Clock == nil:
		return nil, errors.New("endpointd: config requires a clock")
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 500 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 10 * time.Second
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = cfg.ReconnectMin
	}
	if cfg.HoldDuration <= 0 {
		cfg.HoldDuration = 3 * cfg.Period
	}
	if cfg.FailsafeCap <= 0 {
		cfg.FailsafeCap = workload.NodeMinCap
	}
	cfg.Log = cfg.Log.WithJob(cfg.JobID)
	return &Endpoint{
		cfg: cfg,
		met: newEpMetrics(cfg.Metrics, cfg.JobID),
		tel: newEpTelemetry(cfg.Telemetry, cfg.JobID),
	}, nil
}

// Run services the cluster-manager link until ctx is cancelled. With a
// fixed Conn it runs one session and returns its first transport error.
// With a Dial it loops forever: dial (exponential backoff + jitter on
// failure), Hello + immediate model update to resync the cluster tier,
// serve the session, and on any transport error start over — holding the
// last received cap for HoldDuration, then failing safe to FailsafeCap
// until the link returns.
func (e *Endpoint) Run(ctx context.Context) error {
	e.restoreState()
	if e.cfg.Ledger != nil {
		ms := e.cfg.Clock.Now().UnixMilli()
		e.led = e.cfg.Ledger.Open(ledger.JobMeta{
			ID: e.cfg.JobID, Type: e.cfg.TypeName, Nodes: e.cfg.Nodes, SubmitMs: ms,
		}, ms)
		defer func() { e.cfg.Ledger.Close(e.led, e.cfg.Clock.Now().UnixMilli(), ledger.Detached) }()
	}
	// The report loop runs under a pprof label so continuous profiles
	// attribute per-job sampling/reporting time to this endpoint.
	var err error
	pprof.Do(ctx, pprof.Labels("subsystem", "endpointd", "job", e.cfg.JobID), func(ctx context.Context) {
		err = e.run(ctx)
	})
	return err
}

func (e *Endpoint) run(ctx context.Context) error {
	if e.cfg.Dial == nil {
		e.met.connected.Set(1)
		defer e.met.connected.Set(0)
		return e.runSession(ctx, e.cfg.Conn)
	}

	rng := stats.NewRNG(e.cfg.ReconnectSeed)
	for first := true; ; first = false {
		c, err := e.connect(ctx, rng, first)
		if c == nil {
			return err // ctx cancelled while disconnected
		}
		err = e.runSession(ctx, c)
		if ctx.Err() != nil || err == nil {
			return nil
		}
		e.met.disconns.Inc()
		e.cfg.Log.Warnf("cluster connection lost: %v", err)
	}
}

// connect dials until a connection lands or ctx is cancelled, pacing
// attempts with exponential backoff + jitter and enforcing the
// hold-then-failsafe cap policy while disconnected. first marks the
// daemon's initial connection, which is not a reconnect. It returns nil
// when ctx ends first.
func (e *Endpoint) connect(ctx context.Context, rng *stats.RNG, first bool) (*proto.Conn, error) {
	e.met.connected.Set(0)
	lostAt := e.cfg.Clock.Now()
	failsafed := false
	backoff := e.cfg.ReconnectMin
	for {
		if ctx.Err() != nil {
			return nil, nil
		}
		if !failsafed && e.cfg.Clock.Now().Sub(lostAt) >= e.cfg.HoldDuration {
			// The hold window expired with no cluster in sight: drop to a
			// cap safe under any budget the cluster could be tracking.
			e.cfg.GEOPM.WritePolicy(geopm.Policy{PowerCap: e.cfg.FailsafeCap})
			e.met.failsafes.Inc()
			failsafed = true
			e.mu.Lock()
			e.failsafed = true
			e.mu.Unlock()
			e.persistState()
			e.cfg.Log.Warnf("hold window %v expired, enforcing failsafe cap %.0f W/node",
				e.cfg.HoldDuration, e.cfg.FailsafeCap.Watts())
		}
		raw, err := e.cfg.Dial()
		if err == nil {
			if !first {
				e.met.reconnects.Inc()
			}
			e.met.connected.Set(1)
			return proto.NewConn(raw), nil
		}
		e.cfg.Log.Debugf("dial failed (%v), retrying in ~%v", err, backoff)
		// Jitter in [½·backoff, backoff) decorrelates a fleet of
		// endpoints reconnecting after one shared outage.
		wait := backoff/2 + time.Duration(rng.Float64()*float64(backoff/2))
		// Never sleep through the failsafe moment.
		if !failsafed {
			if until := e.cfg.HoldDuration - e.cfg.Clock.Now().Sub(lostAt); until > 0 && wait > until {
				wait = until
			}
		}
		select {
		case <-ctx.Done():
			return nil, nil
		case <-e.cfg.Clock.After(wait):
		}
		if backoff *= 2; backoff > e.cfg.ReconnectMax {
			backoff = e.cfg.ReconnectMax
		}
	}
}

// runSession sends Hello (plus an immediate model update so a fresh
// cluster tier resyncs this job's model state at once) and services one
// connection: budgets apply on receipt, pings are answered, model updates
// flow on the configured period. It returns nil when ctx ended the
// session (Goodbye sent) and the transport error otherwise.
func (e *Endpoint) runSession(ctx context.Context, c *proto.Conn) error {
	c.SetTimeouts(e.cfg.ReadTimeout, 0)
	if err := c.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: e.cfg.JobID, TypeName: e.cfg.TypeName, Nodes: e.cfg.Nodes,
	}, Epoch: e.curEpoch()}); err != nil {
		c.Close()
		return err
	}
	if err := e.tick(c); err != nil {
		c.Close()
		return err
	}

	recvErr := make(chan error, 1)
	go func() {
		for {
			env, err := c.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			switch env.Kind {
			case proto.KindSetBudget:
				if e.noteEpoch(env.Epoch) {
					e.cfg.Log.Warnf("dropping cap %.0f W from superseded controller (epoch %d < %d)",
						env.SetBudget.PowerCapWatts, env.Epoch, e.curEpoch())
					continue
				}
				e.applyBudget(env)
			case proto.KindPing:
				e.noteEpoch(env.Epoch)
				pong := proto.PongFor(*env.Ping)
				_ = c.Send(proto.Envelope{Kind: proto.KindPong, Pong: &pong})
			}
		}
	}()

	for {
		select {
		case <-ctx.Done():
			_ = c.Send(proto.Envelope{Kind: proto.KindGoodbye, Goodbye: &proto.Goodbye{JobID: e.cfg.JobID}})
			err := c.Close()
			<-recvErr // receiver exits once the transport closes
			if e.cfg.Dial != nil {
				return nil
			}
			return err
		case err := <-recvErr:
			c.Close()
			return err
		case <-e.cfg.Clock.After(e.cfg.Period):
			if err := e.tick(c); err != nil {
				c.Close()
				<-recvErr
				return err
			}
		}
	}
}

// applyBudget services one SetBudget: it continues the decision's
// causal trace through a cap-apply span, hands the context down the
// shared-memory mailbox for the agent tree's fan-out span, and records
// the decision so upward model updates can reference it.
func (e *Endpoint) applyBudget(env proto.Envelope) {
	decision := env.TraceContext()
	sp := e.cfg.Tracer.StartSpan("cap_apply", decision)
	sp.SetJob(e.cfg.JobID).Set("cap_w", env.SetBudget.PowerCapWatts)

	// The policy carries the apply span's context when tracing is on,
	// and otherwise passes the wire context through unchanged so a
	// traced cluster tier still reaches the fan-out of an untraced job.
	pctx := sp.Context()
	if !pctx.Valid() {
		pctx = decision
	}
	var recvAt time.Time
	if e.met.capApply != nil {
		recvAt = time.Now()
	}
	e.cfg.GEOPM.WritePolicy(geopm.Policy{
		PowerCap: units.Power(env.SetBudget.PowerCapWatts),
		Trace:    pctx,
	})
	if e.met.capApply != nil {
		e.met.capApply.Observe(time.Since(recvAt).Seconds())
	}
	if root := decision.RootStartUnixNano; root > 0 {
		if lat := float64(time.Now().UnixNano()-root) / 1e9; lat >= 0 {
			e.met.decision.Observe(lat)
		}
	}
	sp.End()
	e.met.capsRecv.Inc()

	e.mu.Lock()
	e.lastDecision = decision
	e.lastCapW = env.SetBudget.PowerCapWatts
	e.failsafed = false
	e.mu.Unlock()
	e.persistState()

	e.cfg.Log.Debugf("budget received: %.0f W/node", env.SetBudget.PowerCapWatts)
}

// tick folds any fresh GEOPM sample into the modeler and reports the
// current model to the cluster tier over c.
func (e *Endpoint) tick(c *proto.Conn) error {
	sample, seq := e.cfg.GEOPM.ReadSample()
	if seq != 0 && seq != e.lastSampleSeq {
		e.lastSampleSeq = seq
		e.cfg.Modeler.Observe(sample)
		e.observeSample(sample)
	}

	mdl := e.cfg.Modeler.Model()
	update := proto.ModelUpdateFor(e.cfg.JobID, mdl, e.cfg.Modeler.Trained())
	update.Epochs = sample.EpochCount
	update.PowerWatts = sample.Power.Watts()
	update.TimestampUnixNano = sample.Time.UnixNano()
	env := proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update}
	// Close the causal loop: the update reflects behavior under the last
	// applied budget, so it carries that decision's context back up.
	e.mu.Lock()
	if e.lastDecision.Valid() {
		d := e.lastDecision
		env.Trace = &d
	}
	e.mu.Unlock()
	if err := c.Send(env); err != nil {
		return err
	}
	e.met.updates.Inc()
	return nil
}

// observeSample records epoch-rate and model-fit telemetry for one fresh
// GEOPM sample.
func (e *Endpoint) observeSample(sample geopm.Sample) {
	e.met.power.Set(sample.Power.Watts())
	e.met.cap.Set(sample.PowerCap.Watts())
	e.met.powerDist.Observe(sample.Power.Watts())
	e.tel.power.Record(sample.Time, sample.Power.Watts())
	e.tel.cap.Record(sample.Time, sample.PowerCap.Watts())
	if e.cfg.Ledger != nil {
		// The sample's PowerCap is per node; the job is throttled while
		// its whole-job draw has reached the fanned-out cap.
		throttled := sample.PowerCap > 0 && sample.Power >= sample.PowerCap*units.Power(e.cfg.Nodes)
		e.cfg.Ledger.SetPower(e.led, sample.Time.UnixMilli(), sample.Power.Watts(), throttled)
	}

	if delta := sample.EpochCount - e.lastEpochs; delta > 0 {
		e.met.epochs.Add(uint64(delta))
		if !e.lastEpochTime.IsZero() {
			if span := sample.Time.Sub(e.lastEpochTime).Seconds(); span > 0 {
				e.met.rate.Set(float64(delta) / span)
				e.tel.rate.Record(sample.Time, float64(delta)/span)
			}
		}
		if e.cfg.Tracer.Enabled() {
			e.cfg.Tracer.Emit(obs.Event{Type: obs.EvEpochBatch, Job: e.cfg.JobID, Fields: obs.F{
				"epochs": delta, "total": sample.EpochCount,
				"cap_w": sample.PowerCap.Watts(), "power_w": sample.Power.Watts(),
			}})
		}
		e.lastEpochs = sample.EpochCount
		e.lastEpochTime = sample.Time
	}

	if refits := e.cfg.Modeler.Refits(); refits > e.lastRefits {
		r2 := e.cfg.Modeler.R2()
		e.met.refits.Add(uint64(refits - e.lastRefits))
		e.met.r2.Set(r2)
		e.met.residual.Set(1 - r2)
		e.cfg.Log.Debugf("model refit #%d accepted, R²=%.3f", refits, r2)
		if e.cfg.Tracer.Enabled() {
			e.cfg.Tracer.Emit(obs.Event{Type: obs.EvModelRefit, Job: e.cfg.JobID, Fields: obs.F{
				"refits": refits, "r2": r2, "residual": 1 - r2,
			}})
		}
		e.lastRefits = refits
	}
}
