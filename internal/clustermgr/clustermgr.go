// Package clustermgr implements the ANOR cluster-tier manager (§4, §4.1):
// a single process on the head node that accepts one connection per job
// from job-tier endpoint processes, periodically reads the time-varying
// cluster power target, distributes the available power across running
// jobs with a pluggable budgeter policy, and pushes each job's new
// per-node cap down over the wire. Model updates flowing up from the job
// tier (online-fitted power-performance models, measured power) feed both
// budgeting and power-tracking measurement.
package clustermgr

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/durable"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// DefaultPeriod is the cluster-tier rebudget period. The paper's targets
// move every few seconds (§4.4.1); a 2 s control loop keeps the cluster
// tier slower than the job tier but fast against the target.
const DefaultPeriod = 2 * time.Second

// Config parameterizes a Manager.
type Config struct {
	// Clock paces the control loop. Required.
	Clock clock.Clock
	// Budgeter distributes available power across jobs. Required.
	Budgeter budget.Budgeter
	// Target yields the cluster's total power target at a given time
	// (demand response signal, file-fed schedule, ...). Required.
	Target func(time.Time) units.Power
	// Period overrides DefaultPeriod when positive.
	Period time.Duration
	// TotalNodes is the cluster's node count, for idle-power accounting.
	TotalNodes int
	// IdlePower is each idle node's draw (default 70 W).
	IdlePower units.Power
	// TypeModels maps job-type names to precharacterized per-node
	// power-performance curves. A job whose Hello claims a known type is
	// budgeted with that curve until feedback replaces it.
	TypeModels map[string]perfmodel.Model
	// DefaultModel is used for jobs with unknown or unrecognized types —
	// the §6.1.2 policy knob (assume-least vs assume-most sensitive).
	DefaultModel perfmodel.Model
	// UseFeedback lets trained online models from the job tier override
	// the precharacterized curve — the "adjusted" policy of Fig. 10.
	UseFeedback bool
	// HeartbeatTimeout is the per-endpoint liveness deadline: an endpoint
	// not heard from (any message) for this long is evicted — its
	// connection is closed and its budget share reclaimed on the next
	// rebudget. At half the deadline the manager sends a ping probe
	// (ignored harmlessly by old peers, answered with a pong by new
	// ones). Zero disables liveness tracking.
	HeartbeatTimeout time.Duration
	// ModelTTL bounds how long a trained online model is trusted without
	// fresh updates: past the TTL the budgeter falls back to the
	// precharacterized TypeModels/DefaultModel curve until feedback
	// resumes. Zero trusts the last update forever.
	ModelTTL time.Duration
	// WriteTimeout bounds every wire send to an endpoint. A send that
	// times out marks the endpoint dead: its connection is closed so one
	// wedged socket cannot stall the control loop. Zero disables.
	WriteTimeout time.Duration
	// Metrics, when non-nil, receives the manager's operational metrics
	// (rebudget-loop duration, tracking error, connected endpoints,
	// per-job allocated vs measured power). Nil disables with no
	// measurable overhead.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives each tick's rebudget span with one
	// set_budget child per cap sent, and a model_update event per update.
	Tracer *obs.Tracer
	// Telemetry, when non-nil, retains per-tick target/measured/tracking
	// series in rollup rings — the data behind /timeseries and the flight
	// recorder. Nil disables with no overhead.
	Telemetry *telemetry.Store
	// Ledger, when non-nil, receives per-job energy attribution: a record
	// opens at Hello, accrues each job's last-reported power every tick
	// (idle nodes accrue IdlePower), and closes as Detached when the
	// endpoint deregisters. The ledger's internal double-entry identity is
	// exact; against wall-clock power integrals it is tick-quantized.
	// Nil disables with no overhead.
	Ledger *ledger.Ledger
	// Store, when non-nil, journals every control-plane state change —
	// sessions, trained models, caps, measured rates, the DR bid — to
	// the durable WAL, and Tick drives its bounded-loss flush and
	// compaction cadences. Nil disables durability.
	Store *durable.Store
	// Recovered seeds the manager from the control-plane image a
	// previous controller generation persisted: recovered sessions are
	// re-adopted when their endpoints reconnect (trained model and last
	// cap restored, ledger stint reopened on the same record).
	Recovered *durable.ControlState
	// Epoch is this controller generation's fencing epoch, stamped on
	// every outbound SetBudget/Ping so endpoints can reject a superseded
	// controller; a Hello carrying a higher epoch than ours proves this
	// manager is itself stale and the registration is refused. Defaults
	// to Store.Epoch(); zero (no store) disables fencing.
	Epoch uint64
	// Bid, when non-nil, is the demand-response bid recorded in the
	// durable image so a restarted controller knows what it promised.
	Bid *durable.BidState
	// Reserve is the demand-response reserve used to normalize the
	// tracking-error distribution; zero skips the relative histogram.
	Reserve units.Power
	// Track, when non-nil, receives each tick's (time, target, measured)
	// point, synchronously from Tick. The manager keeps no series of its
	// own: a caller that wants one owns its retention.
	Track func(trace.Point)
	// Log receives leveled diagnostics (job connects/disconnects, send
	// failures). Nil disables.
	Log *obs.Logger
}

// managerMetrics holds the manager's instruments. Every field is nil —
// and therefore a no-op sink — when the config carries no registry.
type managerMetrics struct {
	rebudgets    *obs.Counter
	rebudgetDur  *obs.Histogram
	endpoints    *obs.Gauge
	target       *obs.Gauge
	measured     *obs.Gauge
	trackErrW    *obs.Gauge
	trackErrRel  *obs.Histogram
	capsSent     *obs.Counter
	capSendErrs  *obs.Counter
	modelUpdates *obs.Counter
	feedbackLat  *obs.Histogram
	jobAlloc     *obs.GaugeVec
	jobPower     *obs.GaugeVec
	live         *obs.Gauge
	evictions    *obs.Counter
	staleFalls   *obs.Counter
	pings        *obs.Counter
	measuredDist *obs.Histogram
	fencedHellos *obs.Counter
	adoptions    *obs.Counter
}

func newManagerMetrics(r *obs.Registry) managerMetrics {
	return managerMetrics{
		rebudgets:    r.Counter("anord_rebudget_total", "Cluster-tier rebudget iterations."),
		rebudgetDur:  r.Histogram("anord_rebudget_duration_seconds", "Wall-clock duration of one rebudget iteration.", obs.DefLatencyBuckets),
		endpoints:    r.Gauge("anord_connected_endpoints", "Job-tier endpoint connections currently registered."),
		target:       r.Gauge("anord_power_target_watts", "Cluster power target at the last rebudget."),
		measured:     r.Gauge("anord_power_measured_watts", "Measured cluster power (jobs + idle) at the last rebudget."),
		trackErrW:    r.Gauge("anord_tracking_error_watts", "Absolute |measured - target| at the last rebudget."),
		trackErrRel:  r.Histogram("anord_tracking_error_ratio", "Reserve-relative tracking-error distribution.", obs.DefErrorBuckets),
		capsSent:     r.Counter("anord_caps_sent_total", "SetBudget messages pushed to job-tier endpoints."),
		capSendErrs:  r.Counter("anord_cap_send_errors_total", "SetBudget sends that failed (job deregisters on its own)."),
		modelUpdates: r.Counter("anord_model_updates_total", "Model updates received from the job tier."),
		feedbackLat:  r.Histogram("anord_decision_feedback_seconds", "Latency from a budget decision to the first model update reflecting it, from echoed trace timestamps.", obs.DefLatencyBuckets),
		jobAlloc:     r.GaugeVec("anord_job_allocated_watts", "Power cap last allocated to a job.", "job"),
		jobPower:     r.GaugeVec("anord_job_measured_watts", "Power last measured by a job.", "job"),
		live:         r.Gauge("anord_live_endpoints", "Endpoints heard from within the heartbeat deadline at the last rebudget."),
		evictions:    r.Counter("anord_endpoint_evictions_total", "Endpoints evicted for missing the heartbeat deadline or timing out a send."),
		staleFalls:   r.Counter("anord_stale_model_fallbacks_total", "Rebudget job entries that fell back from a stale trained model to the precharacterized curve."),
		pings:        r.Counter("anord_pings_sent_total", "Liveness ping probes sent to quiet endpoints."),
		measuredDist: r.Histogram("anord_power_measured_watts_dist", "Distribution of measured cluster power across rebudget ticks.", obs.DefPowerBuckets),
		fencedHellos: r.Counter("anord_superseded_hellos_total", "Hellos refused because they carried a higher controller epoch, proving this controller is superseded."),
		adoptions:    r.Counter("anord_recovered_sessions_adopted_total", "Reconnecting endpoints re-seeded from a recovered session (model and cap restored)."),
	}
}

// managerTelemetry holds the manager's retained-series handles; all nil
// without a store.
type managerTelemetry struct {
	target    *telemetry.Series
	measured  *telemetry.Series
	trackErr  *telemetry.Series
	endpoints *telemetry.Series
}

func newManagerTelemetry(st *telemetry.Store) managerTelemetry {
	return managerTelemetry{
		target:    st.Series("anord_power_target_watts"),
		measured:  st.Series("anord_power_measured_watts"),
		trackErr:  st.Series("anord_tracking_error_watts"),
		endpoints: st.Series("anord_connected_endpoints"),
	}
}

type jobState struct {
	id        string
	typeName  string
	nodes     int
	conn      *proto.Conn
	believed  perfmodel.Model
	online    perfmodel.Model
	trained   bool
	lastPower units.Power
	lastCap   units.Power
	// connectedMs is when this session registered (journal milliseconds).
	connectedMs int64

	// lastSeen is when any message last arrived on this connection;
	// liveness eviction keys off it.
	lastSeen time.Time
	// lastUpdate is when the trained online model was last refreshed;
	// the stale-feedback TTL keys off it.
	lastUpdate time.Time
	// lastPing is when the manager last probed this endpoint.
	lastPing time.Time
	// pingSeq sequences this endpoint's probes.
	pingSeq uint64
	// led is the job's energy-ledger account. It survives a
	// reconnect-supersede: the fresh session inherits the handle so the
	// job keeps one continuous record.
	led ledger.Handle
	// successor is the session that superseded this one on a reconnect;
	// a tick that sent this session a cap records it there.
	successor *jobState

	// Journal dedup state: the last model / power rate / throttle flag
	// written to the WAL, so steady-state ticks append nothing.
	walModel     durable.ModelState
	walModelSet  bool
	walPowerMW   int64
	walPowerSet  bool
	walThrottled bool
}

// Manager is the cluster-tier power manager.
type Manager struct {
	cfg Config
	met managerMetrics
	tel managerTelemetry

	mu   sync.Mutex
	jobs map[string]*jobState
	// recovered holds sessions from a previous controller generation
	// still waiting for their endpoints to reconnect and reclaim them.
	recovered map[string]*durable.SessionState
	// typeTrained remembers the freshest trained model per workload type
	// (recovered + live), seeding jobs of a known type ahead of their
	// own feedback when durability is on.
	typeTrained map[string]durable.ModelState
	// walIdle* dedup the journal's idle-rate records.
	walIdleNodes int
	walIdleSet   bool

	wg sync.WaitGroup
}

// NewManager validates the configuration and constructs a manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Clock == nil {
		return nil, errors.New("clustermgr: config requires a clock")
	}
	if cfg.Budgeter == nil {
		return nil, errors.New("clustermgr: config requires a budgeter")
	}
	if cfg.Target == nil {
		return nil, errors.New("clustermgr: config requires a target source")
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	if cfg.IdlePower == 0 {
		cfg.IdlePower = 70
	}
	if err := cfg.DefaultModel.Validate(); err != nil {
		return nil, errors.New("clustermgr: config requires a valid default model")
	}
	if cfg.Store != nil && cfg.Epoch == 0 {
		cfg.Epoch = cfg.Store.Epoch()
	}
	m := &Manager{
		cfg:         cfg,
		met:         newManagerMetrics(cfg.Metrics),
		tel:         newManagerTelemetry(cfg.Telemetry),
		jobs:        make(map[string]*jobState),
		recovered:   make(map[string]*durable.SessionState),
		typeTrained: make(map[string]durable.ModelState),
	}
	m.seedFromRecovered()
	if m.cfg.Bid != nil {
		// Journal the DR bid up front so a successor generation knows what
		// this one promised even if it crashes before the first snapshot.
		m.append(durable.Record{
			Kind: durable.KindBid, AtMs: m.cfg.Clock.Now().UnixMilli(),
			AvgW: m.cfg.Bid.AvgW, ReserveW: m.cfg.Bid.ReserveW,
		})
	}
	return m, nil
}

// ActiveJobs returns the number of registered jobs.
func (m *Manager) ActiveJobs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// JobCap returns the cap last sent to a job, and whether the job is known.
func (m *Manager) JobCap(id string) (units.Power, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return 0, false
	}
	return j.lastCap, true
}

// Serve accepts connections until the listener closes, registering each as
// a job-tier endpoint. It is the TCP entry point; in-process experiments
// can call AttachConn directly with net.Pipe ends. Wait also waits for
// Serve to return, so a connection accepted as the listener closes is
// counted before Wait can finish.
func (m *Manager) Serve(ln net.Listener) error {
	m.wg.Add(1)
	defer m.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		m.AttachConn(proto.NewConn(c))
	}
}

// AttachConn registers one job-tier connection. The first message must be
// a Hello; the connection is serviced on its own goroutine until Goodbye
// or transport error.
func (m *Manager) AttachConn(c *proto.Conn) {
	if m.cfg.WriteTimeout > 0 {
		c.SetTimeouts(0, m.cfg.WriteTimeout)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.handleConn(c)
	}()
}

func (m *Manager) handleConn(c *proto.Conn) {
	defer c.Close()
	first, err := c.Recv()
	if err != nil || first.Kind != proto.KindHello {
		return
	}
	if !first.Hello.Registrable() {
		// A job with no ID or no nodes would enter the budgeter as a
		// negative or empty claim on the job budget and inflate every
		// honest job's share; register nothing.
		m.cfg.Log.Warnf("refusing hello for job %q with %d nodes", first.Hello.JobID, first.Hello.Nodes)
		return
	}
	if m.cfg.Epoch > 0 && first.Epoch > m.cfg.Epoch {
		// The endpoint has already heard from a newer controller
		// generation: this manager is the stale one. Refusing the
		// registration (rather than adopting the endpoint) is the fence
		// that keeps a superseded controller from steering the fleet.
		m.met.fencedHellos.Inc()
		m.cfg.Log.WithJob(first.Hello.JobID).Warnf(
			"hello carries epoch %d > ours %d: this controller is superseded, refusing", first.Epoch, m.cfg.Epoch)
		return
	}
	hello := *first.Hello
	believed := m.cfg.DefaultModel
	if mdl, ok := m.cfg.TypeModels[hello.TypeName]; ok {
		believed = mdl
	}
	now := m.cfg.Clock.Now()
	nowMs := now.UnixMilli()
	j := &jobState{
		id:          hello.JobID,
		typeName:    hello.TypeName,
		nodes:       hello.Nodes,
		conn:        c,
		believed:    believed,
		lastPower:   m.cfg.IdlePower * units.Power(hello.Nodes),
		lastSeen:    now,
		connectedMs: nowMs,
	}
	var adoptedCapW float64
	var adopted bool
	m.mu.Lock()
	old := m.jobs[hello.JobID]
	if old == nil {
		adoptedCapW, adopted = m.adoptRecovered(j, nowMs)
		if !j.trained && m.durableOn() && m.cfg.UseFeedback {
			// A fresh job of a type another session already trained starts
			// from that learned curve instead of the precharacterized one.
			if ms, ok := m.typeTrained[hello.TypeName]; ok && ms.Valid() {
				j.online = ms.Model()
				j.trained = true
				j.lastUpdate = msToTime(ms.UpdatedMs)
				j.walModel, j.walModelSet = ms, true
			}
		}
	}
	if m.cfg.Ledger != nil {
		if old != nil {
			// The job's account is still open; the fresh session carries it
			// forward rather than double-opening.
			j.led = old.led
		} else {
			// For an adopted session the restored account already exists:
			// Open resumes it, reopening the stint the crash closed.
			j.led = m.cfg.Ledger.Open(ledger.JobMeta{
				ID: hello.JobID, Type: hello.TypeName, Nodes: hello.Nodes,
				SubmitMs: nowMs,
			}, nowMs)
		}
	}
	if old != nil {
		// Supersede inherits the learned state along with the ledger
		// handle so a TCP blip never resets training or the cap record.
		j.online, j.trained, j.lastUpdate = old.online, old.trained, old.lastUpdate
		j.lastCap = old.lastCap
		j.connectedMs = old.connectedMs
		j.walModel, j.walModelSet = old.walModel, old.walModelSet
		j.walPowerMW, j.walPowerSet, j.walThrottled = old.walPowerMW, old.walPowerSet, old.walThrottled
		old.successor = j
	}
	m.jobs[hello.JobID] = j
	m.mu.Unlock()
	if old != nil {
		// A reconnect won the race against the stale session's teardown:
		// the fresh connection supersedes it. Close the old transport so
		// its handler exits; its cleanup sees it was replaced and leaves
		// this registration alone.
		m.cfg.Log.WithJob(hello.JobID).Warnf("endpoint reconnected over a live session, superseding it")
		_ = old.conn.Close()
	} else {
		m.met.endpoints.Add(1)
		m.append(sessionRecord(durable.KindHello, j, nowMs))
	}
	if adopted {
		m.met.adoptions.Inc()
		m.cfg.Log.WithJob(hello.JobID).Infof("adopted recovered session: cap %.0f W restored", adoptedCapW)
		if adoptedCapW > 0 {
			// Re-impose the pre-crash cap immediately instead of waiting a
			// full control period with the endpoint uncapped.
			env := proto.Envelope{Kind: proto.KindSetBudget, SetBudget: &proto.SetBudget{
				JobID: hello.JobID, PowerCapWatts: adoptedCapW,
			}, Epoch: m.cfg.Epoch}
			if err := c.Send(env); err == nil {
				m.met.capsSent.Inc()
				m.met.jobAlloc.With(hello.JobID).Set(adoptedCapW)
			}
		}
	}
	m.cfg.Log.WithJob(hello.JobID).Infof("endpoint connected: type %q, %d nodes", hello.TypeName, hello.Nodes)

	defer func() {
		// Deregister only if this session still owns the entry — a
		// reconnect may have replaced it while this handler was draining.
		m.mu.Lock()
		mine := m.jobs[hello.JobID] == j
		if mine {
			delete(m.jobs, hello.JobID)
		}
		m.mu.Unlock()
		if !mine {
			return
		}
		byeMs := m.cfg.Clock.Now().UnixMilli()
		if m.cfg.Ledger != nil {
			m.cfg.Ledger.Close(j.led, byeMs, ledger.Detached)
		}
		m.append(sessionRecord(durable.KindBye, j, byeMs))
		m.met.endpoints.Add(-1)
		m.met.jobAlloc.Delete(hello.JobID)
		m.met.jobPower.Delete(hello.JobID)
		m.cfg.Log.WithJob(hello.JobID).Infof("endpoint disconnected")
	}()

	for {
		env, err := c.Recv()
		if err != nil {
			return
		}
		// Any inbound traffic proves the endpoint alive; a model update's
		// state changes share the critical section.
		var journal *durable.Record
		now := m.cfg.Clock.Now()
		m.mu.Lock()
		j.lastSeen = now
		if u := env.ModelUpdate; env.Kind == proto.KindModelUpdate {
			j.lastPower = units.Power(u.PowerWatts)
			if u.Trained {
				// The budgeter inverts models in closed form, which
				// holds only for monotone curves: the same test the
				// job tier's modeler applies before sending a fit.
				mdl := u.Model()
				if mdl.Validate() == nil && mdl.Monotone(50) {
					atMs := now.UnixMilli()
					j.online = mdl
					j.trained = true
					j.lastUpdate = now
					if m.durableOn() {
						ms := durable.ModelStateOf(mdl, atMs)
						if !j.walModelSet || ms != j.walModel {
							j.walModel, j.walModelSet = ms, true
							m.typeTrained[j.typeName] = ms
							msc := ms
							journal = &durable.Record{
								Kind: durable.KindModel, AtMs: atMs,
								Job: j.id, Type: j.typeName, Model: &msc,
							}
						}
					}
				}
			}
		}
		m.mu.Unlock()
		switch env.Kind {
		case proto.KindModelUpdate:
			u := env.ModelUpdate
			if journal != nil {
				m.append(*journal)
			}
			// Power first: a scrape that counts this update also sees it.
			m.met.jobPower.With(hello.JobID).Set(u.PowerWatts)
			m.met.modelUpdates.Inc()
			// A traced update echoes the decision context the job last ran
			// under, closing the decision → actuation → feedback loop.
			if d := env.TraceContext(); d.RootStartUnixNano > 0 {
				if lat := float64(time.Now().UnixNano()-d.RootStartUnixNano) / 1e9; lat >= 0 {
					m.met.feedbackLat.Observe(lat)
				}
			}
			if m.cfg.Tracer.Enabled() {
				fields := obs.F{
					"power_w": u.PowerWatts, "epochs": u.Epochs, "trained": u.Trained,
					"ts_ns": u.TimestampUnixNano,
				}
				if d := env.TraceContext(); d.Valid() {
					fields["trace"] = d.TraceID
					fields["parent"] = d.SpanID
				}
				m.cfg.Tracer.Emit(obs.Event{Type: obs.EvModelUpdate, Job: hello.JobID, Fields: fields})
			}
		case proto.KindPing:
			// Answer the peer's probe; a send failure surfaces on the
			// next Recv and tears the connection down normally.
			_ = c.Send(proto.Envelope{Kind: proto.KindPong, Pong: ptr(proto.PongFor(*env.Ping)), Epoch: m.cfg.Epoch})
		case proto.KindGoodbye:
			return
		}
	}
}

func ptr[T any](v T) *T { return &v }

// tickSession is one registered session as a tick sees it: the liveness
// verdict reached under the lock travels with it to the unlocked sends.
type tickSession struct {
	j    *jobState
	ping uint64 // probe sequence to send; zero sends none
	dead bool   // evicted this tick: nothing more is sent to it
}

// evict closes a session's connection; its handler then deregisters the
// job and the next rebudget reclaims its budget share.
func (m *Manager) evict(s *tickSession) {
	s.dead = true
	m.met.evictions.Inc()
	_ = s.j.conn.Close()
}

// Tick runs one control iteration: rebudget against the current target and
// record the tracking point. Exposed for deterministic drivers; Run calls
// it on the configured period.
//
// One locked walk visits the sessions in job-ID order, so the budgeter
// sees the same input whatever the map's iteration order. The walk makes
// each liveness decision, accrues the ledger, dedups the power journal
// and builds the budget inputs. Probes and cap sends run unlocked, and a
// second critical section records the caps sent.
func (m *Manager) Tick() {
	var wallStart time.Time
	if m.met.rebudgetDur != nil {
		wallStart = time.Now()
	}
	now := m.cfg.Clock.Now()
	nowMs := now.UnixMilli()
	target := m.cfg.Target(now)
	hb := m.cfg.HeartbeatTimeout

	// The rebudget round is the root of the causal trace: every cap this
	// iteration pushes descends from it, through the job tier's policy
	// write, down to the agent tree's hardware fan-out.
	round := m.cfg.Tracer.StartSpanAt("rebudget", obs.TraceContext{}, now)

	var recs []durable.Record
	var measuredJobs units.Power
	busyNodes, live := 0, 0
	m.mu.Lock()
	sessions := make([]tickSession, 0, len(m.jobs))
	for _, j := range m.jobs {
		sessions = append(sessions, tickSession{j: j})
	}
	slices.SortFunc(sessions, func(a, b tickSession) int { return strings.Compare(a.j.id, b.j.id) })
	jobs := make([]budget.Job, len(sessions))
	for i := range sessions {
		s, j := &sessions[i], sessions[i].j
		// An endpoint quiet past the heartbeat deadline is evicted; one
		// quiet past half of it, and not probed for as long, is pinged.
		switch quiet := now.Sub(j.lastSeen); {
		case hb <= 0:
			live++
		case quiet >= hb:
			s.dead = true
		default:
			live++
			if quiet >= hb/2 && now.Sub(j.lastPing) >= hb/2 {
				j.lastPing = now
				j.pingSeq++
				s.ping = j.pingSeq
			}
		}
		if m.cfg.Ledger != nil {
			// The job accrues its last-reported power until the next rate
			// change, throttled while that power has reached its cap.
			throttled := j.lastCap > 0 && j.lastPower >= j.lastCap*units.Power(j.nodes)
			m.cfg.Ledger.SetPower(j.led, nowMs, j.lastPower.Watts(), throttled)
			mw := quantMW(j.lastPower.Watts())
			if m.durableOn() && (!j.walPowerSet || mw != j.walPowerMW || throttled != j.walThrottled) {
				j.walPowerMW, j.walPowerSet, j.walThrottled = mw, true, throttled
				recs = append(recs, durable.Record{
					Kind: durable.KindPower, AtMs: nowMs,
					Job: j.id, PowerW: j.lastPower.Watts(), Throttled: throttled,
				})
			}
		}
		// A trained model older than ModelTTL is stale: the job falls back
		// to its precharacterized curve until fresh feedback arrives.
		mdl := j.believed
		if m.cfg.UseFeedback && j.trained {
			if m.cfg.ModelTTL > 0 && now.Sub(j.lastUpdate) > m.cfg.ModelTTL {
				m.met.staleFalls.Inc()
			} else {
				mdl = j.online
			}
		}
		jobs[i] = budget.Job{ID: j.id, Nodes: j.nodes, Model: mdl}
		busyNodes += j.nodes
		measuredJobs += j.lastPower
	}
	idleNodes := max(m.cfg.TotalNodes-busyNodes, 0)
	if m.cfg.Ledger != nil && m.durableOn() && (!m.walIdleSet || idleNodes != m.walIdleNodes) {
		m.walIdleNodes, m.walIdleSet = idleNodes, true
		recs = append(recs, durable.Record{
			Kind: durable.KindIdle, AtMs: nowMs,
			Nodes: idleNodes, PowerW: m.cfg.IdlePower.Watts(),
		})
	}
	m.mu.Unlock()
	m.cfg.Ledger.SetIdle(nowMs, idleNodes, m.cfg.IdlePower.Watts())
	m.met.live.Set(float64(live))

	// A session evicted this tick stays in the budget inputs, so the
	// survivors' caps leave room for what its nodes still draw.
	idleDraw := m.cfg.IdlePower * units.Power(idleNodes)
	jobBudget := target - idleDraw
	caps := make([]units.Power, len(jobs))
	m.cfg.Budgeter.AllocateInto(jobs, jobBudget, caps)
	measured := measuredJobs + idleDraw
	round.Set("target_w", target.Watts()).Set("job_budget_w", jobBudget.Watts()).
		Set("measured_w", measured.Watts()).Set("jobs", len(jobs)).Set("idle_nodes", idleNodes)

	for i := range sessions {
		s := &sessions[i]
		if s.dead {
			m.cfg.Log.WithJob(s.j.id).Warnf("endpoint missed heartbeat deadline %v, evicting", hb)
			m.evict(s)
			continue
		}
		if s.ping > 0 {
			env := proto.Envelope{Kind: proto.KindPing, Ping: &proto.Ping{Seq: s.ping, TimestampUnixNano: now.UnixNano()}, Epoch: m.cfg.Epoch}
			if err := s.j.conn.Send(env); err != nil {
				// A probe that cannot even be written marks the endpoint
				// dead now rather than at the deadline.
				m.cfg.Log.WithJob(s.j.id).Warnf("liveness probe failed (%v), evicting", err)
				m.evict(s)
				continue
			}
			m.met.pings.Inc()
		}
		cap := caps[i]
		// Each cap push is a child span of the round; its context rides
		// the envelope so the job tier continues the same trace.
		sp := round.ChildAt("set_budget", now)
		sp.SetJob(s.j.id).Set("cap_w", cap.Watts()).Set("nodes", s.j.nodes)
		env := proto.Envelope{Kind: proto.KindSetBudget, SetBudget: &proto.SetBudget{
			JobID: s.j.id, PowerCapWatts: cap.Watts(),
		}, Trace: sp.Propagate(), Epoch: m.cfg.Epoch}
		if err := s.j.conn.Send(env); err != nil {
			// Close the connection so a wedged socket (send timed out)
			// cannot wedge again next round.
			m.met.capSendErrs.Inc()
			m.cfg.Log.WithJob(s.j.id).Warnf("cap send failed (%v), dropping connection", err)
			m.evict(s)
			sp.Set("send_err", true).EndAt(m.cfg.Clock.Now())
			continue
		}
		sp.EndAt(m.cfg.Clock.Now())
		m.met.capsSent.Inc()
		m.met.jobAlloc.With(s.j.id).Set(cap.Watts())
	}
	round.EndAt(m.cfg.Clock.Now())

	// Record each cap sent on whichever session now owns the job ID: a
	// reconnect that superseded the session mid-tick inherits it.
	m.mu.Lock()
	for i, s := range sessions {
		if s.dead {
			continue
		}
		j := s.j
		for j.successor != nil {
			j = j.successor
		}
		if j.lastCap != caps[i] && m.durableOn() {
			recs = append(recs, durable.Record{
				Kind: durable.KindCap, AtMs: nowMs,
				Job: j.id, CapW: caps[i].Watts(),
			})
		}
		j.lastCap = caps[i]
	}
	m.mu.Unlock()
	m.append(recs...)

	if m.cfg.Track != nil {
		m.cfg.Track(trace.Point{Time: now, Target: target, Measured: measured})
	}
	m.met.rebudgets.Inc()
	m.met.target.Set(target.Watts())
	m.met.measured.Set(measured.Watts())
	m.met.measuredDist.Observe(measured.Watts())
	absErr := math.Abs((measured - target).Watts())
	m.met.trackErrW.Set(absErr)
	if m.cfg.Reserve > 0 {
		m.met.trackErrRel.Observe(absErr / m.cfg.Reserve.Watts())
	}
	if m.cfg.Telemetry != nil {
		m.tel.target.Record(now, target.Watts())
		m.tel.measured.Record(now, measured.Watts())
		m.tel.trackErr.Record(now, absErr)
		m.tel.endpoints.Record(now, float64(len(jobs)))
	}
	if m.met.rebudgetDur != nil {
		m.met.rebudgetDur.Observe(time.Since(wallStart).Seconds())
	}
	if m.cfg.Store != nil {
		// Drive the store's bounded-loss flush and compaction cadences off
		// the control period; Maintain is cheap when nothing is due.
		m.cfg.Store.Maintain(m.ControlState)
	}
}

// Run executes the control loop until ctx is cancelled and returns once
// the tick in flight, if any, has finished; connection handlers are left
// running (close them, then Wait). The loop runs under a pprof label so
// continuous CPU profiles attribute rebudget time to the control loop
// rather than an anonymous goroutine.
func (m *Manager) Run(ctx context.Context) error {
	pprof.Do(ctx, pprof.Labels("subsystem", "clustermgr", "loop", "rebudget"), func(ctx context.Context) {
		for {
			select {
			case <-ctx.Done():
				return
			case <-m.cfg.Clock.After(m.cfg.Period):
				m.Tick()
			}
		}
	})
	return nil
}

// Wait blocks until all connection handlers have exited and Serve, if
// running, has returned; close the listener first.
func (m *Manager) Wait() { m.wg.Wait() }
