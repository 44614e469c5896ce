package clustermgr

import (
	"errors"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func typeModels() map[string]perfmodel.Model {
	out := map[string]perfmodel.Model{}
	for _, t := range workload.Catalog() {
		out[t.Name] = t.RelativeModel()
	}
	return out
}

func testConfig(v *clock.Virtual, target units.Power) Config {
	return Config{
		Clock:        v,
		Budgeter:     budget.EvenSlowdown{},
		Target:       func(time.Time) units.Power { return target },
		TotalNodes:   16,
		TypeModels:   typeModels(),
		DefaultModel: workload.LeastSensitive().RelativeModel(),
	}
}

// fakeJob is a scripted job-tier peer: it says Hello and then records
// every SetBudget it receives.
type fakeJob struct {
	conn *proto.Conn
	mu   sync.Mutex
	caps []units.Power
	done chan struct{}
}

func attachFakeJob(t *testing.T, m *Manager, id, typeName string, nodes int) *fakeJob {
	t.Helper()
	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(a))
	j := &fakeJob{conn: proto.NewConn(b), done: make(chan struct{})}
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: id, TypeName: typeName, Nodes: nodes,
	}}); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(j.done)
		for {
			env, err := j.conn.Recv()
			if err != nil {
				return
			}
			if env.Kind == proto.KindSetBudget {
				j.mu.Lock()
				j.caps = append(j.caps, units.Power(env.SetBudget.PowerCapWatts))
				j.mu.Unlock()
			}
		}
	}()
	waitFor(t, func() bool { return hasJob(m, id) })
	return j
}

func hasJob(m *Manager, id string) bool {
	_, ok := m.JobCap(id)
	return ok
}

func (j *fakeJob) lastCap() (units.Power, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.caps) == 0 {
		return 0, false
	}
	return j.caps[len(j.caps)-1], true
}

func (j *fakeJob) goodbye(t *testing.T, id string) {
	t.Helper()
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindGoodbye, Goodbye: &proto.Goodbye{JobID: id}}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewManagerValidation(t *testing.T) {
	v := clock.NewVirtual(t0)
	good := testConfig(v, 3000)
	if _, err := NewManager(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"clock":    func(c *Config) { c.Clock = nil },
		"budgeter": func(c *Config) { c.Budgeter = nil },
		"target":   func(c *Config) { c.Target = nil },
		"default":  func(c *Config) { c.DefaultModel = perfmodel.Model{} },
	} {
		c := testConfig(v, 3000)
		mutate(&c)
		if _, err := NewManager(c); err == nil {
			t.Errorf("config without %s accepted", name)
		}
	}
}

func TestTickBudgetsRegisteredJobs(t *testing.T) {
	v := clock.NewVirtual(t0)
	m, err := NewManager(testConfig(v, 16*200+0)) // roomy target
	if err != nil {
		t.Fatal(err)
	}
	bt := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	sp := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)
	if m.ActiveJobs() != 2 {
		t.Fatalf("ActiveJobs = %d", m.ActiveJobs())
	}
	m.Tick()
	waitFor(t, func() bool { _, ok := bt.lastCap(); return ok })
	waitFor(t, func() bool { _, ok := sp.lastCap(); return ok })

	btCap, _ := bt.lastCap()
	spCap, _ := sp.lastCap()
	// Even-slowdown under a roomy but binding budget steers more power to
	// the sensitive job.
	if btCap <= spCap {
		t.Errorf("btCap %v ≤ spCap %v under even-slowdown", btCap, spCap)
	}
	if got, ok := m.JobCap("bt-1"); !ok || got != btCap {
		t.Errorf("JobCap = %v, %v", got, ok)
	}
}

func TestUnknownTypeGetsDefaultModel(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 2000)
	cfg.Budgeter = budget.EvenPower{}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown type: believed model is the least-sensitive default, whose
	// PMax (236 W) differs from bt's 280 W, observable through the cap.
	j := attachFakeJob(t, m, "mystery", "no-such-type", 2)
	m.Tick()
	waitFor(t, func() bool { _, ok := j.lastCap(); return ok })
	cap, _ := j.lastCap()
	def := workload.LeastSensitive().RelativeModel()
	if cap < def.PMin || cap > def.PMax {
		t.Errorf("cap %v outside default model range [%v, %v]", cap, def.PMin, def.PMax)
	}
}

func TestFeedbackOverridesBelievedModel(t *testing.T) {
	v := clock.NewVirtual(t0)
	// Idle nodes plus 260 W per job node: above IS's 236 W PMax (where an
	// IS-believed allocation saturates) but below BT's 280 W.
	target := units.Power(14*70 + 2*260)
	cfg := testConfig(v, target)
	cfg.UseFeedback = true
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Job claims IS (insensitive) but is actually BT-like; send a trained
	// model update and check the believed curve shifts.
	j := attachFakeJob(t, m, "j1", "is.D.32", 2)
	m.Tick()
	waitFor(t, func() bool { _, ok := j.lastCap(); return ok })

	trained := proto.ModelUpdateFor("j1", workload.MustByName("bt").RelativeModel(), true)
	trained.PowerWatts = 400
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &trained}); err != nil {
		t.Fatal(err)
	}
	// The update is applied by the connection handler; wait until the
	// next tick's allocation reflects the wider BT power range.
	waitFor(t, func() bool {
		m.Tick()
		cap, ok := j.lastCap()
		return ok && cap > 236 // beyond IS's PMax: must be using the BT curve
	})
}

// TestNonMonotoneModelUpdateRejected: a trained model whose time rises
// with power over part of its range (here U-shaped, fastest at 250 W)
// passes Validate but breaks the budgeter's monotone-model precondition,
// so the manager keeps the believed curve and the cap does not move.
func TestNonMonotoneModelUpdateRejected(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.UseFeedback = true
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bt := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	sp := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)
	m.Tick()
	before, _ := m.JobCap("bt-1")

	u := perfmodel.Model{A: 1e-4, B: -0.05, C: 7.25, PMin: 140, PMax: 280}
	if u.Validate() != nil || u.Monotone(50) {
		t.Fatalf("test model %v: want valid and non-monotone", u)
	}
	trained := proto.ModelUpdateFor("bt-1", u, true)
	if err := bt.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &trained}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return cfg.Metrics.Counter("anord_model_updates_total", "").Value() == 1
	})
	m.Tick()
	if after, _ := m.JobCap("bt-1"); after != before {
		t.Errorf("bt-1 cap moved from %v to %v on a non-monotone model", before, after)
	}

	bt.goodbye(t, "bt-1")
	sp.goodbye(t, "sp-1")
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

func TestFeedbackIgnoredWhenDisabled(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 16*280)
	cfg.UseFeedback = false
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := attachFakeJob(t, m, "j1", "is.D.32", 2)
	trained := proto.ModelUpdateFor("j1", workload.MustByName("bt").RelativeModel(), true)
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &trained}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the handler apply the update
	m.Tick()
	waitFor(t, func() bool { _, ok := j.lastCap(); return ok })
	cap, _ := j.lastCap()
	// With a huge budget the cap saturates at the believed model's PMax;
	// IS PMax is 236, BT's is 280.
	if cap > 236 {
		t.Errorf("cap %v exceeds IS PMax despite feedback disabled", cap)
	}
}

func TestGoodbyeDeregisters(t *testing.T) {
	v := clock.NewVirtual(t0)
	m, err := NewManager(testConfig(v, 3000))
	if err != nil {
		t.Fatal(err)
	}
	j := attachFakeJob(t, m, "bye", "bt.D.81", 2)
	j.goodbye(t, "bye")
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

func TestConnectionDropDeregisters(t *testing.T) {
	v := clock.NewVirtual(t0)
	m, err := NewManager(testConfig(v, 3000))
	if err != nil {
		t.Fatal(err)
	}
	j := attachFakeJob(t, m, "drop", "bt.D.81", 2)
	j.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestHelloWithoutIDOrNodesIsRefused: a Hello naming no job or claiming
// no nodes must close the connection and register nothing. Registered, a
// negative node count enters the budgeter's Σ cap×nodes as a credit, so
// the honest jobs' caps overrun the job budget.
func TestHelloWithoutIDOrNodesIsRefused(t *testing.T) {
	const target units.Power = 1500
	for _, c := range []struct {
		name  string
		hello proto.Hello
	}{
		{"zero nodes", proto.Hello{JobID: "liar", TypeName: "bt.D.81", Nodes: 0}},
		{"negative nodes", proto.Hello{JobID: "liar", TypeName: "bt.D.81", Nodes: -4}},
		{"empty id", proto.Hello{TypeName: "bt.D.81", Nodes: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig(clock.NewVirtual(t0), target)
			cfg.IdlePower = workload.NodeIdlePower
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bt := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
			sp := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)

			a, b := net.Pipe()
			m.AttachConn(proto.NewConn(a))
			liar := proto.NewConn(b)
			defer liar.Close()
			liar.SetTimeouts(2*time.Second, 0)
			hello := c.hello
			if err := liar.Send(proto.Envelope{Kind: proto.KindHello, Hello: &hello}); err != nil {
				t.Fatal(err)
			}
			if _, err := liar.Recv(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("manager kept the connection open (recv err %v)", err)
			}
			if n := m.ActiveJobs(); n != 2 {
				t.Fatalf("ActiveJobs = %d, want the 2 honest jobs", n)
			}

			m.Tick()
			waitFor(t, func() bool { _, ok := bt.lastCap(); return ok })
			waitFor(t, func() bool { _, ok := sp.lastCap(); return ok })
			btCap, _ := bt.lastCap()
			spCap, _ := sp.lastCap()
			jobBudget := target - cfg.IdlePower*units.Power(cfg.TotalNodes-4)
			if granted := 2*btCap + 2*spCap; granted > jobBudget+1e-6 {
				t.Errorf("honest jobs granted %v > job budget %v", granted, jobBudget)
			}
		})
	}
}

// trackLog is a Config.Track sink that keeps every point.
type trackLog struct {
	mu  sync.Mutex
	pts []trace.Point
}

func (l *trackLog) record(p trace.Point) {
	l.mu.Lock()
	l.pts = append(l.pts, p)
	l.mu.Unlock()
}

func (l *trackLog) points() []trace.Point {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.pts)
}

// TestTrackingRecordsIdleAndJobPower: the Track hook is called exactly
// once per Tick, synchronously, with that tick's time, target and
// measured power (idle nodes plus reported job power), whether or not any
// session is connected.
func TestTrackingRecordsIdleAndJobPower(t *testing.T) {
	v := clock.NewVirtual(t0)
	var track trackLog
	cfg := testConfig(v, 0)
	cfg.Target = func(now time.Time) units.Power { return units.Power(2000 + now.Sub(t0).Seconds()) }
	cfg.Track = track.record
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tick int, measured units.Power) {
		t.Helper()
		pts := track.points()
		if len(pts) != tick {
			t.Fatalf("after tick %d: %d points", tick, len(pts))
		}
		p := pts[tick-1]
		if !p.Time.Equal(v.Now()) || p.Target != cfg.Target(v.Now()) || p.Measured != measured {
			t.Errorf("tick %d: point %+v, want time %v target %v measured %v",
				tick, p, v.Now(), cfg.Target(v.Now()), measured)
		}
	}
	m.Tick() // no sessions: the point still comes, carrying idle power
	check(1, 16*70)

	j := attachFakeJob(t, m, "p", "bt.D.81", 2)
	update := proto.ModelUpdateFor("p", workload.MustByName("bt").RelativeModel(), false)
	update.PowerWatts = 300
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.jobs["p"].lastPower == 300
	})
	for tick := 2; tick <= 4; tick++ {
		v.Advance(2 * time.Second)
		m.Tick()
		check(tick, 14*70+300)
	}
}

func TestFreedPowerRebudgetedAfterJobDeath(t *testing.T) {
	// Two jobs share a tight budget; when one's endpoint dies, the next
	// tick hands its power to the survivor.
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, units.Power(12*70+4*180)) // 4 busy nodes at 180 W, 12 idle
	cfg.Budgeter = budget.EvenPower{}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := attachFakeJob(t, m, "a", "bt.D.81", 2)
	b := attachFakeJob(t, m, "b", "bt.D.81", 2)
	m.Tick()
	waitFor(t, func() bool { _, ok := a.lastCap(); return ok })
	waitFor(t, func() bool { _, ok := b.lastCap(); return ok })
	before, _ := b.lastCap()

	a.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 1 })
	// The budget stays fixed while busy nodes drop from 4 to 2, but the
	// idle-node count rises, so the survivor's share grows to its max.
	waitFor(t, func() bool {
		m.Tick()
		after, ok := b.lastCap()
		return ok && after > before
	})
}

func TestServeOverTCP(t *testing.T) {
	v := clock.NewVirtual(t0)
	m, err := NewManager(testConfig(v, 3000))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go m.Serve(ln)
	defer ln.Close()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := proto.NewConn(raw)
	defer c.Close()
	if err := c.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{JobID: "tcp-job", TypeName: "ft.D.64", Nodes: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.ActiveJobs() == 1 })

	go func() {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	m.Tick()
	waitFor(t, func() bool {
		cap, ok := m.JobCap("tcp-job")
		return ok && cap > 0
	})
}
