package clustermgr

import (
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/durable"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/units"
)

// recoveredFixture is the control-plane image a crashed generation left
// behind: one session for bt-1 with a trained model and a 95 W cap, and
// a ledger whose bt-1 account holds one closed stint of 500 kJ.
func recoveredFixture(t *testing.T) (*durable.ControlState, *ledger.Ledger) {
	t.Helper()
	led := ledger.New()
	ms := t0.UnixMilli()
	h := led.Open(ledger.JobMeta{ID: "bt-1", Type: "bt.D.81", Nodes: 2, SubmitMs: ms}, ms)
	led.SetPower(h, ms, 250, false)
	led.CloseAllResidents(ms+2000, ledger.Requeued) // the crash boundary
	st := &durable.ControlState{
		Epoch:  3,
		LastMs: ms + 2000,
		Sessions: map[string]*durable.SessionState{
			"bt-1": {
				Job: "bt-1", Type: "bt.D.81", Nodes: 2,
				ConnectedMs: ms, CapW: 95, Trained: true,
				Model: durable.ModelState{A: 0.42, B: -1.37, C: 1.95, PMinW: 60, PMaxW: 120, UpdatedMs: ms + 1000},
			},
		},
		TypeTrained: map[string]durable.ModelState{
			"bt.D.81": {A: 0.42, B: -1.37, C: 1.95, PMinW: 60, PMaxW: 120, UpdatedMs: ms + 1000},
		},
		Ledger: led.ExportState(ms + 2000),
	}
	return st, ledger.Restore(st.Ledger)
}

// TestRecoveredSessionAdoption: an endpoint reconnecting after a
// controller restart is re-seeded from its recovered session — the
// pre-crash cap is re-imposed immediately (before any rebudget tick,
// stamped with the new epoch), the trained model survives, and the
// ledger reopens the same account rather than starting a second one.
func TestRecoveredSessionAdoption(t *testing.T) {
	v := clock.NewVirtual(t0.Add(5 * time.Second))
	rec, led := recoveredFixture(t)
	cfg := testConfig(v, 1640)
	cfg.Recovered = rec
	cfg.Epoch = rec.Epoch + 1
	cfg.Ledger = led
	cfg.UseFeedback = true
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.RecoveredSessions() != 1 {
		t.Fatalf("recovered sessions = %d, want 1", m.RecoveredSessions())
	}

	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(a))
	conn := proto.NewConn(b)
	if err := conn.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "bt-1", TypeName: "bt.D.81", Nodes: 2,
	}, Epoch: rec.Epoch}); err != nil {
		t.Fatal(err)
	}
	// The adoption cap arrives without any Tick having run.
	env, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != proto.KindSetBudget || env.SetBudget.PowerCapWatts != 95 {
		t.Fatalf("first message = %+v, want immediate 95 W SetBudget", env)
	}
	if env.Epoch != cfg.Epoch {
		t.Fatalf("adoption cap epoch = %d, want %d", env.Epoch, cfg.Epoch)
	}
	if got := cfg.Metrics.Counter("anord_recovered_sessions_adopted_total", "").Value(); got != 1 {
		t.Fatalf("adoptions = %d, want 1", got)
	}
	if m.RecoveredSessions() != 0 {
		t.Fatalf("recovered sessions after adoption = %d, want 0", m.RecoveredSessions())
	}
	if cap, ok := m.JobCap("bt-1"); !ok || cap != 95 {
		t.Fatalf("JobCap = %v %v, want 95 true", cap, ok)
	}

	// The trained model survived the restart: the manager's durable image
	// carries it verbatim.
	cs := m.ControlState()
	sess := cs.Sessions["bt-1"]
	if sess == nil || !sess.Trained {
		t.Fatalf("session not trained after adoption: %+v", sess)
	}
	want := rec.Sessions["bt-1"].Model
	got := sess.Model
	got.UpdatedMs = want.UpdatedMs // restored verbatim, compare coefficients
	if got != want {
		t.Fatalf("model after adoption = %+v, want %+v", sess.Model, want)
	}

	// The ledger resumed the restored account: one record, two stints
	// (pre-crash + reopened), conservation intact.
	snap := led.SnapshotAt(v.Now().UnixMilli())
	if len(snap.Jobs) != 1 || snap.Jobs[0].Stints != 2 {
		t.Fatalf("jobs=%d stints=%v, want 1 job with 2 stints", len(snap.Jobs), snap.Jobs)
	}
	if !snap.Conserved {
		t.Fatalf("ledger not conserved after adoption: %+v", snap)
	}

	conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestSupersedeAfterAdoptionKeepsRecoveredState: the reconnect-supersede
// path composed with a controller restart — an adopted session that is
// then superseded by a second connection for the same job hands the
// recovered model, cap, and ledger account to the new session intact.
func TestSupersedeAfterAdoptionKeepsRecoveredState(t *testing.T) {
	v := clock.NewVirtual(t0.Add(5 * time.Second))
	rec, led := recoveredFixture(t)
	cfg := testConfig(v, 1640)
	cfg.Recovered = rec
	cfg.Epoch = rec.Epoch + 1
	cfg.Ledger = led
	cfg.UseFeedback = true
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	first := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	waitFor(t, func() bool { c, ok := first.lastCap(); return ok && c == 95 })

	// Second connection for the same job supersedes the adopted session.
	second := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	<-first.done
	if got := cfg.Metrics.Counter("anord_recovered_sessions_adopted_total", "").Value(); got != 1 {
		t.Fatalf("adoptions = %d, want exactly 1 (supersede must not re-adopt)", got)
	}
	if cap, ok := m.JobCap("bt-1"); !ok || cap != 95 {
		t.Fatalf("JobCap after supersede = %v %v, want 95 true", cap, ok)
	}
	cs := m.ControlState()
	if sess := cs.Sessions["bt-1"]; sess == nil || !sess.Trained {
		t.Fatalf("supersede dropped the recovered model: %+v", cs.Sessions["bt-1"])
	}
	snap := led.SnapshotAt(v.Now().UnixMilli())
	if len(snap.Jobs) != 1 || snap.Jobs[0].Stints != 2 {
		t.Fatalf("jobs=%d stints=%v, want the one continuous account", len(snap.Jobs), snap.Jobs)
	}

	second.goodbye(t, "bt-1")
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestStaleControllerFencesItself: a Hello carrying a higher epoch than
// the manager's proves the manager is a superseded generation still
// running; it must refuse the registration rather than steer an
// endpoint that already answers to its successor.
func TestStaleControllerFencesItself(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.Epoch = 2
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(a))
	conn := proto.NewConn(b)
	if err := conn.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "bt-1", TypeName: "bt.D.81", Nodes: 2,
	}, Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	// The manager drops the connection without registering.
	if _, err := conn.Recv(); err == nil {
		t.Fatal("expected the fenced connection to close")
	}
	if got := cfg.Metrics.Counter("anord_superseded_hellos_total", "").Value(); got != 1 {
		t.Fatalf("fenced hellos = %d, want 1", got)
	}
	if m.ActiveJobs() != 0 {
		t.Fatalf("ActiveJobs = %d, want 0", m.ActiveJobs())
	}

	// Equal and lower epochs register normally: the endpoint has heard
	// nothing newer than this controller.
	ok := attachFakeJob(t, m, "bt-2", "bt.D.81", 2)
	m.Tick()
	waitFor(t, func() bool { _, got := ok.lastCap(); return got })
	if got := cfg.Metrics.Counter("anord_superseded_hellos_total", "").Value(); got != 1 {
		t.Fatalf("fenced hellos after valid join = %d, want still 1", got)
	}
	ok.goodbye(t, "bt-2")
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestTickStampsEpochOnCaps: every periodic SetBudget carries the
// controller epoch so endpoints can fence a superseded generation.
func TestTickStampsEpochOnCaps(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.Epoch = 7
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(a))
	conn := proto.NewConn(b)
	if err := conn.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "bt-1", TypeName: "bt.D.81", Nodes: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hasJob(m, "bt-1") })
	// Receive concurrently: a net.Pipe send inside Tick blocks until the
	// peer reads.
	got := make(chan proto.Envelope, 1)
	go func() {
		env, err := conn.Recv()
		if err == nil {
			got <- env
		}
	}()
	m.Tick()
	env := <-got
	if env.Kind != proto.KindSetBudget || env.Epoch != 7 {
		t.Fatalf("tick cap = kind %q epoch %d, want set_budget epoch 7", env.Kind, env.Epoch)
	}
	conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestManagerJournalsToStore: with a durable store attached, a session's
// lifecycle and the tick's rates land in the WAL and a fresh generation
// recovers them: epoch bumped, model and cap intact, ledger conserved.
func TestManagerJournalsToStore(t *testing.T) {
	dir := t.TempDir()
	v := clock.NewVirtual(t0)
	s, rec0, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(v, 1640)
	cfg.Store = s
	cfg.Recovered = rec0.State
	cfg.Ledger = rec0.Ledger
	cfg.UseFeedback = true
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != s.Epoch() {
		t.Fatalf("manager epoch %d != store epoch %d", m.Epoch(), s.Epoch())
	}

	j := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &proto.ModelUpdate{
		JobID: "bt-1", PowerWatts: 210, Trained: true,
		A: 1e-4, B: -0.03, C: 4.5, PMinWatts: 60, PMaxWatts: 120,
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		cs := m.ControlState()
		sess := cs.Sessions["bt-1"]
		return sess != nil && sess.Trained
	})
	v.Advance(2 * time.Second)
	m.Tick()
	waitFor(t, func() bool { _, ok := j.lastCap(); return ok })
	wantCap, _ := m.JobCap("bt-1")

	// Simulate a crash: no drain, no final snapshot — just reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Epoch != rec0.Epoch+1 {
		t.Fatalf("epoch after restart = %d, want %d", rec2.Epoch, rec0.Epoch+1)
	}
	sess := rec2.State.Sessions["bt-1"]
	if sess == nil {
		t.Fatal("session bt-1 not recovered")
	}
	if !sess.Trained || sess.Model.A != 1e-4 || sess.Model.B != -0.03 {
		t.Fatalf("recovered model = %+v, want the trained coefficients", sess.Model)
	}
	if units.Power(sess.CapW) != wantCap {
		t.Fatalf("recovered cap = %v, want %v", sess.CapW, wantCap)
	}
	snap := rec2.Ledger.SnapshotAt(rec2.State.LastMs)
	if !snap.Conserved {
		t.Fatalf("recovered ledger not conserved: %+v", snap)
	}

	j.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}
