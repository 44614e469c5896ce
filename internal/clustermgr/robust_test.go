package clustermgr

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/workload"
)

// TestHeartbeatEvictionReclaimsBudget: an endpoint that goes silent past
// the heartbeat deadline is evicted, and the next rebudget hands its
// power share to the survivors.
func TestHeartbeatEvictionReclaimsBudget(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.HeartbeatTimeout = 10 * time.Second
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bt := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	sp := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)
	_ = bt

	m.Tick()
	waitFor(t, func() bool { _, ok := sp.lastCap(); return ok })
	spBefore, _ := sp.lastCap()

	// Keep sp-1 alive with traffic at +6 s; bt-1 stays silent. The
	// model-update counter is the ordering barrier proving the manager
	// processed the message (and so refreshed lastSeen) before we advance.
	v.Advance(6 * time.Second)
	if err := sp.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &proto.ModelUpdate{
		JobID: "sp-1", PowerWatts: 400,
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return cfg.Metrics.Counter("anord_model_updates_total", "").Value() == 1
	})

	// At +10 s bt-1 has been quiet the full deadline: evicted. sp-1 was
	// heard 4 s ago: alive.
	v.Advance(4 * time.Second)
	m.Tick()
	if got := cfg.Metrics.Counter("anord_endpoint_evictions_total", "").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := cfg.Metrics.Gauge("anord_live_endpoints", "").Value(); got != 1 {
		t.Errorf("live endpoints = %v, want 1", got)
	}
	waitFor(t, func() bool { return m.ActiveJobs() == 1 })
	<-bt.done // eviction closed bt-1's connection

	// The next rebudget redistributes bt-1's share: sp-1's cap rises.
	m.Tick()
	waitFor(t, func() bool {
		c, ok := sp.lastCap()
		return ok && c > spBefore
	})
}

// TestPingProbeKeepsQuietEndpointAlive: at half the deadline the manager
// probes a quiet endpoint; a pong (any traffic) resets its deadline.
func TestPingProbeKeepsQuietEndpointAlive(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.HeartbeatTimeout = 10 * time.Second
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A fake endpoint that answers pings and follows each pong with a
	// model update, so the counter can serve as a processed barrier.
	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(a))
	conn := proto.NewConn(b)
	if err := conn.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "bt-1", TypeName: "bt.D.81", Nodes: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, err := conn.Recv()
			if err != nil {
				return
			}
			if env.Kind == proto.KindPing {
				pong := proto.PongFor(*env.Ping)
				if conn.Send(proto.Envelope{Kind: proto.KindPong, Pong: &pong}) != nil {
					return
				}
				if conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &proto.ModelUpdate{
					JobID: "bt-1", PowerWatts: 350,
				}}) != nil {
					return
				}
			}
		}
	}()
	waitFor(t, func() bool { return hasJob(m, "bt-1") })

	pings := cfg.Metrics.Counter("anord_pings_sent_total", "")
	updates := cfg.Metrics.Counter("anord_model_updates_total", "")

	// Quiet for 6 s (past half the 10 s deadline): the tick probes.
	v.Advance(6 * time.Second)
	m.Tick()
	if got := pings.Value(); got != 1 {
		t.Fatalf("pings after first tick = %d, want 1", got)
	}
	waitFor(t, func() bool { return updates.Value() == 1 })

	// 5 s later the endpoint is 5 s quiet — alive (probed again), not
	// evicted.
	v.Advance(5 * time.Second)
	m.Tick()
	if got := cfg.Metrics.Counter("anord_endpoint_evictions_total", "").Value(); got != 0 {
		t.Fatalf("evictions = %d, want 0", got)
	}
	if m.ActiveJobs() != 1 {
		t.Fatalf("ActiveJobs = %d, want 1", m.ActiveJobs())
	}
	if got := pings.Value(); got != 2 {
		t.Errorf("pings after second tick = %d, want 2", got)
	}

	conn.Close()
	<-done
}

// TestStaleModelFallsBackToBelievedCurve: with a model TTL, a trained
// online model that stops refreshing is distrusted and budgeting reverts
// to the precharacterized curve.
func TestStaleModelFallsBackToBelievedCurve(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.UseFeedback = true
	cfg.ModelTTL = 30 * time.Second
	cfg.Metrics = obs.NewRegistry()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bt := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	sp := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)
	_ = sp

	// bt-1 reports a trained model that is much less power-sensitive than
	// its precharacterized curve, shifting the even-slowdown split.
	trained := proto.ModelUpdateFor("bt-1", workload.MustByName("mg").RelativeModel(), true)
	if err := bt.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &trained}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return cfg.Metrics.Counter("anord_model_updates_total", "").Value() == 1
	})

	m.Tick()
	waitFor(t, func() bool { _, ok := bt.lastCap(); return ok })
	capTrained, _ := bt.lastCap()
	if got := cfg.Metrics.Counter("anord_stale_model_fallbacks_total", "").Value(); got != 0 {
		t.Fatalf("stale fallbacks before TTL = %d, want 0", got)
	}

	// Past the TTL with no fresh update, the trained model is distrusted.
	v.Advance(31 * time.Second)
	m.Tick()
	if got := cfg.Metrics.Counter("anord_stale_model_fallbacks_total", "").Value(); got != 1 {
		t.Errorf("stale fallbacks after TTL = %d, want 1", got)
	}
	waitFor(t, func() bool {
		c, ok := bt.lastCap()
		return ok && c != capTrained
	})

	bt.goodbye(t, "bt-1")
	sp.goodbye(t, "sp-1")
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestWriteTimeoutEvictsWedgedEndpoint: an endpoint that stops reading
// wedges the cap send; the write deadline fails it and the connection is
// dropped so it cannot wedge the next round too.
func TestWriteTimeoutEvictsWedgedEndpoint(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 1640)
	cfg.WriteTimeout = 50 * time.Millisecond
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
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return hasJob(m, "bt-1") })
	// The fake never reads again: the pipe has no buffering, so the cap
	// send can only complete via the deadline.
	m.Tick()
	if got := cfg.Metrics.Counter("anord_cap_send_errors_total", "").Value(); got != 1 {
		t.Errorf("cap send errors = %d, want 1", got)
	}
	if got := cfg.Metrics.Counter("anord_endpoint_evictions_total", "").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
}

// TestManagerLeaksNoGoroutinesUnderFaults: every connection-handler
// goroutine must exit once its connection dies — whether by orderly
// goodbye, an injected mid-frame reset, or a hard close.
func TestManagerLeaksNoGoroutinesUnderFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	v := clock.NewVirtual(t0)
	m, err := NewManager(testConfig(v, 1640))
	if err != nil {
		t.Fatal(err)
	}

	// One orderly job, one whose manager-side transport resets mid-frame
	// on the first cap send, one hard-closed by the peer.
	orderly := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	closer := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)

	in := faults.NewInjector(faults.Plan{ResetEvery: 1}, v, nil)
	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(in.Wrap(a)))
	faulted := proto.NewConn(b)
	if err := faulted.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "ft-1", TypeName: "ft.D.64", Nodes: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	faultedDone := make(chan struct{})
	go func() {
		defer close(faultedDone)
		for {
			if _, err := faulted.Recv(); err != nil {
				return
			}
		}
	}()
	waitFor(t, func() bool { return hasJob(m, "ft-1") })

	// The tick's cap send to ft-1 hits the injected reset; the handler's
	// next Recv fails and deregisters the job.
	m.Tick()
	waitFor(t, func() bool { return !hasJob(m, "ft-1") })
	<-faultedDone

	orderly.goodbye(t, "bt-1")
	closer.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
	<-orderly.done
	<-closer.done
	m.Wait()

	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
