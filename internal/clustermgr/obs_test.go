package clustermgr

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/units"
	"repro/internal/workload"
)

// scrape renders the registry the way /metrics would.
func scrape(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestTickPopulatesMetricsAndEvents(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 2000)
	reg := obs.NewRegistry()
	ring := obs.NewRing(128, "test")
	cfg.Metrics = reg
	cfg.Tracer = ring
	cfg.Reserve = 1000
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	bt := attachFakeJob(t, m, "bt-1", "bt.D.81", 2)
	sp := attachFakeJob(t, m, "sp-1", "sp.D.81", 2)
	m.Tick()
	waitFor(t, func() bool { _, ok := bt.lastCap(); return ok })
	waitFor(t, func() bool { _, ok := sp.lastCap(); return ok })

	if got := reg.Counter("anord_rebudget_total", "").Value(); got != 1 {
		t.Errorf("rebudget_total = %d, want 1", got)
	}
	if got := reg.Gauge("anord_connected_endpoints", "").Value(); got != 2 {
		t.Errorf("connected_endpoints = %v, want 2", got)
	}
	if got := reg.Gauge("anord_power_target_watts", "").Value(); got != 2000 {
		t.Errorf("power_target_watts = %v, want 2000", got)
	}
	// Idle-only measured power: 16 nodes × 70 W (no model updates yet).
	if got := reg.Gauge("anord_power_measured_watts", "").Value(); got != 16*70 {
		t.Errorf("power_measured_watts = %v, want 1120", got)
	}
	if got := reg.Gauge("anord_tracking_error_watts", "").Value(); got != 2000-16*70 {
		t.Errorf("tracking_error_watts = %v, want 880", got)
	}
	if got := reg.Counter("anord_caps_sent_total", "").Value(); got != 2 {
		t.Errorf("caps_sent_total = %d, want 2", got)
	}

	out := scrape(t, reg)
	for _, want := range []string{
		`anord_job_allocated_watts{job="bt-1"}`,
		`anord_job_allocated_watts{job="sp-1"}`,
		"anord_rebudget_duration_seconds_bucket",
		"anord_tracking_error_ratio_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// One rebudget span plus one set_budget span per job.
	var rebudgets, pushes int
	for _, e := range ring.Events() {
		if e.Type != obs.EvSpan {
			continue
		}
		switch e.Fields["name"] {
		case "rebudget":
			rebudgets++
			if e.Fields["idle_nodes"] != 12 {
				t.Errorf("rebudget idle_nodes = %v, want 12", e.Fields["idle_nodes"])
			}
		case "set_budget":
			pushes++
			if e.Job != "bt-1" && e.Job != "sp-1" {
				t.Errorf("set_budget for unexpected job %q", e.Job)
			}
			if e.Fields["nodes"] != 2 {
				t.Errorf("set_budget nodes = %v, want 2", e.Fields["nodes"])
			}
		}
	}
	if rebudgets != 1 || pushes != 2 {
		t.Errorf("spans: %d rebudgets, %d set_budgets; want 1, 2", rebudgets, pushes)
	}
}

// TestTickEmitsCausalSpans checks the cluster tier's half of the causal
// chain: a rebudget root span, a set_budget child per cap pushed, and
// the child's context riding the SetBudget envelope so the job tier can
// continue the trace.
func TestTickEmitsCausalSpans(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 2000)
	reg := obs.NewRegistry()
	ring := obs.NewRing(128, "test")
	cfg.Metrics = reg
	cfg.Tracer = ring
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A raw peer that keeps whole envelopes, trace context included.
	a, b := net.Pipe()
	m.AttachConn(proto.NewConn(a))
	pc := proto.NewConn(b)
	if err := pc.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
		JobID: "tr-1", TypeName: "bt.D.81", Nodes: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	envs := make(chan proto.Envelope, 8)
	go func() {
		for {
			env, err := pc.Recv()
			if err != nil {
				return
			}
			envs <- env
		}
	}()
	waitFor(t, func() bool { return hasJob(m, "tr-1") })
	m.Tick()

	var env proto.Envelope
	select {
	case env = <-envs:
	case <-time.After(5 * time.Second):
		t.Fatal("no SetBudget received")
	}
	if env.Kind != proto.KindSetBudget {
		t.Fatalf("kind = %q", env.Kind)
	}
	if env.Trace == nil || !env.Trace.Valid() {
		t.Fatalf("SetBudget envelope carries no trace context: %+v", env.Trace)
	}

	var root, child map[string]any
	for _, e := range ring.Events() {
		if e.Type != obs.EvSpan {
			continue
		}
		switch e.Fields["name"] {
		case "rebudget":
			root = e.Fields
		case "set_budget":
			child = e.Fields
		}
	}
	if root == nil || child == nil {
		t.Fatalf("missing spans: root=%v child=%v", root, child)
	}
	if child["parent"] != root["span"] {
		t.Errorf("set_budget parent = %v, want rebudget span %v", child["parent"], root["span"])
	}
	if child["trace"] != root["trace"] {
		t.Errorf("trace IDs differ: %v vs %v", child["trace"], root["trace"])
	}
	if env.Trace.SpanID != child["span"] {
		t.Errorf("envelope span = %q, want set_budget span %v", env.Trace.SpanID, child["span"])
	}
	if env.Trace.RootStartUnixNano != t0.UnixNano() {
		t.Errorf("root_ns = %d, want rebudget start %d", env.Trace.RootStartUnixNano, t0.UnixNano())
	}

	// A model update echoing the decision context closes the loop: the
	// feedback histogram observes and the event names the trace.
	echo := *env.Trace
	update := proto.ModelUpdateFor("tr-1", workload.MustByName("bt").RelativeModel(), false)
	update.PowerWatts = 300
	update.TimestampUnixNano = time.Now().UnixNano()
	if err := pc.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update, Trace: &echo}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, e := range ring.Events() {
			if e.Type == obs.EvModelUpdate && e.Fields["trace"] == echo.TraceID {
				return true
			}
		}
		return false
	})
	if got := scrape(t, reg); !strings.Contains(got, "anord_decision_feedback_seconds_count 1") {
		t.Errorf("feedback latency histogram not observed:\n%s", got)
	}
	pc.Close()
}

func TestModelUpdateMetricsAndDisconnectCleanup(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 2000)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := attachFakeJob(t, m, "p", "bt.D.81", 2)
	update := proto.ModelUpdateFor("p", workload.MustByName("bt").RelativeModel(), false)
	update.PowerWatts = 400
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return reg.Counter("anord_model_updates_total", "").Value() == 1
	})
	if out := scrape(t, reg); !strings.Contains(out, `anord_job_measured_watts{job="p"} 400`) {
		t.Errorf("scrape missing job power series:\n%s", out)
	}

	// Disconnect must retire the per-job series so scrapes don't
	// accumulate stale jobs forever.
	j.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
	if got := reg.Gauge("anord_connected_endpoints", "").Value(); got != 0 {
		t.Errorf("connected_endpoints after drop = %v, want 0", got)
	}
	if out := scrape(t, reg); strings.Contains(out, `job="p"`) {
		t.Errorf("per-job series survived disconnect:\n%s", out)
	}
	_ = units.Power(0)
}
