package geopm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// TestRuntimeFanoutContinuesCausalTrace checks the bottom hop of the
// chain: a traced policy read from the mailbox yields a cap_fanout span
// that is a child of the policy's context, and the decision-to-enforce
// histogram observes the propagated root timestamp.
func TestRuntimeFanoutContinuesCausalTrace(t *testing.T) {
	v := clock.NewVirtual(t0)
	pios := []*PlatformIO{newPIO(v, 0), newPIO(v, 1)}
	ep := NewEndpoint()
	ring := obs.NewRing(64, "test")
	reg := obs.NewRegistry()
	rt, err := NewRuntime(RuntimeConfig{
		JobID: "jx", PIOs: pios, Endpoint: ep, Clock: v, Period: time.Second,
		Tracer: ring, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	defer stop()

	waitSampleSeq(t, v, ep, time.Second, 1)
	parent := obs.TraceContext{
		TraceID:           "cafecafecafecafecafecafecafecafe",
		SpanID:            "1122334455667788",
		RootStartUnixNano: time.Now().Add(-2 * time.Second).UnixNano(),
	}
	ep.WritePolicy(Policy{PowerCap: 165, Trace: parent})
	waitSampleSeq(t, v, ep, time.Second, 3)

	var fan map[string]any
	for _, e := range ring.Events() {
		if e.Type == obs.EvSpan && e.Fields["name"] == "cap_fanout" {
			fan = e.Fields
		}
	}
	if fan == nil {
		t.Fatal("no cap_fanout span emitted")
	}
	if fan["parent"] != parent.SpanID || fan["trace"] != parent.TraceID {
		t.Errorf("cap_fanout parent=%v trace=%v, want %q/%q",
			fan["parent"], fan["trace"], parent.SpanID, parent.TraceID)
	}
	if fan["nodes"] != 2 || fan["cap_w"] != 165.0 {
		t.Errorf("cap_fanout nodes = %v cap_w = %v, want 2 and 165", fan["nodes"], fan["cap_w"])
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `geopm_decision_to_enforce_seconds_count{job="jx"} 1`) {
		t.Errorf("decision-to-enforce histogram not observed:\n%s", sb.String())
	}
}

// TestRuntimeUntracedPolicyEmitsNoSpanLinkage: a policy without context
// still fans out and emits events, just without trace linkage.
func TestRuntimeUntracedPolicyEmitsNoSpanLinkage(t *testing.T) {
	v := clock.NewVirtual(t0)
	ep := NewEndpoint()
	ring := obs.NewRing(64, "test")
	rt, err := NewRuntime(RuntimeConfig{
		JobID: "ju", PIOs: []*PlatformIO{newPIO(v, 0)}, Endpoint: ep,
		Clock: v, Period: time.Second, Tracer: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := startRuntime(t, rt)
	defer stop()

	waitSampleSeq(t, v, ep, time.Second, 1)
	ep.WritePolicy(Policy{PowerCap: 140})
	waitSampleSeq(t, v, ep, time.Second, 3)

	for _, e := range ring.Events() {
		if e.Type == obs.EvSpan && e.Fields["name"] == "cap_fanout" {
			if p, ok := e.Fields["parent"]; ok {
				t.Errorf("untraced fan-out has parent %v", p)
			}
			return
		}
	}
	t.Fatal("no cap_fanout span emitted")
}
