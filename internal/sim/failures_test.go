package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// failureSchedule knocks out half the cluster mid-run and brings most of
// it back, leaving one node down at the horizon.
func failureSchedule() []faults.NodeEvent {
	events := []faults.NodeEvent{
		{At: 3 * time.Minute, Node: 0, Kind: faults.KindFail},
		{At: 3 * time.Minute, Node: 1, Kind: faults.KindFail},
		{At: 3 * time.Minute, Node: 2, Kind: faults.KindFail},
		{At: 3 * time.Minute, Node: 3, Kind: faults.KindFail},
		{At: 4 * time.Minute, Node: 8, Kind: faults.KindFail},
		{At: 4 * time.Minute, Node: 9, Kind: faults.KindFail},
		{At: 4 * time.Minute, Node: 10, Kind: faults.KindFail},
		{At: 4 * time.Minute, Node: 11, Kind: faults.KindFail},
		{At: 9 * time.Minute, Node: 0, Kind: faults.KindRecover},
		{At: 9 * time.Minute, Node: 1, Kind: faults.KindRecover},
		{At: 10 * time.Minute, Node: 2, Kind: faults.KindRecover},
		{At: 10 * time.Minute, Node: 8, Kind: faults.KindRecover},
		{At: 11 * time.Minute, Node: 9, Kind: faults.KindRecover},
		{At: 11 * time.Minute, Node: 10, Kind: faults.KindRecover},
		{At: 12 * time.Minute, Node: 11, Kind: faults.KindRecover},
	}
	return events
}

// TestFailureScheduleDeterminism is the failure layer's analogue of the
// observability determinism guard: failures apply at step start in
// schedule order, so repeated runs of one faulted configuration must be
// bit-identical.
func TestFailureScheduleDeterminism(t *testing.T) {
	mk := func() Config {
		cfg := smallConfig(t, 7, 0.1)
		cfg.Failures = failureSchedule()
		return cfg
	}
	base, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if base.Requeues == 0 {
		t.Fatal("failure schedule killed no running jobs; widen it")
	}
	got, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Error("repeated faulted runs differ")
	}
}

// TestFailuresChangeAndRequeue checks the fail-stop semantics: a fault
// run diverges from the fault-free run, requeued jobs keep their original
// submit time (QoS sojourn accounting), and the requeue count surfaces in
// the result.
func TestFailuresChangeAndRequeue(t *testing.T) {
	base, err := Run(smallConfig(t, 7, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, 7, 0.1)
	cfg.Failures = failureSchedule()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requeues == 0 {
		t.Fatal("no requeues recorded")
	}
	if base.Requeues != 0 {
		t.Fatalf("fault-free run recorded %d requeues", base.Requeues)
	}
	if reflect.DeepEqual(base.Tracking, got.Tracking) && base.QoS90 == got.QoS90 {
		t.Error("failure schedule left the simulation unchanged")
	}
}

// TestFailureMetrics asserts the failure layer's observable series.
func TestFailureMetrics(t *testing.T) {
	cfg := smallConfig(t, 7, 0.1)
	cfg.Failures = failureSchedule()
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Counter("sim_node_failures_total", "").Value(); got != 8 {
		t.Errorf("sim_node_failures_total = %d, want 8", got)
	}
	if got := cfg.Metrics.Counter("sim_node_recoveries_total", "").Value(); got != 7 {
		t.Errorf("sim_node_recoveries_total = %d, want 7", got)
	}
	if got := cfg.Metrics.Counter("sim_job_requeues_total", "").Value(); got != uint64(res.Requeues) {
		t.Errorf("sim_job_requeues_total = %d, want %d", got, res.Requeues)
	}
	// The schedule recovers 7 of the 8 failed nodes; node 3 stays down,
	// so the down gauge must read 1 at the horizon.
	if got := cfg.Metrics.Gauge("sim_down_nodes", "").Value(); got != 1 {
		t.Errorf("sim_down_nodes = %v at horizon, want 1", got)
	}
}

// TestPermanentFailureLeavesGaugeUp fails one node forever and checks the
// down gauge holds at the horizon.
func TestPermanentFailureLeavesGaugeUp(t *testing.T) {
	cfg := smallConfig(t, 3, 0)
	cfg.Failures = []faults.NodeEvent{{At: 2 * time.Minute, Node: 5, Kind: faults.KindFail}}
	cfg.Metrics = obs.NewRegistry()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Gauge("sim_down_nodes", "").Value(); got != 1 {
		t.Errorf("sim_down_nodes = %v, want 1", got)
	}
}

func TestFailureScheduleValidation(t *testing.T) {
	cases := map[string][]faults.NodeEvent{
		"node out of range": {{At: time.Minute, Node: 99, Kind: faults.KindFail}},
		"unknown kind":      {{At: time.Minute, Node: 1, Kind: "explode"}},
		"recover live node": {{At: time.Minute, Node: 1, Kind: faults.KindRecover}},
		"unsorted": {
			{At: 2 * time.Minute, Node: 1, Kind: faults.KindFail},
			{At: time.Minute, Node: 2, Kind: faults.KindFail},
		},
	}
	for name, events := range cases {
		cfg := smallConfig(t, 1, 0)
		cfg.Failures = events
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
