package main

// The harness's own list of what it measures. BENCHMARK.json at the
// repository root repeats the names, units, directions and bounds for the
// driver; a test holds the two lists equal.

// metricDef names one metric. README.md says which end-to-end metric each
// per-layer metric should move, and on which workload.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEnd = []metricDef{
	{name: "enforce_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "feedback_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "job_cycles_per_s", unit: "1/s", better: "higher", bound: 0.10},
	{name: "recover_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "sim_steps_per_s", unit: "1/s", better: "higher", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "clustermgr.tick_ms", unit: "ms", better: "lower"},
	{name: "clustermgr.tick_us_per_job", unit: "us", better: "lower"},
	{name: "budget.allocate_us", unit: "us", better: "lower"},
	{name: "budget.allocate_into_us", unit: "us", better: "lower"},
	{name: "proto.send_us", unit: "us", better: "lower"},
	{name: "proto.recv_us", unit: "us", better: "lower"},
	{name: "proto.send_allocs", unit: "count", better: "lower"},
	{name: "proto.recv_allocs", unit: "count", better: "lower"},
	{name: "proto.setbudget_bytes", unit: "bytes", better: "lower"},
	{name: "proto.modelupdate_bytes", unit: "bytes", better: "lower"},
	{name: "proto.writes_per_frame", unit: "count", better: "lower"},
	{name: "proto.wire_bytes_per_cycle", unit: "bytes", better: "lower"},
	{name: "endpointd.apply_lag_ms", unit: "ms", better: "lower"},
	{name: "geopm.tick_ms", unit: "ms", better: "lower"},
	{name: "geopm.tick_ns_per_node", unit: "ns", better: "lower"},
	{name: "geopm.enforce_ns", unit: "ns", better: "lower"},
	{name: "geopm.sample_ns", unit: "ns", better: "lower"},
	{name: "modeler.observe_us_h100", unit: "us", better: "lower"},
	{name: "modeler.observe_us_h10k", unit: "us", better: "lower"},
	{name: "cycle.feedback_drift", unit: "ratio", better: "lower"},
	{name: "cycle.enforce_p95_ms", unit: "ms", better: "lower"},
	{name: "cycle.feedback_p95_ms", unit: "ms", better: "lower"},
	{name: "durable.append_us", unit: "us", better: "lower"},
	{name: "durable.flush_ms", unit: "ms", better: "lower"},
	{name: "durable.wal_appends_per_cycle", unit: "count", better: "lower"},
	{name: "durable.wal_bytes_per_cycle", unit: "bytes", better: "lower"},
	{name: "durable.syncs_per_cycle", unit: "count", better: "lower"},
	{name: "durable.replay_ms", unit: "ms", better: "lower"},
	{name: "durable.replay_records_per_s", unit: "1/s", better: "higher"},
	{name: "durable.state_bytes", unit: "bytes", better: "lower"},
	{name: "clustermgr.adopt_ms", unit: "ms", better: "lower"},
	{name: "clustermgr.attach_us_per_job", unit: "us", better: "lower"},
	{name: "clustermgr.control_state_ms", unit: "ms", better: "lower"},
	{name: "ledger.set_power_ns", unit: "ns", better: "lower"},
	{name: "telemetry.record_ns", unit: "ns", better: "lower"},
	{name: "obs.expose_ms", unit: "ms", better: "lower"},
	{name: "tracein.rows_per_s", unit: "1/s", better: "higher"},
	{name: "sim.us_per_step", unit: "us", better: "lower"},
	{name: "sim.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "sim.allocs_per_step", unit: "count", better: "lower"},
	{name: "sim.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "sim.steps_per_s_procs1", unit: "1/s", better: "higher"},
	{name: "sim.shard_speedup", unit: "ratio", better: "higher"},
	{name: "proc.allocs_per_cap", unit: "count", better: "lower"},
	{name: "proc.bytes_per_cap", unit: "bytes", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.goroutines", unit: "count", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// section names the three parts every run has.
type section int

const (
	secCtrl section = iota
	secRecover
	secSim
)

// workloadDef sizes one workload. Every run measures all three sections,
// because the driver wants every metric from every run; focus is the
// section that runs at scale for the whole --seconds, and the other two
// run at the fixed reference size (see plan in run.go).
type workloadDef struct {
	name, why string
	focus     section
	fleet     fleetShape // ctrl or recover fleet when in focus
	sim       simShape   // trace when in focus
	warmup    int        // ctrl warm-up cycles when in focus
}

var workloads = []workloadDef{
	{name: "cycle-1k", focus: secCtrl, fleet: fleetShape{1000, 4}, warmup: 20,
		why: "1000 jobs x 4 nodes: per-job costs dominate (snapshot, Allocate, JSON frames, WAL records, ledger, metric labels); geopm does little"},
	{name: "cycle-16", focus: secCtrl, fleet: testbedShape, warmup: 100,
		why: "the paper's 16-node testbed, ten jobs: per-job costs vanish, fixed per-message latency and the fsync batch dominate; predicts no change for batching work"},
	{name: "cycle-wide", focus: secCtrl, fleet: fleetShape{4, 1024}, warmup: 50,
		why: "4 jobs x 1024 nodes: agent-tree fan-out, register writes and per-node sampling are nearly all of enforce; the cluster tier is negligible"},
	{name: "recover-1k", focus: secRecover, fleet: fleetShape{1000, 4},
		why: "crash recovery of the cycle-1k fleet: WAL replay, then 1000 sessions re-adopted; the durable read path beside cycle-1k's write path"},
	{name: "sim-trace", focus: secSim, sim: simShape{tiles: 8, copies: 8},
		why: "SDSC-SP2-style trace, 16384 jobs on 40960 nodes, uniform caps: per-job engine work and the auto-enabled shard pool dominate"},
	{name: "sim-policy", focus: secSim, sim: simShape{tiles: 8, copies: 1, policy: true},
		why: "same trace, 2048 jobs on 5120 nodes under EvenSlowdown: the budgeter's slice path is most of the run, beside cycle-1k's map path"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Seeds: the default for day-to-day runs, and one held out. A change that
// claims a gain must also hold on heldOutSeed, which must not be used
// while tuning.
const (
	defaultSeed = 1
	heldOutSeed = 7
)
