package sim

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/dr"
	"repro/internal/ledger"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestMeasureMatchesNaivePerNodeSum holds the O(running jobs)
// measurement to a naive walk of the node table: over random clusters
// with random memberships, down nodes, caps above and below each type's
// uncapped draw, and stale freed job slots, counting every node where
// the node table says it is and summing the same milliwatt rates (each
// job's settled power × the nodes it holds, idle nodes at the idle
// power, down nodes at nothing) must give exactly the measured power
// and busy count.
func TestMeasureMatchesNaivePerNodeSum(t *testing.T) {
	rng := stats.NewRNG(29)
	types := workload.LongRunning()
	for trial := 0; trial < 300; trial++ {
		nodes := 1 + rng.Intn(400)
		e := &engine{
			cfg:     Config{IdlePower: units.Power(rng.Uniform(40, 90))},
			nodeJob: make([]int32, nodes),
		}
		for i := range e.nodeJob {
			e.nodeJob[i] = idleNode
		}
		perm := rng.Perm(nodes)
		next := 0
		for next < len(perm) && rng.Float64() < 0.9 {
			rj := runningJob{
				typ: types[rng.Intn(len(types))],
				cap: units.Power(rng.Uniform(130, 290)),
			}
			slot := int32(len(e.jobs))
			for k := 1 + rng.Intn(8); k > 0 && next < len(perm); k-- {
				rj.nodes = append(rj.nodes, int32(perm[next]))
				e.nodeJob[perm[next]] = slot
				next++
			}
			e.jobs = append(e.jobs, rj)
			if rng.Float64() < 0.2 {
				// A freed slot: its job left, its nodes went back to idle,
				// and its stale table entry must not be counted.
				for _, ni := range rj.nodes {
					e.nodeJob[ni] = idleNode
				}
				continue
			}
			e.order = append(e.order, slot)
		}
		for ; next < len(perm); next++ {
			if rng.Float64() < 0.3 {
				e.nodeJob[perm[next]] = downNode
				e.down++
			}
		}

		count := make([]int, len(e.jobs))
		idle, busy := 0, 0
		for _, v := range e.nodeJob {
			switch {
			case v == idleNode:
				idle++
			case v >= 0:
				count[v]++
				busy++
			}
		}
		want := int64(idle) * ledger.MilliWatts(e.cfg.IdlePower.Watts())
		for slot, n := range count {
			if n > 0 {
				rj := e.jobs[slot]
				want += ledger.MilliWatts(min(rj.cap, rj.typ.PMax).Watts() * float64(n))
			}
		}
		if got := e.measure(); got != units.Power(float64(want)/1e3) || e.measuredBusy != busy {
			t.Fatalf("trial %d: measure = %v W busy %d, naive per-node sum %d mW busy %d",
				trial, got, e.measuredBusy, want, busy)
		}
	}
}

// TestTelemetryRecordsVirtualTimeSeries checks the retained series'
// shape on an idle-heavy run, so fast-forwarded seconds are covered
// alongside stepped ones: one sample per simulated second stamped in
// virtual time, measured power matching the run's Tracking series, and
// busy nodes, running jobs, and queued jobs matching the TableLog row of
// the same second.
func TestTelemetryRecordsVirtualTimeSeries(t *testing.T) {
	cfg := sparseConfig(7)
	st := telemetry.NewStore(telemetry.Resolution{Step: 1, Buckets: 1 << 16}, telemetry.Resolution{Step: 60, Buckets: 1 << 10})
	cfg.Telemetry = st
	var log bytes.Buffer
	cfg.TableLog = &log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSeriesMatchRows(t, st, res, log.Bytes())
}

// TestTelemetryEventDrivenMatchesFullStepping holds the series of a run
// that fast-forwards long quiet gaps to the rows of the reference
// engine, which steps and emits every second.
func TestTelemetryEventDrivenMatchesFullStepping(t *testing.T) {
	types := workload.LongRunning()
	arrivals := []schedule.Arrival{
		{JobID: "a", TypeName: types[0].Name, ClaimedType: types[0].Name, At: 0},
		{JobID: "b", TypeName: types[0].Name, ClaimedType: types[0].Name, At: 8 * time.Minute},
	}
	cfg := Config{
		Nodes: 32, Types: types, Arrivals: arrivals,
		Bid:     dr.Bid{AvgPower: 32 * 180},
		Signal:  dr.Constant(0),
		Horizon: 10 * time.Minute,
		Seed:    5,
	}
	want := reference(t, cfg)
	st := telemetry.NewStore(telemetry.Resolution{Step: 1, Buckets: 1 << 16}, telemetry.Resolution{Step: 10, Buckets: 1 << 12})
	cfg.Telemetry = st
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	requireSeriesMatchRows(t, st, want.res, want.log)
}

// requireSeriesMatchRows checks the retained per-second series against
// a run's output: one sample per simulated second stamped in virtual
// time, measured and target power matching the Tracking series, and
// running jobs, queued jobs, and busy nodes matching the TableLog row of
// the same second.
func requireSeriesMatchRows(t *testing.T, st *telemetry.Store, res Result, log []byte) {
	t.Helper()
	pts := st.Series("sim_power_measured_watts").Snapshot(1, 0)
	if len(pts) != len(res.Tracking) {
		t.Fatalf("telemetry has %d samples, tracking has %d rows", len(pts), len(res.Tracking))
	}
	targets := st.Series("sim_power_target_watts").Snapshot(1, 0)
	if len(targets) != len(res.Tracking) {
		t.Fatalf("series sim_power_target_watts has %d samples, want %d", len(targets), len(res.Tracking))
	}
	for i, p := range pts {
		want := res.Tracking[i]
		if p.T != want.Time.Unix() {
			t.Fatalf("sample %d stamped %d, want virtual time %d", i, p.T, want.Time.Unix())
		}
		if p.Last != want.Measured.Watts() {
			t.Fatalf("sample %d = %v W, want %v W", i, p.Last, want.Measured.Watts())
		}
		if p.Count != 1 {
			t.Fatalf("sample %d count = %d, want exactly one record per simulated second", i, p.Count)
		}
		if targets[i].Last != want.Target.Watts() {
			t.Fatalf("target sample %d = %v W, want %v W", i, targets[i].Last, want.Target.Watts())
		}
	}
	rows, err := csv.NewReader(bytes.NewReader(log)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows = rows[1:] // header
	for col, name := range map[int]string{1: "sim_running_jobs", 2: "sim_queued_jobs", 3: "sim_busy_nodes"} {
		series := st.Series(name).Snapshot(1, 0)
		if len(series) != len(rows) {
			t.Fatalf("series %s has %d samples, TableLog %d rows", name, len(series), len(rows))
		}
		for i, p := range series {
			if want, _ := strconv.ParseFloat(rows[i][col], 64); p.Last != want {
				t.Fatalf("series %s second %s = %v, TableLog row says %v", name, rows[i][0], p.Last, want)
			}
		}
	}
}

// TestTelemetryAllocsPerStep proves telemetry-enabled stepping stays ≈0
// allocations per step — retained telemetry must be cheap enough to
// leave on for million-step policy sweeps. The name matches the CI
// perf-gate filter (AllocsPerStep) so regressions fail every pull
// request. The store and its flight recorder are created once outside
// the measured loop, mirroring how a daemon or sweep would hold them.
func TestTelemetryAllocsPerStep(t *testing.T) {
	allocsAt := func(h time.Duration) float64 {
		cfg := steadyConfig(h, true)
		st := telemetry.NewStore()
		cfg.Telemetry = st
		rec := telemetry.NewRecorder(&bytes.Buffer{})
		st.SetRecorder(rec)
		if _, err := Run(cfg); err != nil { // warm up series + ring allocation
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	shortH, longH := 30*time.Second, 120*time.Second
	short, long := allocsAt(shortH), allocsAt(longH)
	extraSteps := float64((4*120 + 1) - (4*30 + 1))
	marginal := (long - short) / extraSteps
	t.Logf("allocs: %v (short) → %v (long), %.4f per telemetry-enabled step", short, long, marginal)
	if marginal > 0.5 {
		t.Errorf("telemetry-enabled stepping = %.3f allocs per step, want ~0 (≤0.5)", marginal)
	}
}

// TestTelemetryOffIsBitIdenticalToSeed pins that a telemetry-less config
// still produces byte-identical results to one that never heard of the
// field. The deep-equal against a second bare run guards against any
// hidden global state; the cross-check against a telemetry-enabled run
// guards the observational contract.
func TestTelemetryOffIsBitIdenticalToSeed(t *testing.T) {
	a, err := Run(smallConfig(t, 11, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(t, 11, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical bare runs diverge")
	}
	cfg := smallConfig(t, 11, 0.1)
	cfg.Telemetry = telemetry.NewStore()
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("enabling telemetry changed the simulation result")
	}
}
