package sim

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// smallConfig builds a 16-node simulation with a modest schedule.
func smallConfig(t *testing.T, seed uint64, variation float64) Config {
	t.Helper()
	types := workload.LongRunning()
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(seed), Types: types,
		Utilization: 0.75, TotalNodes: 16, Horizon: 20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]float64{}
	for _, typ := range types {
		weights[typ.Name] = 1
	}
	return Config{
		Nodes:        16,
		Types:        types,
		Weights:      weights,
		Arrivals:     arrivals,
		Bid:          dr.Bid{AvgPower: 16 * 180, Reserve: 16 * 60},
		Signal:       dr.NewRandomWalk(seed, 4*time.Second, 0.25, time.Hour),
		Horizon:      20 * time.Minute,
		Seed:         seed,
		VariationStd: variation,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(smallConfig(t, 1, 0)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{
			name:    "zero nodes",
			mutate:  func(c *Config) { c.Nodes = 0 },
			wantErr: "positive node count",
		},
		{
			name:    "negative nodes",
			mutate:  func(c *Config) { c.Nodes = -8 },
			wantErr: "positive node count",
		},
		{
			name:    "nil signal",
			mutate:  func(c *Config) { c.Signal = nil },
			wantErr: "bid and signal",
		},
		{
			name:    "invalid bid",
			mutate:  func(c *Config) { c.Bid = dr.Bid{} },
			wantErr: "bid and signal",
		},
		{
			name:    "zero horizon",
			mutate:  func(c *Config) { c.Horizon = 0 },
			wantErr: "horizon",
		},
		{
			name: "unknown arrival type",
			mutate: func(c *Config) {
				c.Arrivals = []schedule.Arrival{{JobID: "x", TypeName: "nope"}}
			},
			wantErr: "unknown type",
		},
		{
			name: "arrival wider than cluster",
			mutate: func(c *Config) {
				wide := c.Types[0]
				wide.Nodes = c.Nodes + 1
				c.Types = append([]workload.Type(nil), c.Types...)
				c.Types[0] = wide
				c.Arrivals = []schedule.Arrival{{JobID: "wide", TypeName: wide.Name}}
			},
			wantErr: "can never start",
		},
		{
			name: "arrivals not sorted by At",
			mutate: func(c *Config) {
				c.Arrivals = []schedule.Arrival{
					{At: 90 * time.Second, JobID: "late", TypeName: c.Types[0].Name},
					{At: 30 * time.Second, JobID: "early", TypeName: c.Types[0].Name},
				}
			},
			wantErr: "not sorted by At",
		},
		{
			name: "budgeter without default model",
			mutate: func(c *Config) {
				c.Budgeter = budget.EvenSlowdown{}
				c.DefaultModel = perfmodel.Model{}
			},
			wantErr: "default model",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(t, 1, 0)
			tc.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestShardedRunMatchesSerial forces intra-step sharding on a small
// cluster and requires results bit-identical to the serial loop for every
// shard count — the invariant that lets large simulations fan the node
// table out across cores without changing any published number.
func TestShardedRunMatchesSerial(t *testing.T) {
	base := smallConfig(t, 6, 0.15)
	base.Nodes = 64
	base.Shards = 1
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(6), Types: base.Types,
		Utilization: 0.8, TotalNodes: base.Nodes, Horizon: base.Horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	base.Arrivals = arrivals
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 7, 64, 1000} {
		cfg := base
		cfg.Shards = shards
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("shards=%d: result differs from serial run", shards)
		}
	}
}

func TestRunCompletesJobs(t *testing.T) {
	res, err := Run(smallConfig(t, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs completed")
	}
	if res.Unfinished != 0 {
		t.Errorf("unfinished jobs after drain: %d", res.Unfinished)
	}
	for _, j := range res.Jobs {
		if j.Start < j.Submit || j.End <= j.Start {
			t.Errorf("%s: bad lifecycle %v/%v/%v", j.ID, j.Submit, j.Start, j.End)
		}
		if j.QoS < 0 {
			t.Errorf("%s: negative QoS %v", j.ID, j.QoS)
		}
	}
	if res.MeanUtilization <= 0.2 || res.MeanUtilization > 1 {
		t.Errorf("utilization = %v", res.MeanUtilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(t, 3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(t, 3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if a.QoS90 != b.QoS90 || len(a.Jobs) != len(b.Jobs) || a.AvgPower != b.AvgPower {
		t.Errorf("same seed runs differ: %v/%v, %d/%d", a.QoS90, b.QoS90, len(a.Jobs), len(b.Jobs))
	}
}

func TestUncappedJobRunsAtBaseTime(t *testing.T) {
	// One job, huge power target: execution time equals BaseSeconds
	// exactly (a whole number of seconds; see
	// TestIntegralBaseSecondsFinishExactly).
	typ := workload.MustByName("mg")
	cfg := Config{
		Nodes: 4, Types: []workload.Type{typ},
		Arrivals: []schedule.Arrival{{At: 0, JobID: "solo", TypeName: typ.Name, ClaimedType: typ.Name}},
		Bid:      dr.Bid{AvgPower: 4 * 280, Reserve: 1},
		Signal:   dr.Constant(0),
		Horizon:  10 * time.Minute,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	exec := (res.Jobs[0].End - res.Jobs[0].Start).Seconds()
	if exec != typ.BaseSeconds {
		t.Errorf("exec = %v s, want %v", exec, typ.BaseSeconds)
	}
}

func TestCappedJobSlowsPerLinearModel(t *testing.T) {
	// Cap the cluster at the minimum: execution time ≈ BaseSeconds ×
	// MaxSlowdown.
	typ := workload.MustByName("bt")
	cfg := Config{
		Nodes: 2, Types: []workload.Type{typ},
		Arrivals: []schedule.Arrival{{At: 0, JobID: "solo", TypeName: typ.Name, ClaimedType: typ.Name}},
		Bid:      dr.Bid{AvgPower: 2 * 140, Reserve: 1},
		Signal:   dr.Constant(0),
		Horizon:  30 * time.Minute,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs = %d (unfinished %d)", len(res.Jobs), res.Unfinished)
	}
	exec := (res.Jobs[0].End - res.Jobs[0].Start).Seconds()
	want := typ.BaseSeconds * typ.MaxSlowdown
	if math.Abs(exec-want) > 0.02*want {
		t.Errorf("capped exec = %v s, want ≈%v", exec, want)
	}
}

func TestVariationSlowsMultiNodeJobs(t *testing.T) {
	// A multi-node job finishes when its slowest node finishes, so
	// variation increases completion time on average (§6.4).
	mean := func(variation float64) float64 {
		var total float64
		const trials = 5
		for s := uint64(0); s < trials; s++ {
			typ := workload.MustByName("ft") // 2 nodes
			cfg := Config{
				Nodes: 2, Types: []workload.Type{typ},
				Arrivals:     []schedule.Arrival{{At: 0, JobID: "v", TypeName: typ.Name, ClaimedType: typ.Name}},
				Bid:          dr.Bid{AvgPower: 2 * 280, Reserve: 1},
				Signal:       dr.Constant(0),
				Horizon:      time.Hour,
				Seed:         s,
				VariationStd: variation,
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != 1 {
				t.Fatalf("jobs = %d", len(res.Jobs))
			}
			total += (res.Jobs[0].End - res.Jobs[0].Start).Seconds()
		}
		return total / trials
	}
	base := mean(0)
	varied := mean(0.15)
	if varied <= base {
		t.Errorf("variation did not slow multi-node job: %v vs %v", varied, base)
	}
}

func TestQoSIncreasesWithVariation(t *testing.T) {
	// The Fig. 11 trend: more performance variation, more QoS degradation.
	q := func(variation float64) float64 {
		cfg := smallConfig(t, 7, variation)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.QoS90
	}
	low, high := q(0), q(0.225)
	if high < low {
		t.Errorf("QoS90 did not grow with variation: %v → %v", low, high)
	}
}

func TestTrackingFollowsTarget(t *testing.T) {
	cfg := smallConfig(t, 4, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackSummary.Points == 0 {
		t.Fatal("no tracking points")
	}
	// With a 75%-utilization schedule the cluster should track reasonably:
	// 90th percentile error within the 30% constraint.
	if res.TrackSummary.P90Err > 0.5 {
		t.Errorf("P90 tracking error = %v", res.TrackSummary.P90Err)
	}
}

func TestBudgeterModeUsesBelievedModels(t *testing.T) {
	// Two jobs, BT and SP, even-slowdown budgeter with correct models:
	// BT should receive a higher cap (observable via faster completion
	// than under uniform capping).
	types := []workload.Type{workload.MustByName("bt"), workload.MustByName("sp")}
	models := map[string]perfmodel.Model{}
	for _, typ := range types {
		models[typ.Name] = typ.RelativeModel()
	}
	arrivals := []schedule.Arrival{
		{At: 0, JobID: "bt-0", TypeName: "bt.D.81", ClaimedType: "bt.D.81"},
		{At: 0, JobID: "sp-0", TypeName: "sp.D.81", ClaimedType: "sp.D.81"},
	}
	base := Config{
		Nodes: 4, Types: types, Arrivals: arrivals,
		Bid:     dr.Bid{AvgPower: 4 * 210, Reserve: 1}, // 75% of TDP as in §6.2
		Signal:  dr.Constant(0),
		Horizon: 30 * time.Minute,
	}
	uniform, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	aware := base
	aware.Budgeter = budget.EvenSlowdown{}
	aware.TypeModels = models
	aware.DefaultModel = workload.LeastSensitive().RelativeModel()
	awareRes, err := Run(aware)
	if err != nil {
		t.Fatal(err)
	}
	btExec := func(r Result) float64 {
		for _, j := range r.Jobs {
			if j.TypeName == "bt.D.81" {
				return (j.End - j.Start).Seconds()
			}
		}
		t.Fatal("bt job missing")
		return 0
	}
	if btExec(awareRes) >= btExec(uniform) {
		t.Errorf("performance-aware budgeter did not speed up BT: %v vs %v",
			btExec(awareRes), btExec(uniform))
	}
}

func TestFeedbackExemptionSparesAtRiskJobs(t *testing.T) {
	// Make the budget so tight that QoS degrades; with exemption on,
	// at-risk jobs get TDP so their caps rise.
	types := []workload.Type{workload.MustByName("bt")}
	arrivals := []schedule.Arrival{
		{At: 0, JobID: "a", TypeName: "bt.D.81", ClaimedType: "bt.D.81"},
	}
	cfg := Config{
		Nodes: 2, Types: types, Arrivals: arrivals,
		Bid:               dr.Bid{AvgPower: 2 * 140, Reserve: 1},
		Signal:            dr.Constant(0),
		Horizon:           time.Hour,
		FeedbackQoSExempt: true,
		QoSLimit:          0.3, // trip the at-risk threshold quickly
		ExemptFraction:    0.5,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noFb := cfg
	noFb.FeedbackQoSExempt = false
	resNo, err := Run(noFb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || len(resNo.Jobs) != 1 {
		t.Fatalf("jobs: %d/%d", len(res.Jobs), len(resNo.Jobs))
	}
	if res.Jobs[0].QoS >= resNo.Jobs[0].QoS {
		t.Errorf("exemption did not reduce QoS: %v vs %v", res.Jobs[0].QoS, resNo.Jobs[0].QoS)
	}
}

func TestMeasuredPowerAccountsIdleNodes(t *testing.T) {
	// Empty cluster: measured power is nodes × idle.
	cfg := Config{
		Nodes: 10, Types: workload.LongRunning(),
		Bid:     dr.Bid{AvgPower: 1000, Reserve: 100},
		Signal:  dr.Constant(0),
		Horizon: 10 * time.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Tracking {
		if p.Measured != 700 {
			t.Fatalf("idle measured = %v, want 700", p.Measured)
		}
	}
}

func TestTableLogWritesRows(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallConfig(t, 5, 0)
	cfg.Horizon = time.Minute
	cfg.Arrivals = nil
	cfg.TableLog = &buf
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 60 {
		t.Fatalf("table log rows = %d, want ≥ 60", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_s,running,queued") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestProgressRateEndpoints(t *testing.T) {
	typ := workload.MustByName("bt")
	fast := progressRate(&typ, typ.PMax)
	slow := progressRate(&typ, typ.PMin)
	if math.Abs(1/fast-typ.BaseSeconds) > 1e-9 {
		t.Errorf("fast rate inverse = %v", 1/fast)
	}
	if math.Abs(1/slow-typ.BaseSeconds*typ.MaxSlowdown) > 1e-9 {
		t.Errorf("slow rate inverse = %v", 1/slow)
	}
	if progressRate(&typ, units.Power(1000)) != fast {
		t.Error("above PMax not clamped")
	}
	if progressRate(&typ, units.Power(10)) != slow {
		t.Error("below PMin not clamped")
	}
	mid := progressRate(&typ, (typ.PMin+typ.PMax)/2)
	if math.Abs(mid-(fast+slow)/2) > 1e-12 {
		t.Errorf("midpoint rate not linear: %v vs %v", mid, (fast+slow)/2)
	}
}

func Test1000NodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node simulation in -short mode")
	}
	types := make([]workload.Type, 0, 6)
	for _, typ := range workload.LongRunning() {
		types = append(types, typ.Scale(25)) // §6.4: 25× node counts
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(11), Types: types,
		Utilization: 0.75, TotalNodes: 1000, Horizon: 15 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Nodes: 1000, Types: types, Arrivals: arrivals,
		Bid:          dr.Bid{AvgPower: 1000 * 180, Reserve: 1000 * 50},
		Signal:       dr.NewRandomWalk(11, 4*time.Second, 0.25, time.Hour),
		Horizon:      15 * time.Minute,
		Seed:         11,
		VariationStd: 0.075,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Error("no jobs completed at 1000-node scale")
	}
	if res.TrackSummary.Points == 0 {
		t.Error("no tracking data")
	}
}
