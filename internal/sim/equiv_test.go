package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/workload"
)

// outcome is everything the golden tests compare between Run and the
// reference engine: the Result, the TableLog byte stream, and the
// settled ledger snapshot.
type outcome struct {
	res  Result
	log  []byte
	snap ledger.Snapshot
}

// simulate runs cfg through engine with its own TableLog and ledger
// attached and requires the ledger to be conserved.
func simulate(cfg Config, engine func(Config) (Result, error)) (outcome, error) {
	var log bytes.Buffer
	led := ledger.New()
	cfg.TableLog, cfg.Ledger = &log, led
	res, err := engine(cfg)
	if err != nil {
		return outcome{}, err
	}
	snap := led.SnapshotAt(ledgerEndMs(res))
	if !snap.Conserved {
		return outcome{}, fmt.Errorf("ledger conservation broken: delta=%d µJ", snap.ConservationDeltaMicroJ)
	}
	return outcome{res, log.Bytes(), snap}, nil
}

// reference runs cfg through the reference engine and rejects a
// scenario in which no job completes.
func reference(t *testing.T, cfg Config) outcome {
	t.Helper()
	want, err := simulate(cfg, runReference)
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	if len(want.res.Jobs) == 0 {
		t.Fatal("degenerate scenario: no jobs completed")
	}
	return want
}

// requireSame reports every way got differs from the reference outcome.
func requireSame(t *testing.T, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Error("Result differs from reference engine")
	}
	if !bytes.Equal(got.log, want.log) {
		t.Error("TableLog byte stream differs from reference engine")
	}
	if !reflect.DeepEqual(got.snap, want.snap) {
		t.Error("ledger snapshot differs from reference engine")
	}
}

// requireConcurrentRunsMatch runs n copies of cfg through Run at once
// under GOMAXPROCS procs — the way a sweep runs cells that share one set
// of read-only inputs (types, arrivals, models, signal) — and requires
// each to reproduce want. The shardsN labels of the golden subtests
// name this run count: the node-table shard pool those labels once
// sized is gone, and the engine is serial within one run.
func requireConcurrentRunsMatch(t *testing.T, cfg Config, want outcome, procs, n int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	outs := make([]outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = simulate(cfg, Run)
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		requireSame(t, outs[i], want)
	}
}

type engineScenario struct {
	name   string
	config func() Config
}

// engineScenarios are the workload shapes of the golden grid: busy and
// idle-heavy, both capping policies, the feedback exemption, and
// stepped, fixed, and non-stepped targets.
func engineScenarios(t *testing.T) []engineScenario {
	models := map[string]perfmodel.Model{}
	for _, typ := range workload.LongRunning() {
		models[typ.Name] = typ.RelativeModel()
	}
	return []engineScenario{
		{"walk", func() Config { return smallConfig(t, 3, 0.15) }},
		{"fixed-target", func() Config {
			c := smallConfig(t, 5, 0.1)
			c.Bid.Reserve = 0
			c.Signal = dr.Constant(0.7)
			return c
		}},
		{"sine", func() Config {
			c := smallConfig(t, 7, 0.1)
			c.Signal = dr.Sine{Period: 3 * time.Minute, Amplitude: 0.8}
			return c
		}},
		{"budgeter", func() Config {
			c := smallConfig(t, 9, 0.1)
			c.Budgeter = budget.EvenSlowdown{}
			c.TypeModels = models
			c.DefaultModel = workload.LeastSensitive().RelativeModel()
			return c
		}},
		{"feedback", func() Config {
			c := smallConfig(t, 11, 0.1)
			c.Budgeter = budget.EvenSlowdown{}
			c.TypeModels = models
			c.DefaultModel = workload.LeastSensitive().RelativeModel()
			c.FeedbackQoSExempt = true
			c.QoSLimit = 0.5 // low enough that exemptions actually trip
			c.ExemptFraction = 0.5
			return c
		}},
		// Idle-heavy: the calendar must compose with the fast-forward
		// across long quiet gaps.
		{"sparse", func() Config { return sparseConfig(13) }},
		// Three- and six-node jobs: a fail-stop frees several surviving
		// nodes, whose free-list order decides where later jobs run.
		{"wide", func() Config {
			c := smallConfig(t, 17, 0.15)
			c.Types = append([]workload.Type(nil), c.Types...)
			for i := range c.Types {
				c.Types[i] = c.Types[i].Scale(3)
			}
			arrivals, err := schedule.Generate(schedule.Config{
				RNG: stats.NewRNG(17), Types: c.Types,
				Utilization: 0.75, TotalNodes: c.Nodes, Horizon: c.Horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Arrivals = arrivals
			return c
		}},
	}
}

type failureOverlay struct {
	name   string
	events []faults.NodeEvent
}

var failureOverlays = []failureOverlay{
	{"no-failures", nil},
	{"fail-stop", []faults.NodeEvent{
		{At: 3 * time.Minute, Node: 2, Kind: faults.KindFail},
		{At: 6 * time.Minute, Node: 7, Kind: faults.KindFail},
		{At: 9 * time.Minute, Node: 2, Kind: faults.KindRecover},
		{At: 12 * time.Minute, Node: 11, Kind: faults.KindFail},
		{At: 15 * time.Minute, Node: 7, Kind: faults.KindRecover},
		{At: 18 * time.Minute, Node: 11, Kind: faults.KindRecover},
	}},
	// One failure kills the sparse schedule's first job; a fail/recover
	// pair lands inside its idle gap, where the fast-forward must stop
	// at each event.
	{"in-gap", []faults.NodeEvent{
		{At: 10 * time.Second, Node: 0, Kind: faults.KindFail},
		{At: 8 * time.Minute, Node: 3, Kind: faults.KindFail},
		{At: 10 * time.Minute, Node: 3, Kind: faults.KindRecover},
		{At: 20 * time.Minute, Node: 0, Kind: faults.KindRecover},
	}},
}

// recapCadences are the stepped signal's periods, which set how often
// caps — and therefore calendar entries — are rebuilt.
var recapCadences = []struct {
	name   string
	period time.Duration
}{{"recap-2s", 2 * time.Second}, {"recap-8s", 8 * time.Second}}

// cellConfig is one golden-grid cell: the scenario with the failure
// overlay applied and, for stepped-walk signals, the recap cadence. The
// fixed and sine cells keep their signal and simply repeat.
func cellConfig(sc engineScenario, fo failureOverlay, period time.Duration) Config {
	cfg := sc.config()
	cfg.Failures = fo.events
	if _, stepped := cfg.Signal.(dr.Stepped); stepped {
		cfg.Signal = dr.NewRandomWalk(cfg.Seed, period, 0.25, time.Hour)
	}
	return cfg
}

// TestEngineMatchesReference is the golden guard for the engine: across
// every scenario, failure overlay, and recap cadence of the golden grid,
// Run must reproduce the naive reference engine exactly — deeply equal
// Result, byte-identical TableLog, and an equal, conserved energy
// ledger. The <mode>/seed/shards cells hold the three capping modes
// (AQA uniform, budgeter, budgeter with the feedback exemption) on
// further seeds, each with several concurrent runs.
func TestEngineMatchesReference(t *testing.T) {
	for _, sc := range engineScenarios(t) {
		for _, fo := range failureOverlays {
			for _, cad := range recapCadences {
				t.Run(fmt.Sprintf("%s/%s/%s", sc.name, fo.name, cad.name), func(t *testing.T) {
					cfg := cellConfig(sc, fo, cad.period)
					want := reference(t, cfg)
					// Every failure overlay must kill running jobs, except the
					// fail-stop one on the sparse schedule, whose events all
					// land between jobs.
					if fo.events != nil && want.res.Requeues == 0 && !(sc.name == "sparse" && fo.name == "fail-stop") {
						t.Fatal("failure schedule killed no running jobs; widen it")
					}
					got, err := simulate(cfg, Run)
					if err != nil {
						t.Fatal(err)
					}
					requireSame(t, got, want)
				})
			}
		}
	}

	models := map[string]perfmodel.Model{}
	for _, typ := range workload.LongRunning() {
		models[typ.Name] = typ.RelativeModel()
	}
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"aqa", func(c *Config) {}},
		{"budgeter", func(c *Config) {
			c.Budgeter = budget.EvenSlowdown{}
			c.TypeModels = models
			c.DefaultModel = workload.LeastSensitive().RelativeModel()
		}},
		{"budgeter-feedback", func(c *Config) {
			c.Budgeter = budget.EvenSlowdown{}
			c.TypeModels = models
			c.DefaultModel = workload.LeastSensitive().RelativeModel()
			c.FeedbackQoSExempt = true
			c.QoSLimit = 0.5
			c.ExemptFraction = 0.5
		}},
	}
	for _, mode := range modes {
		for _, seed := range []uint64{3, 7, 11} {
			cfg := smallConfig(t, seed, 0.15)
			cfg.Horizon = 10 * time.Minute
			mode.mutate(&cfg)
			var want outcome
			for _, runs := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/seed%d/shards%d", mode.name, seed, runs), func(t *testing.T) {
					if want.res.Tracking == nil {
						want = reference(t, cfg)
					}
					requireConcurrentRunsMatch(t, cfg, want, runtime.GOMAXPROCS(0), runs)
				})
			}
		}
	}
}

// TestCalendarMatchesPerStep holds the completion calendar to the
// reference engine's per-node, per-second progress under scheduling
// pressure: every busy scenario of the golden grid, with and without
// fail-stops, at both recap cadences, run at GOMAXPROCS 1 and 4 with 1,
// 3, and 8 concurrent runs sharing the cell's inputs.
func TestCalendarMatchesPerStep(t *testing.T) {
	for _, sc := range engineScenarios(t) {
		if sc.name == "wide" {
			continue
		}
		for _, fo := range failureOverlays[:2] {
			for _, cad := range recapCadences {
				cfg := cellConfig(sc, fo, cad.period)
				var want outcome
				for _, procs := range []int{1, 4} {
					for _, runs := range []int{1, 3, 8} {
						t.Run(fmt.Sprintf("%s/%s/%s/procs%d/shards%d", sc.name, fo.name, cad.name, procs, runs), func(t *testing.T) {
							if want.res.Tracking == nil {
								want = reference(t, cfg)
							}
							requireConcurrentRunsMatch(t, cfg, want, procs, runs)
						})
					}
				}
			}
		}
	}
}

// TestEventDrivenMatchesFullStepping holds the idle fast-forward to the
// reference engine, which steps and recomputes every second: on the
// idle-heavy schedule, across signal kinds (stepped walk, fixed target,
// non-stepped sine), failures inside the idle gap, the budgeter, and the
// feedback exemption, run at GOMAXPROCS 1 and 4 with 1, 3, and 8
// concurrent runs.
func TestEventDrivenMatchesFullStepping(t *testing.T) {
	models := map[string]perfmodel.Model{}
	for _, typ := range workload.LongRunning() {
		models[typ.Name] = typ.RelativeModel()
	}
	scenarios := []struct {
		name   string
		mutate func(*Config)
	}{
		{"sparse-walk", func(c *Config) {}},
		{"sparse-fixed-target", func(c *Config) {
			c.Bid.Reserve = 0
			c.Signal = dr.Constant(0.7) // irrelevant with zero reserve
		}},
		{"sparse-sine", func(c *Config) {
			// Sine is not a Stepped signal: no fast-forward, but the
			// skipped recomputations must stay exact.
			c.Signal = dr.Sine{Period: 3 * time.Minute, Amplitude: 0.8}
		}},
		{"sparse-failures", func(c *Config) { c.Failures = failureOverlays[2].events }},
		{"sparse-budgeter", func(c *Config) {
			c.Budgeter = budget.EvenSlowdown{}
			c.TypeModels = models
			c.DefaultModel = workload.LeastSensitive().RelativeModel()
		}},
		{"sparse-feedback", func(c *Config) {
			c.Budgeter = budget.EvenSlowdown{}
			c.TypeModels = models
			c.DefaultModel = workload.LeastSensitive().RelativeModel()
			c.FeedbackQoSExempt = true
			c.QoSLimit = 0.5
			c.ExemptFraction = 0.5
		}},
	}
	for _, sc := range scenarios {
		cfg := sparseConfig(9)
		sc.mutate(&cfg)
		var want outcome
		for _, procs := range []int{1, 4} {
			for _, runs := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/procs%d/shards%d", sc.name, procs, runs), func(t *testing.T) {
					if want.res.Tracking == nil {
						want = reference(t, cfg)
					}
					requireConcurrentRunsMatch(t, cfg, want, procs, runs)
				})
			}
		}
	}
}
