package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dr"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestObservabilityPreservesDeterminism is the determinism guard for
// the observability layer: a simulation with metrics, tracing, progress
// counting, and telemetry enabled must produce bit-identical results to
// the bare run. Observability reads simulation state; it must never
// participate in it.
func TestObservabilityPreservesDeterminism(t *testing.T) {
	base, err := Run(smallConfig(t, 7, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, 7, 0.1)
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewRing(256, "guard")
	cfg.TraceEvery = 1
	cfg.Progress = obs.NewCounter()
	cfg.RunID = "guard"
	cfg.Telemetry = telemetry.NewStore()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Error("observability changed the simulation result")
	}
	if pts := cfg.Telemetry.Series("sim_power_measured_watts").Snapshot(0, 0); len(pts) == 0 {
		t.Error("telemetry store retained no power series")
	}
	if cfg.Progress.Value() == 0 {
		t.Error("progress counter never advanced")
	}
	if cfg.Metrics.Counter("sim_steps_total", "").Value() != cfg.Progress.Value() {
		t.Errorf("steps metric %d != progress %d",
			cfg.Metrics.Counter("sim_steps_total", "").Value(), cfg.Progress.Value())
	}
	if cfg.Tracer.Count() == 0 {
		t.Error("tracer saw no sim_step events")
	}
	spans := 0
	for _, e := range cfg.Tracer.Events() {
		if e.Type == obs.EvSpan {
			spans++
		}
	}
	if spans == 0 {
		t.Error("tracer saw no span events")
	}
}

// TestSimStepEvents checks the emitted event shape: virtual timestamps,
// the configured run ID, and the TraceEvery cadence.
func TestSimStepEvents(t *testing.T) {
	cfg := smallConfig(t, 3, 0)
	tr := obs.NewRing(4096, "")
	cfg.Tracer = tr
	cfg.TraceEvery = 30
	cfg.RunID = "run7"
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events emitted")
	}
	steps, spans := 0, 0
	for i, e := range evs {
		switch e.Type {
		case obs.EvSimStep:
			steps++
			if e.Run != "run7" {
				t.Fatalf("event %d run = %q, want run7", i, e.Run)
			}
			ts := time.Unix(0, e.TimeUnixNano).UTC()
			if sec := int(ts.Sub(simEpoch) / time.Second); sec%30 != 0 {
				t.Fatalf("event %d at sim second %d, want multiples of 30", i, sec)
			}
		case obs.EvSpan:
			spans++
			if name, _ := e.Fields["name"].(string); name != "sim_recap" {
				t.Fatalf("event %d span name = %v, want sim_recap", i, e.Fields["name"])
			}
		default:
			t.Fatalf("event %d type = %q", i, e.Type)
		}
	}
	if steps == 0 || spans == 0 {
		t.Fatalf("got %d sim_step and %d span events, want both nonzero", steps, spans)
	}
}

// BenchmarkStepObsDisabled measures the sim hot path with observability
// off — the baseline the no-op sinks must not move. Compare with
// BenchmarkStepObsEnabled: the delta is the per-step instrumentation
// cost.
func BenchmarkStepObsDisabled(b *testing.B) {
	benchSim(b, func(cfg *Config) {})
}

// BenchmarkStepObsEnabled is the same simulation with metrics, tracing,
// and a progress counter attached.
func BenchmarkStepObsEnabled(b *testing.B) {
	reg := obs.NewRegistry()
	tr := obs.NewRing(1024, "bench")
	prog := obs.NewCounter()
	benchSim(b, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Tracer = tr
		cfg.Progress = prog
	})
}

// benchConfig mirrors smallConfig for benchmarks (testing.TB instead
// of *testing.T).
func benchConfig(tb testing.TB, seed uint64) Config {
	tb.Helper()
	types := workload.LongRunning()
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(seed), Types: types,
		Utilization: 0.75, TotalNodes: 16, Horizon: 20 * time.Minute,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Nodes:    16,
		Types:    types,
		Arrivals: arrivals,
		Bid:      dr.Bid{AvgPower: 16 * 180, Reserve: 16 * 60},
		Signal:   dr.NewRandomWalk(seed, 4*time.Second, 0.25, time.Hour),
		Horizon:  20 * time.Minute,
		Seed:     seed,
	}
}

func benchSim(b *testing.B, mutate func(*Config)) {
	b.Helper()
	cfgs := make([]Config, b.N)
	for i := range cfgs {
		cfgs[i] = benchConfig(b, 11)
		mutate(&cfgs[i])
	}
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfgs[i])
		if err != nil {
			b.Fatal(err)
		}
		steps += len(res.Tracking)
	}
	if b.N > 0 {
		b.ReportMetric(float64(steps)/float64(b.N), "sim-s/op")
	}
}
