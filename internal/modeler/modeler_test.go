package modeler

import (
	"math"
	"testing"
	"time"

	"repro/internal/geopm"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/workload"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newModeler(t *testing.T, def perfmodel.Model, threshold int) *Modeler {
	t.Helper()
	m, err := New(Config{Default: def, RetrainThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// feed synthesizes endpoint samples for a job following truth, capped at
// the given sequence of caps, one epoch per sample. It mirrors the agent
// flow: each epoch executes under the cap enforced (and echoed) at the
// previous sample; the sample taken after the epoch may echo a new cap.
func feed(m *Modeler, truth perfmodel.Model, caps []units.Power) {
	now := t0
	epoch := int64(0)
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: caps[0], Time: now})
	prev := caps[0]
	for _, c := range caps {
		dt := truth.TimeAt(prev)
		now = now.Add(time.Duration(dt * float64(time.Second)))
		epoch++
		m.Observe(geopm.Sample{EpochCount: epoch, PowerCap: c, Time: now})
		prev = c
	}
}

func TestDefaultModelUntilTrained(t *testing.T) {
	def := workload.MustByName("is").Model()
	m := newModeler(t, def, 10)
	if m.Trained() {
		t.Fatal("fresh modeler claims trained")
	}
	got := m.Model()
	if got != def {
		t.Errorf("untrained Model = %+v, want default", got)
	}
}

func TestNewRejectsInvalidDefault(t *testing.T) {
	if _, err := New(Config{Default: perfmodel.Model{}}); err == nil {
		t.Error("invalid default accepted")
	}
}

func TestRetrainAfterThresholdEpochs(t *testing.T) {
	truth := workload.MustByName("bt").Model()
	def := workload.MustByName("is").Model() // wrong default
	m := newModeler(t, def, 10)

	var caps []units.Power
	for _, c := range []units.Power{140, 160, 180, 200, 220, 240, 260, 280} {
		caps = append(caps, c, c, c, c, c) // 40 epochs across 8 caps
	}
	feed(m, truth, caps)

	if !m.Trained() {
		t.Fatal("modeler not trained after 40 epochs over threshold 10")
	}
	got := m.Model()
	for _, p := range []units.Power{150, 200, 250} {
		want := truth.TimeAt(p)
		if rel := math.Abs(got.TimeAt(p)-want) / want; rel > 0.05 {
			t.Errorf("trained T(%v) = %v, want ≈%v", p, got.TimeAt(p), want)
		}
	}
	if m.R2() < 0.9 {
		t.Errorf("fit R² = %v", m.R2())
	}
}

func TestNoRetrainBelowThreshold(t *testing.T) {
	truth := workload.MustByName("bt").Model()
	m := newModeler(t, workload.MustByName("is").Model(), 10)
	feed(m, truth, []units.Power{200, 200, 200, 200, 200}) // 5 epochs < 10
	if m.Trained() {
		t.Error("modeler trained below epoch threshold")
	}
	if m.Observations() != 5 {
		t.Errorf("observations = %d, want 5", m.Observations())
	}
}

func TestEpochlessSamplesDoNotTrain(t *testing.T) {
	// Jobs that report no epochs keep the default model (§4.2).
	m := newModeler(t, workload.MustByName("is").Model(), 10)
	now := t0
	for i := 0; i < 100; i++ {
		now = now.Add(time.Second)
		m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 200, Time: now})
	}
	if m.Trained() || m.Observations() != 0 {
		t.Errorf("epochless feed trained=%v obs=%d", m.Trained(), m.Observations())
	}
}

func TestOutOfOrderSamplesIgnored(t *testing.T) {
	m := newModeler(t, workload.MustByName("is").Model(), 10)
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 200, Time: t0.Add(10 * time.Second)})
	m.Observe(geopm.Sample{EpochCount: 5, PowerCap: 200, Time: t0}) // in the past
	if m.Observations() != 0 {
		t.Errorf("out-of-order sample recorded: obs=%d", m.Observations())
	}
}

func TestCapTransitionSpansDiscarded(t *testing.T) {
	// An epoch span across a large cap change (280 → 140) cannot be
	// attributed to one power level; the modeler must drop it rather
	// than pollute the fit (§7.2 asynchronous-samples hazard).
	def := workload.MustByName("bt").Model()
	m := newModeler(t, def, 1000) // never retrain; inspect raw history
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 280, Time: t0})
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 140, Time: t0.Add(8 * time.Second)})
	m.Observe(geopm.Sample{EpochCount: 1, PowerCap: 140, Time: t0.Add(10 * time.Second)})
	if m.Observations() != 0 {
		t.Fatalf("observations = %d, want transition span discarded", m.Observations())
	}
	// The next span, at a stable cap, is recorded normally.
	m.Observe(geopm.Sample{EpochCount: 2, PowerCap: 140, Time: t0.Add(13 * time.Second)})
	if m.Observations() != 1 {
		t.Fatalf("observations = %d after stable span", m.Observations())
	}
}

func TestTimeWeightedAverageWithinTolerance(t *testing.T) {
	// Small cap wiggle within tolerance: the recorded cap is the
	// time-weighted average, not the final value. One epoch spanning
	// 10 s: 8 s at 200 W then 2 s at 204 W → 200.8 W average.
	def := workload.MustByName("bt").Model()
	m := newModeler(t, def, 1000)
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 200, Time: t0})
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 204, Time: t0.Add(8 * time.Second)})
	m.Observe(geopm.Sample{EpochCount: 1, PowerCap: 204, Time: t0.Add(10 * time.Second)})
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.hist) != 1 {
		t.Fatalf("observations = %d, want 1", len(m.hist))
	}
	if math.Abs(m.hist[0].cap-200.8) > 1e-9 {
		t.Errorf("avg cap = %v, want 200.8", m.hist[0].cap)
	}
	if math.Abs(m.hist[0].secs-10) > 1e-9 {
		t.Errorf("secs/epoch = %v, want 10", m.hist[0].secs)
	}
}

func TestMultiEpochSpanWeighting(t *testing.T) {
	// A sample reporting 5 new epochs over 10 s yields one observation of
	// 2 s/epoch with weight 5, counting 5 toward the retrain threshold.
	m := newModeler(t, workload.MustByName("bt").Model(), 10)
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 200, Time: t0})
	m.Observe(geopm.Sample{EpochCount: 5, PowerCap: 200, Time: t0.Add(10 * time.Second)})
	if m.Observations() != 1 {
		t.Fatalf("observations = %d, want 1", m.Observations())
	}
	m.Observe(geopm.Sample{EpochCount: 10, PowerCap: 200, Time: t0.Add(20 * time.Second)})
	if !m.Trained() {
		t.Error("10 epochs did not trigger retrain")
	}
}

func TestRejectsNonMonotoneFit(t *testing.T) {
	// Feed data where time *increases* with power (unphysical); the
	// modeler must keep its previous/default model.
	def := workload.MustByName("is").Model()
	m := newModeler(t, def, 5)
	now := t0
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 140, Time: now})
	epoch := int64(0)
	for i, c := range []units.Power{140, 180, 220, 260, 280, 140, 180, 220, 260, 280} {
		dt := 1.0 + 0.005*c.Watts() // slower at higher power
		now = now.Add(time.Duration(dt * float64(time.Second)))
		epoch++
		_ = i
		m.Observe(geopm.Sample{EpochCount: epoch, PowerCap: c, Time: now})
	}
	if m.Trained() {
		t.Error("non-monotone fit was accepted")
	}
	if m.Model() != def {
		t.Error("model changed despite rejected fits")
	}
}

// TestNonMonotoneQuadraticFallsBackToLine: epoch times that fall with
// power but turn up near the top of the range fit a quadratic that is
// not monotone. The least-squares line through the same samples is, and
// the modeler steers by it rather than keep its default.
func TestNonMonotoneQuadraticFallsBackToLine(t *testing.T) {
	def := workload.MustByName("is").Model()
	// 16 stable spans: four at the first cap, three after each change.
	m := newModeler(t, def, 16)
	secs := map[units.Power]float64{140: 1.8, 180: 1.4, 220: 1.15, 260: 1.05, 280: 1.1}
	now := t0
	epoch := int64(0)
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 140, Time: now})
	for _, c := range []units.Power{140, 180, 220, 260, 280} {
		for i := 0; i < 4; i++ {
			now = now.Add(time.Duration(secs[c] * float64(time.Second)))
			epoch++
			m.Observe(geopm.Sample{EpochCount: epoch, PowerCap: c, Time: now})
		}
	}
	var xs, ys []float64
	for _, h := range m.hist {
		xs, ys = append(xs, h.cap), append(ys, h.secs)
	}
	q, _, err := perfmodel.Fit(xs, ys, def.PMin, 280)
	if err != nil || q.Monotone(50) {
		t.Fatalf("test data fit %v (err %v): want a non-monotone quadratic", q, err)
	}
	if !m.Trained() {
		t.Fatal("modeler did not train")
	}
	if got := m.Model(); got.A != 0 || got.B >= 0 {
		t.Errorf("model = %v, want a falling line", got)
	}
}

// TestHistoryWindowEviction: a job that outlives the window keeps
// exactly HistoryWindow observations, drops the oldest first, and still
// refits to its true curve afterwards. The first window's worth of
// samples follows a curve twice as slow; only once those are evicted can
// a fit land on the truth.
func TestHistoryWindowEviction(t *testing.T) {
	truth := workload.MustByName("bt").Model()
	m := newModeler(t, workload.MustByName("is").Model(), HistoryWindow)
	now := t0
	prev := units.Power(140)
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: prev, Time: now})
	// Four windows of samples; the cap moves every 16 epochs, so 15 in 16
	// spans are stable and more than three windows of observations enter.
	for i := 1; i <= 4*HistoryWindow; i++ {
		curve := truth
		if i <= HistoryWindow {
			curve = truth.Scale(2)
		}
		now = now.Add(time.Duration(curve.TimeAt(prev) * float64(time.Second)))
		c := units.Power(140 + 20*(i/16%8))
		m.Observe(geopm.Sample{EpochCount: int64(i), PowerCap: c, Time: now})
		prev = c
	}
	if got := m.Observations(); got != HistoryWindow {
		t.Errorf("observations = %d, want the window %d", got, HistoryWindow)
	}
	if m.Refits() < 3 {
		t.Fatalf("refits = %d, want ≥ 3 (one per window of epochs)", m.Refits())
	}
	got := m.Model()
	for _, p := range []units.Power{150, 200, 250} {
		want := truth.TimeAt(p)
		if rel := math.Abs(got.TimeAt(p)-want) / want; rel > 0.02 {
			t.Errorf("after eviction T(%v) = %v, want ≈%v", p, got.TimeAt(p), want)
		}
	}
}

func TestRefitsCountAndReconvergence(t *testing.T) {
	truth := workload.MustByName("bt").Model()
	m := newModeler(t, workload.MustByName("is").Model(), 10)
	var caps []units.Power
	for i := 0; i < 8; i++ {
		c := units.Power(140 + i*20)
		caps = append(caps, c, c, c, c, c) // 5 epochs per cap level
	}
	feed(m, truth, caps)
	if m.Refits() < 2 {
		t.Errorf("refits = %d, want ≥ 2 over 40 epochs at threshold 10", m.Refits())
	}
}

func TestDefaultPolicyString(t *testing.T) {
	if AssumeLeastSensitive.String() != "assume-least-sensitive" {
		t.Error(AssumeLeastSensitive)
	}
	if AssumeMostSensitive.String() != "assume-most-sensitive" {
		t.Error(AssumeMostSensitive)
	}
	if DefaultPolicy(99).String() != "unknown-policy" {
		t.Error(DefaultPolicy(99))
	}
}
