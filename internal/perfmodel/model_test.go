package perfmodel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/units"
)

// testModel is a convex, monotone-decreasing curve: 1.8 s/epoch at 140 W
// down to 1.0 s/epoch at 280 W.
func testModel() Model {
	return FromAnchors(140, 280, 1.8, 1.0, 0.35)
}

func TestFromAnchorsHitsAnchors(t *testing.T) {
	m := testModel()
	if got := m.TimeAt(140); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("T(140) = %v, want 1.8", got)
	}
	if got := m.TimeAt(280); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("T(280) = %v, want 1.0", got)
	}
	if got := m.TimeAt(210); math.Abs(got-(1.0+0.35*0.8)) > 1e-9 {
		t.Errorf("T(210) = %v, want %v", got, 1.0+0.35*0.8)
	}
}

func TestFromAnchorsConvexIsMonotone(t *testing.T) {
	m := testModel()
	if !m.Monotone(100) {
		t.Error("anchor model not monotone decreasing")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromAnchorsPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromAnchors with inverted range did not panic")
		}
	}()
	FromAnchors(280, 140, 1.8, 1.0, 0.35)
}

func TestTimeAtClampsOutsideRange(t *testing.T) {
	m := testModel()
	if got, want := m.TimeAt(100), m.TimeAt(140); got != want {
		t.Errorf("T(100) = %v, want clamp to T(140) = %v", got, want)
	}
	if got, want := m.TimeAt(400), m.TimeAt(280); got != want {
		t.Errorf("T(400) = %v, want clamp to T(280) = %v", got, want)
	}
}

func TestMinMaxTime(t *testing.T) {
	m := testModel()
	if math.Abs(m.MinTime()-1.0) > 1e-9 || math.Abs(m.MaxTime()-1.8) > 1e-9 {
		t.Errorf("MinTime=%v MaxTime=%v", m.MinTime(), m.MaxTime())
	}
}

func TestSlowdownAt(t *testing.T) {
	m := testModel()
	if got := m.SlowdownAt(280); math.Abs(got-1) > 1e-9 {
		t.Errorf("slowdown at PMax = %v, want 1", got)
	}
	if got := m.SlowdownAt(140); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("slowdown at PMin = %v, want 1.8", got)
	}
}

func TestPowerForInvertsTimeAt(t *testing.T) {
	m := testModel()
	for _, p := range []units.Power{140, 160, 185, 210, 245, 280} {
		tm := m.TimeAt(p)
		back := m.PowerFor(tm)
		if math.Abs(float64(back-p)) > 1e-3 {
			t.Errorf("PowerFor(T(%v)) = %v", p, back)
		}
	}
}

func TestPowerForSaturates(t *testing.T) {
	m := testModel()
	if got := m.PowerFor(0.5); got != 280 {
		t.Errorf("PowerFor(faster than min) = %v, want PMax", got)
	}
	if got := m.PowerFor(5); got != 140 {
		t.Errorf("PowerFor(slower than max) = %v, want PMin", got)
	}
}

func TestPowerForSlowdown(t *testing.T) {
	m := testModel()
	p := m.PowerForSlowdown(1.4)
	if math.Abs(m.SlowdownAt(p)-1.4) > 1e-3 {
		t.Errorf("slowdown at PowerForSlowdown(1.4) = %v", m.SlowdownAt(p))
	}
	if got := m.PowerForSlowdown(1.0); got != 280 {
		t.Errorf("PowerForSlowdown(1) = %v, want PMax", got)
	}
}

func TestScale(t *testing.T) {
	m := testModel()
	s := m.Scale(2.5)
	for _, p := range []units.Power{140, 200, 280} {
		if math.Abs(s.TimeAt(p)-2.5*m.TimeAt(p)) > 1e-9 {
			t.Errorf("scaled T(%v) = %v, want %v", p, s.TimeAt(p), 2.5*m.TimeAt(p))
		}
	}
	// Scaling preserves relative slowdown.
	if math.Abs(s.SlowdownAt(140)-m.SlowdownAt(140)) > 1e-9 {
		t.Error("Scale changed slowdown curve")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	if err := (Model{PMin: 0, PMax: 280}).Validate(); !errors.Is(err, ErrBadRange) {
		t.Errorf("zero PMin: %v", err)
	}
	if err := (Model{PMin: 280, PMax: 140}).Validate(); !errors.Is(err, ErrBadRange) {
		t.Errorf("inverted range: %v", err)
	}
	neg := Model{C: -5, PMin: 140, PMax: 280}
	if err := neg.Validate(); err == nil {
		t.Error("negative-time model validated")
	}
}

func TestFitRecoversQuadratic(t *testing.T) {
	truth := testModel()
	caps := []float64{140, 150, 170, 190, 210, 230, 250, 270, 280}
	times := make([]float64, len(caps))
	for i, c := range caps {
		times[i] = truth.TimeAt(units.Power(c))
	}
	m, r2, err := Fit(caps, times, 140, 280)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 1-1e-9 {
		t.Errorf("R² = %v on exact data", r2)
	}
	for _, p := range []units.Power{140, 200, 280} {
		if math.Abs(m.TimeAt(p)-truth.TimeAt(p)) > 1e-6 {
			t.Errorf("fit T(%v) = %v, want %v", p, m.TimeAt(p), truth.TimeAt(p))
		}
	}
}

func TestFitNoisyR2MatchesPaperRange(t *testing.T) {
	// §5.1: most job types fit with R² ≥ 0.97 — moderate noise keeps the
	// quadratic fit strong.
	truth := testModel()
	r := stats.NewRNG(77)
	var caps, times []float64
	for trial := 0; trial < 10; trial++ {
		for c := 140.0; c <= 280; c += 20 {
			caps = append(caps, c)
			times = append(times, truth.TimeAt(units.Power(c))*(1+r.Normal(0, 0.02)))
		}
	}
	_, r2, err := Fit(caps, times, 140, 280)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Errorf("noisy R² = %v, want ≥ 0.9", r2)
	}
}

func TestFitFallsBackOnSparseCaps(t *testing.T) {
	// Two distinct caps cannot support a quadratic; Fit should fall back to
	// linear rather than fail, so the online modeler can steer early.
	caps := []float64{140, 140, 280, 280}
	times := []float64{1.8, 1.8, 1.0, 1.0}
	m, _, err := Fit(caps, times, 140, 280)
	if err != nil {
		t.Fatal(err)
	}
	if m.A != 0 {
		t.Errorf("expected linear fallback, got A=%v", m.A)
	}
	if math.Abs(m.TimeAt(140)-1.8) > 1e-9 || math.Abs(m.TimeAt(280)-1.0) > 1e-9 {
		t.Errorf("linear fallback endpoints wrong: %v %v", m.TimeAt(140), m.TimeAt(280))
	}
}

func TestFitSingleCapConstantFallback(t *testing.T) {
	m, _, err := Fit([]float64{200, 200}, []float64{1.3, 1.5}, 140, 280)
	if err != nil {
		t.Fatal(err)
	}
	if m.A != 0 || m.B != 0 || math.Abs(m.C-1.4) > 1e-9 {
		t.Errorf("constant fallback = %+v, want C=1.4", m)
	}
}

func TestFitErrors(t *testing.T) {
	if _, _, err := Fit(nil, nil, 140, 280); !errors.Is(err, stats.ErrSingular) {
		t.Errorf("empty fit: %v", err)
	}
	if _, _, err := Fit([]float64{1}, []float64{1, 2}, 140, 280); err == nil {
		t.Error("mismatched lengths did not error")
	}
	if _, _, err := Fit([]float64{200}, []float64{1}, 280, 140); !errors.Is(err, ErrBadRange) {
		t.Errorf("bad range: %v", err)
	}
}

func TestPowerForMonotoneProperty(t *testing.T) {
	// For any convex monotone model, a larger time budget never demands
	// more power.
	m := testModel()
	f := func(a, b uint16) bool {
		t1 := 1.0 + float64(a%1000)/1000
		t2 := 1.0 + float64(b%1000)/1000
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return m.PowerFor(t2) <= m.PowerFor(t1)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTripFitAnchorsProperty(t *testing.T) {
	// Any anchor model with sensible parameters is recovered by Fit on a
	// dense exact sweep.
	f := func(sRaw, midRaw uint8) bool {
		s := 1.05 + float64(sRaw%100)/100 // max slowdown in [1.05, 2.05)
		mid := 0.2 + 0.3*float64(midRaw%100)/100
		truth := FromAnchors(140, 280, s, 1.0, mid)
		var caps, times []float64
		for c := 140.0; c <= 280; c += 10 {
			caps = append(caps, c)
			times = append(times, truth.TimeAt(units.Power(c)))
		}
		m, r2, err := Fit(caps, times, 140, 280)
		if err != nil || r2 < 1-1e-6 {
			return false
		}
		return math.Abs(m.TimeAt(200)-truth.TimeAt(200)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// bisectPowerFor is a reference inverse for the closed-form PowerFor: it
// bisects T(P) = t on [PMin, PMax] until the bracket stops shrinking.
func bisectPowerFor(m Model, t float64) float64 {
	lo, hi := m.PMin.Watts(), m.PMax.Watts()
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return mid
		}
		if m.timeRaw(units.Power(mid)) > t {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// TestPowerForMatchesBisection holds the closed-form inverse against a
// bisection run to machine precision: random monotone models, convex and
// concave, a linear model (A = 0), a near-zero discriminant (a convex
// model whose vertex sits at PMax, queried just above its minimum time)
// and both saturation ends.
func TestPowerForMatchesBisection(t *testing.T) {
	type query struct {
		m Model
		t float64
	}
	var qs []query
	r := stats.NewRNG(11)
	for len(qs) < 2000 {
		pMin := units.Power(r.Uniform(40, 200))
		pMax := pMin + units.Power(r.Uniform(20, 250))
		tMin := r.Uniform(0.1, 10)
		tMax := tMin * r.Uniform(1.01, 3)
		m := FromAnchors(pMin, pMax, tMax, tMin, r.Uniform(0.3, 0.7))
		if !m.Monotone(50) {
			continue
		}
		qs = append(qs, query{m, r.Uniform(tMin, tMax)})
	}
	linear := Model{B: -0.005, C: 2.4, PMin: 140, PMax: 280}
	for _, tm := range []float64{1.1, 1.3, 1.5, 1.69} {
		qs = append(qs, query{linear, tm})
	}
	// A = 1e-4 puts the vertex of T at 280 W = PMax: T(280) = 1.
	flat := Model{A: 1e-4, B: -0.056, C: 8.84, PMin: 140, PMax: 280}
	for _, d := range []float64{1e-9, 1e-7, 1e-5, 1e-3} {
		qs = append(qs, query{flat, flat.MinTime() + d})
	}
	for _, q := range qs {
		got, want := q.m.PowerFor(q.t).Watts(), bisectPowerFor(q.m, q.t)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v: PowerFor(%v) = %.12f, bisection %.12f", q.m, q.t, got, want)
		}
	}
	for _, m := range []Model{testModel(), linear, flat} {
		if got := m.PowerFor(m.MinTime()); got != m.PMax {
			t.Errorf("%v: PowerFor(MinTime) = %v, want PMax", m, got)
		}
		if got := m.PowerFor(m.MaxTime()); got != m.PMin {
			t.Errorf("%v: PowerFor(MaxTime) = %v, want PMin", m, got)
		}
	}
}

// FuzzPowerFor feeds arbitrary coefficients, ranges and times: for any
// valid monotone model the inverse is a cap in [PMin, PMax], never NaN.
func FuzzPowerFor(f *testing.F) {
	f.Add(2.449e-5, -0.016, 3.56, 140.0, 280.0, 1.5)
	f.Add(0.0, -0.005, 2.4, 140.0, 280.0, 1.3)
	f.Add(1e-4, -0.056, 8.84, 140.0, 280.0, 1.0000001)
	f.Add(-1e-5, -0.001, 2.0, 60.0, 120.0, 1.8)
	f.Fuzz(func(t *testing.T, a, b, c, pMin, pMax, tm float64) {
		for _, x := range []float64{a, b, c, pMin, pMax, tm} {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				t.Skip()
			}
		}
		m := Model{A: a, B: b, C: c, PMin: units.Power(pMin), PMax: units.Power(pMax)}
		if m.Validate() != nil || !m.Monotone(50) {
			t.Skip()
		}
		got := m.PowerFor(tm)
		if math.IsNaN(got.Watts()) || got < m.PMin || got > m.PMax {
			t.Fatalf("%v: PowerFor(%v) = %v", m, tm, got)
		}
	})
}

// TestFitRepeatedInexactCapIsConstant: samples at one cap that is not
// exactly representable are one distinct cap, so the fit is a constant,
// not a quadratic bent to the rounding noise of the normal equations.
func TestFitRepeatedInexactCapIsConstant(t *testing.T) {
	var caps, times []float64
	for i := 0; i < 10; i++ {
		caps = append(caps, 197.7888612)
		times = append(times, 1.2+0.01*float64(i%3))
	}
	m, _, err := Fit(caps, times, 140, 280)
	if err != nil {
		t.Fatal(err)
	}
	if m.A != 0 || m.B != 0 {
		t.Errorf("fit on one cap = %v, want A = B = 0", m)
	}
	// Two caps, one jittered within (pMax − pMin)·1e-3: a line.
	caps = append(caps, 240, 240.1)
	times = append(times, 1.0, 1.0)
	if m, _, _ := Fit(caps, times, 140, 280); m.A != 0 || m.B == 0 {
		t.Errorf("fit on two caps = %v, want a line", m)
	}
}
