// Package perfmodel implements the job power-performance model from §4.2 of
// the paper: execution time per epoch as a quadratic function of the CPU
// power cap,
//
//	T(P) = A·P² + B·P + C,
//
// valid for caps P below TDP. The package provides construction from anchor
// points (used to synthesize the precharacterized job-type curves of
// Fig. 3), least-squares fitting from observed (cap, seconds-per-epoch)
// samples (used by the online modeler), the inverse map P(T) needed by the
// even-slowdown budgeter (§4.4.3), and slowdown queries.
package perfmodel

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/units"
)

// Model is a fitted power-performance curve for one job (or job type).
// TimeAt reports seconds per epoch at a given power cap; the model is
// trusted only inside [PMin, PMax], the job's achievable power range —
// queries outside are clamped.
type Model struct {
	// A, B, C are the quadratic coefficients of T(P) = A·P² + B·P + C,
	// with P in watts and T in seconds per epoch.
	A, B, C float64
	// PMin and PMax bound the power caps the model is valid over:
	// the platform's minimum allowed cap and the job's maximum power
	// demand (at most TDP).
	PMin, PMax units.Power
}

// ErrBadRange is returned when a model is constructed with an empty or
// inverted power range.
var ErrBadRange = errors.New("perfmodel: invalid power range")

// Validate checks structural sanity: a positive, non-inverted power range
// and positive predicted time across it.
func (m Model) Validate() error {
	if m.PMin <= 0 || m.PMax <= m.PMin {
		return ErrBadRange
	}
	for _, p := range []units.Power{m.PMin, (m.PMin + m.PMax) / 2, m.PMax} {
		if m.timeRaw(p) <= 0 {
			return fmt.Errorf("perfmodel: non-positive time %.3f at %v", m.timeRaw(p), p)
		}
	}
	return nil
}

func (m Model) timeRaw(p units.Power) float64 {
	w := p.Watts()
	return m.A*w*w + m.B*w + m.C
}

// TimeAt returns the modeled seconds per epoch at power cap p, clamped to
// the model's valid range.
func (m Model) TimeAt(p units.Power) float64 {
	return m.timeRaw(p.Clamp(m.PMin, m.PMax))
}

// MinTime returns the modeled seconds per epoch with no effective power
// limit (cap at PMax) — the job's best-case rate.
func (m Model) MinTime() float64 { return m.timeRaw(m.PMax) }

// MaxTime returns the modeled seconds per epoch at the platform minimum cap
// — the job's worst-case rate.
func (m Model) MaxTime() float64 { return m.timeRaw(m.PMin) }

// SlowdownAt returns T(p) / T(PMax), the multiplicative slowdown relative
// to uncapped execution. It is ≥ 1 for well-formed (monotone decreasing)
// models and 1 at PMax.
func (m Model) SlowdownAt(p units.Power) float64 {
	min := m.MinTime()
	if min <= 0 {
		return 1
	}
	return m.TimeAt(p) / min
}

// PowerFor returns the power cap in [PMin, PMax] whose modeled time is t:
// the inverse map P_j(T) from §4.4.3 used by the even-slowdown budgeter.
// Times faster than MinTime saturate at PMax and times slower than
// MaxTime saturate at PMin. In between it solves A·P² + B·P + C = t in
// closed form, with the cancellation-free quadratic formula; a monotone
// model (see Monotone) has exactly one root in range, and the result is
// clamped to it.
func (m Model) PowerFor(t float64) units.Power {
	if t <= m.MinTime() {
		return m.PMax
	}
	if t >= m.MaxTime() {
		return m.PMin
	}
	c := m.C - t
	var w float64 // q = 0 below leaves the double root at the vertex, 0 W
	if m.A == 0 {
		w = -c / m.B
	} else {
		d := m.B*m.B - 4*m.A*c
		if d < 0 {
			d = 0
		}
		if q := -0.5 * (m.B + math.Copysign(math.Sqrt(d), m.B)); q != 0 {
			// Of the two roots take the one nearer the range: rounding
			// can put the in-range root a hair outside it.
			w = q / m.A
			if r := c / q; m.outside(r) < m.outside(w) {
				w = r
			}
		}
	}
	return units.Power(w).Clamp(m.PMin, m.PMax)
}

// outside returns how far w watts lies outside [PMin, PMax] (0 inside).
func (m Model) outside(w float64) float64 {
	if lo := m.PMin.Watts(); w < lo {
		return lo - w
	}
	if hi := m.PMax.Watts(); w > hi {
		return w - hi
	}
	return 0
}

// PowerForSlowdown returns the smallest cap achieving at most the given
// multiplicative slowdown (1 = uncapped speed).
func (m Model) PowerForSlowdown(s float64) units.Power {
	return m.PowerFor(s * m.MinTime())
}

// Monotone reports whether the modeled time is non-increasing in power
// across [PMin, PMax], sampled at the given resolution. Budgeter policies
// assume monotone models; the online modeler rejects fits that fail this.
func (m Model) Monotone(samples int) bool {
	if samples < 2 {
		samples = 2
	}
	prev := m.timeRaw(m.PMin)
	for i := 1; i < samples; i++ {
		p := m.PMin + units.Power(float64(i)/float64(samples-1))*(m.PMax-m.PMin)
		cur := m.timeRaw(p)
		if cur > prev+1e-9*math.Max(1, math.Abs(prev)) {
			return false
		}
		prev = cur
	}
	return true
}

// Scale returns a copy of m with all times multiplied by f. It is used to
// apply per-node performance-variation coefficients (§6.4) and to express
// a job's absolute epoch time from a normalized type curve.
func (m Model) Scale(f float64) Model {
	return Model{A: m.A * f, B: m.B * f, C: m.C * f, PMin: m.PMin, PMax: m.PMax}
}

// FromAnchors synthesizes a quadratic model through three anchor points:
// time tMax at pMin, time tMin at pMax, and a convexity-controlling
// mid-point. midFrac in [0, 1] positions the time at the midpoint cap
// between the linear interpolation (midFrac = 0.5) and the fast extreme
// (midFrac = 0): NPB-style curves are convex, flattening near TDP, which
// corresponds to midFrac < 0.5. Panics if the range is invalid; it is a
// programming error used only with static catalogs.
func FromAnchors(pMin, pMax units.Power, tMax, tMin, midFrac float64) Model {
	if pMin <= 0 || pMax <= pMin {
		panic(ErrBadRange)
	}
	pm := (pMin + pMax) / 2
	tMid := tMin + midFrac*(tMax-tMin)
	xs := []float64{pMin.Watts(), pm.Watts(), pMax.Watts()}
	ys := []float64{tMax, tMid, tMin}
	c, err := stats.PolyFit(xs, ys, 2)
	if err != nil {
		// Three distinct abscissae cannot be singular.
		panic(err)
	}
	return Model{A: c[2], B: c[1], C: c[0], PMin: pMin, PMax: pMax}
}

// Fit fits a quadratic model to observed samples of (cap watts, seconds per
// epoch) over the valid range [pMin, pMax]. It returns the model and the
// fit's R² score. The fit's degree is at most the number of distinct caps
// minus one, so samples at two caps give a line and samples at one cap a
// constant: the modeler can begin steering from sparse feedback without
// a quadratic bent to the noise in repeated samples. Caps closer than
// (pMax − pMin)·1e-3 count as one. Fit reports stats.ErrSingular only
// when even a constant fit is impossible (no samples).
func Fit(caps, secsPerEpoch []float64, pMin, pMax units.Power) (Model, float64, error) {
	return fit(caps, secsPerEpoch, pMin, pMax, 2)
}

// FitLine is Fit capped at degree one: the least-squares line (or, on
// one distinct cap, constant) through the samples. The online modeler
// falls back to it when noise bends the quadratic fit out of monotone.
func FitLine(caps, secsPerEpoch []float64, pMin, pMax units.Power) (Model, float64, error) {
	return fit(caps, secsPerEpoch, pMin, pMax, 1)
}

func fit(caps, secsPerEpoch []float64, pMin, pMax units.Power, maxDegree int) (Model, float64, error) {
	if len(caps) != len(secsPerEpoch) {
		return Model{}, 0, errors.New("perfmodel: mismatched sample lengths")
	}
	if len(caps) == 0 {
		return Model{}, 0, stats.ErrSingular
	}
	if pMin <= 0 || pMax <= pMin {
		return Model{}, 0, ErrBadRange
	}
	top := distinctCaps(caps, (pMax-pMin).Watts()*1e-3) - 1
	for degree := min(maxDegree, top); degree >= 0; degree-- {
		c, err := stats.PolyFit(caps, secsPerEpoch, degree)
		if err != nil {
			continue
		}
		m := Model{PMin: pMin, PMax: pMax}
		switch degree {
		case 2:
			m.A, m.B, m.C = c[2], c[1], c[0]
		case 1:
			m.B, m.C = c[1], c[0]
		case 0:
			m.C = c[0]
		}
		return m, stats.RSquared(c, caps, secsPerEpoch), nil
	}
	return Model{}, 0, stats.ErrSingular
}

// distinctCaps counts the caps that lie more than sep from every cap
// counted before them, stopping at three: all a quadratic fit needs.
func distinctCaps(caps []float64, sep float64) int {
	var seen [3]float64
	n := 0
	for _, c := range caps {
		dup := false
		for _, s := range seen[:n] {
			if math.Abs(c-s) <= sep {
				dup = true
				break
			}
		}
		if !dup {
			seen[n] = c
			if n++; n == len(seen) {
				break
			}
		}
	}
	return n
}

// String formats the model compactly for reports and logs.
func (m Model) String() string {
	return fmt.Sprintf("T(P)=%.3e·P²%+.3e·P%+.3f over [%s, %s]",
		m.A, m.B, m.C, m.PMin, m.PMax)
}
