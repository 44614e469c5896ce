// Package modeler implements the job-tier power modeler (§4.2): the
// process that sits between the cluster tier and a job's GEOPM agent,
// turning epoch-count feedback into a power-performance model.
//
// Each time the GEOPM endpoint publishes a sample with new epochs, the
// modeler records the seconds-per-epoch observed since the previous epoch
// update together with the time-weighted average power cap applied over
// that span. Once at least RetrainThreshold new epochs accumulate it
// re-fits the quadratic model T = A·P² + B·P + C. Jobs that have reported
// no epochs — or whose fits fail validation — fall back to a default
// model, whose choice (least- vs most-sensitive known type) is the policy
// knob §6.1.2 evaluates.
package modeler

import (
	"sync"
	"time"

	"repro/internal/geopm"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// DefaultRetrainThreshold is the paper's retraining trigger: at least 10
// new epochs since the last fit (§4.2).
const DefaultRetrainThreshold = 10

// DefaultCapTolerance is the default stable-cap window (watts) for
// accepting an epoch span into the fit.
const DefaultCapTolerance = 6

// Config parameterizes a Modeler.
type Config struct {
	// Default is the model used until (and unless) an online fit
	// succeeds: a precharacterized curve when the job's type is known, or
	// a default-policy curve when it is not.
	Default perfmodel.Model
	// RetrainThreshold overrides DefaultRetrainThreshold when positive.
	RetrainThreshold int
	// MaxSamples bounds the observation history (FIFO eviction); zero
	// means unbounded. Long jobs under a moving target accumulate
	// observations indefinitely otherwise.
	MaxSamples int
	// CapTolerance is the largest cap swing (watts) allowed within one
	// epoch span for the observation to enter the fit. Epochs that ran
	// across a cap transition cannot be attributed to a single power
	// level — fitting them flattens (or even inverts) the learned
	// sensitivity, the asynchronous-sampling hazard §7.2 describes — so
	// such spans are discarded. Defaults to DefaultCapTolerance.
	CapTolerance float64
	// DetectPhaseChange enables the §8 extension: when PhaseStreak
	// consecutive observations each deviate from the current model by
	// more than PhaseResidual (relative), the job is assumed to have
	// entered a new power-sensitivity phase. The stale history is
	// dropped and the model relearns from the recent observations.
	DetectPhaseChange bool
	// PhaseResidual is the relative deviation treated as a mismatch
	// (default 0.25).
	PhaseResidual float64
	// PhaseStreak is how many consecutive mismatches trigger the reset
	// (default 3).
	PhaseStreak int
}

// Modeler learns one job's power-performance model online.
type Modeler struct {
	mu  sync.Mutex
	cfg Config

	// Observation history: one entry per epoch-bearing sample.
	caps    []float64 // time-weighted average cap over the span, watts
	times   []float64 // seconds per epoch over the span
	weights []int     // epochs in the span

	// Cap integration between epoch updates.
	haveLast    bool
	lastTime    time.Time
	lastCap     units.Power
	capIntegral float64 // watt·seconds since last epoch update
	spanStart   time.Time
	lastEpoch   int64
	spanCapMin  units.Power
	spanCapMax  units.Power

	newEpochs int
	fitted    perfmodel.Model
	trained   bool
	r2        float64
	refits    int

	mismatchStreak int
	phaseResets    int
}

// New constructs a modeler. The default model must validate.
func New(cfg Config) (*Modeler, error) {
	if err := cfg.Default.Validate(); err != nil {
		return nil, err
	}
	if cfg.RetrainThreshold <= 0 {
		cfg.RetrainThreshold = DefaultRetrainThreshold
	}
	return &Modeler{cfg: cfg}, nil
}

// Observe folds one endpoint sample into the modeler's state. Samples must
// be delivered in time order; out-of-order samples are ignored.
func (m *Modeler) Observe(s geopm.Sample) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if !m.haveLast {
		m.haveLast = true
		m.lastTime = s.Time
		m.lastCap = s.PowerCap
		m.spanStart = s.Time
		m.lastEpoch = s.EpochCount
		m.spanCapMin, m.spanCapMax = s.PowerCap, s.PowerCap
		return
	}
	dt := s.Time.Sub(m.lastTime).Seconds()
	if dt < 0 {
		return
	}
	// Integrate the cap that was in force since the previous sample, and
	// track the cap range seen across the span.
	m.capIntegral += m.lastCap.Watts() * dt
	m.lastTime = s.Time
	m.lastCap = s.PowerCap
	if s.PowerCap < m.spanCapMin {
		m.spanCapMin = s.PowerCap
	}
	if s.PowerCap > m.spanCapMax {
		m.spanCapMax = s.PowerCap
	}

	if s.EpochCount <= m.lastEpoch {
		return
	}
	span := s.Time.Sub(m.spanStart).Seconds()
	epochs := int(s.EpochCount - m.lastEpoch)
	tol := m.cfg.CapTolerance
	if tol <= 0 {
		tol = DefaultCapTolerance
	}
	if span > 0 && (m.spanCapMax-m.spanCapMin).Watts() <= tol {
		avgCap := m.capIntegral / span
		secsPerEpoch := span / float64(epochs)
		m.maybePhaseReset(avgCap, secsPerEpoch)
		m.caps = append(m.caps, avgCap)
		m.times = append(m.times, secsPerEpoch)
		m.weights = append(m.weights, epochs)
		if m.cfg.MaxSamples > 0 && len(m.caps) > m.cfg.MaxSamples {
			m.caps = m.caps[1:]
			m.times = m.times[1:]
			m.weights = m.weights[1:]
		}
		m.newEpochs += epochs
	}
	m.spanStart = s.Time
	m.capIntegral = 0
	m.lastEpoch = s.EpochCount
	m.spanCapMin, m.spanCapMax = s.PowerCap, s.PowerCap

	if m.newEpochs >= m.cfg.RetrainThreshold {
		m.retrainLocked()
	}
}

// maybePhaseReset implements phase-change detection (§8): a run of
// observations inconsistent with the trained model means the job entered
// a new phase, so the stale history is discarded and learning restarts.
// Callers hold m.mu.
func (m *Modeler) maybePhaseReset(avgCap, secsPerEpoch float64) {
	if !m.cfg.DetectPhaseChange || !m.trained {
		return
	}
	residual := m.cfg.PhaseResidual
	if residual <= 0 {
		residual = 0.25
	}
	streak := m.cfg.PhaseStreak
	if streak <= 0 {
		streak = 3
	}
	predicted := m.fitted.TimeAt(units.Power(avgCap))
	if predicted <= 0 {
		return
	}
	rel := secsPerEpoch/predicted - 1
	if rel < 0 {
		rel = -rel
	}
	if rel <= residual {
		m.mismatchStreak = 0
		return
	}
	m.mismatchStreak++
	if m.mismatchStreak < streak {
		return
	}
	// Keep only the most recent mismatching observations: they belong to
	// the new phase.
	keep := m.mismatchStreak - 1
	if keep > len(m.caps) {
		keep = len(m.caps)
	}
	m.caps = append([]float64(nil), m.caps[len(m.caps)-keep:]...)
	m.times = append([]float64(nil), m.times[len(m.times)-keep:]...)
	m.weights = append([]int(nil), m.weights[len(m.weights)-keep:]...)
	m.trained = false
	m.newEpochs = 0
	for _, w := range m.weights {
		m.newEpochs += w
	}
	m.mismatchStreak = 0
	m.phaseResets++
}

// PhaseResets reports how many phase changes the modeler has detected.
func (m *Modeler) PhaseResets() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phaseResets
}

// retrainLocked re-fits the quadratic model over the weighted history.
// Callers hold m.mu.
func (m *Modeler) retrainLocked() {
	m.newEpochs = 0
	var xs, ys []float64
	for i := range m.caps {
		for w := 0; w < m.weights[i]; w++ {
			xs = append(xs, m.caps[i])
			ys = append(ys, m.times[i])
		}
	}
	// Online observations can reveal a wider achievable power range than
	// the default model assumed (e.g. a job misclassified as a
	// low-power type that actually draws up to TDP); extend the fitted
	// model's validity to cover every cap actually observed.
	pMin, pMax := m.cfg.Default.PMin, m.cfg.Default.PMax
	for _, x := range m.caps {
		if p := units.Power(x); p < pMin {
			pMin = p
		} else if p > pMax {
			pMax = p
		}
	}
	fit, r2, err := perfmodel.Fit(xs, ys, pMin, pMax)
	if err == nil && fit.A != 0 && !plausible(fit) {
		// Noisy epoch times can bend the quadratic the wrong way where
		// the least-squares line through the same samples still falls
		// with power: steer by the line rather than by a stale model.
		fit, r2, err = perfmodel.FitLine(xs, ys, pMin, pMax)
	}
	// Reject fits that are not physically plausible (time must not
	// increase with power); keep the previous model instead.
	if err != nil || !plausible(fit) {
		return
	}
	m.fitted = fit
	m.trained = true
	m.r2 = r2
	m.refits++
}

// plausible reports whether a fit is physically plausible: positive time
// across its range, and time that does not increase with power.
func plausible(m perfmodel.Model) bool { return m.Validate() == nil && m.Monotone(50) }

// Model returns the job's current best model: the online fit when trained,
// the default otherwise.
func (m *Modeler) Model() perfmodel.Model {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.trained {
		return m.fitted
	}
	return m.cfg.Default
}

// Trained reports whether an online fit has replaced the default model.
func (m *Modeler) Trained() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trained
}

// R2 returns the R² of the latest accepted fit (0 until trained).
func (m *Modeler) R2() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r2
}

// Refits returns how many times the model has been re-fitted.
func (m *Modeler) Refits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refits
}

// Observations returns how many epoch-bearing observations are held.
func (m *Modeler) Observations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.caps)
}

// DefaultPolicy selects the model assumed for a job whose type is unknown
// (§6.1.2): assume it behaves like the least power-sensitive known type
// (underprediction) or like the most sensitive (overprediction).
type DefaultPolicy int

// Default-model policies.
const (
	// AssumeLeastSensitive uses the least-sensitive known curve; risk
	// falls on the unknown job (it is starved of power if actually
	// sensitive).
	AssumeLeastSensitive DefaultPolicy = iota
	// AssumeMostSensitive uses the most-sensitive known curve; risk falls
	// on co-scheduled sensitive jobs (the unknown job hoards power).
	AssumeMostSensitive
)

// String names the policy.
func (p DefaultPolicy) String() string {
	switch p {
	case AssumeLeastSensitive:
		return "assume-least-sensitive"
	case AssumeMostSensitive:
		return "assume-most-sensitive"
	default:
		return "unknown-policy"
	}
}
