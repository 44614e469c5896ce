// Package modeler implements the job-tier power modeler (§4.2): the
// process that sits between the cluster tier and a job's GEOPM agent,
// turning epoch-count feedback into a power-performance model.
//
// Each time the GEOPM endpoint publishes a sample with new epochs, the
// modeler records the seconds-per-epoch observed since the previous epoch
// update together with the time-weighted average power cap applied over
// that span. Once at least RetrainThreshold new epochs accumulate it
// re-fits the quadratic model T = A·P² + B·P + C over its last
// HistoryWindow observations. Jobs that have reported no epochs — or
// whose fits fail validation — fall back to a default model, whose
// choice (least- vs most-sensitive known type) is the policy knob §6.1.2
// evaluates.
package modeler

import (
	"math"
	"sync"
	"time"

	"repro/internal/geopm"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// DefaultRetrainThreshold is the paper's retraining trigger: at least 10
// new epochs since the last fit (§4.2).
const DefaultRetrainThreshold = 10

const (
	// HistoryWindow is how many observations the modeler keeps. The
	// oldest is dropped when a new one would exceed it, so however long a
	// job runs it holds at most about 0.5 MB of history and each refit
	// does bounded work. The window sits above the longest history any
	// figure or benchmark workload builds (under 2000) and the 10 000 the
	// benchmark's modeler probe builds, so none of them sees another fit.
	HistoryWindow = 16384

	// CapTolerance is the largest cap swing (watts) allowed within one
	// epoch span for the observation to enter the fit. Epochs that ran
	// across a cap transition cannot be attributed to a single power
	// level — fitting them flattens (or even inverts) the learned
	// sensitivity, the asynchronous-sampling hazard §7.2 describes — so
	// such spans are discarded.
	CapTolerance = 6

	// PhaseResidual is the relative deviation from the trained model that
	// counts as a mismatch for phase-change detection.
	PhaseResidual = 0.25

	// PhaseStreak is how many consecutive mismatches trigger a phase
	// reset.
	PhaseStreak = 3
)

// Config parameterizes a Modeler.
type Config struct {
	// Default is the model used until (and unless) an online fit
	// succeeds: a precharacterized curve when the job's type is known, or
	// a default-policy curve when it is not.
	Default perfmodel.Model
	// RetrainThreshold overrides DefaultRetrainThreshold when positive.
	RetrainThreshold int
	// DetectPhaseChange enables the §8 extension: when PhaseStreak
	// consecutive observations each deviate from the current model by
	// more than PhaseResidual (relative), the job is assumed to have
	// entered a new power-sensitivity phase. The stale history is
	// dropped and the model relearns from the recent observations.
	DetectPhaseChange bool
}

// observation is one epoch-bearing span of the history.
type observation struct {
	cap    float64 // time-weighted average cap over the span, watts
	secs   float64 // seconds per epoch over the span
	epochs int     // epochs in the span
}

// Modeler learns one job's power-performance model online.
type Modeler struct {
	mu  sync.Mutex
	cfg Config

	// hist holds the last HistoryWindow observations, oldest first.
	hist []observation

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
	if span > 0 && (m.spanCapMax-m.spanCapMin).Watts() <= CapTolerance {
		o := observation{cap: m.capIntegral / span, secs: span / float64(epochs), epochs: epochs}
		m.maybePhaseReset(o)
		if len(m.hist) == HistoryWindow {
			// Drop the oldest. Once the array's tail is used up, append
			// moves the window to a fresh one about 1.25× its size.
			m.hist = m.hist[1:]
		}
		m.hist = append(m.hist, o)
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
func (m *Modeler) maybePhaseReset(o observation) {
	if !m.cfg.DetectPhaseChange || !m.trained {
		return
	}
	predicted := m.fitted.TimeAt(units.Power(o.cap))
	if predicted <= 0 {
		return
	}
	if math.Abs(o.secs/predicted-1) <= PhaseResidual {
		m.mismatchStreak = 0
		return
	}
	m.mismatchStreak++
	if m.mismatchStreak < PhaseStreak {
		return
	}
	// Keep only the most recent mismatching observations: they belong to
	// the new phase.
	keep := min(m.mismatchStreak-1, len(m.hist))
	m.hist = append([]observation(nil), m.hist[len(m.hist)-keep:]...)
	m.trained = false
	m.newEpochs = 0
	for _, h := range m.hist {
		m.newEpochs += h.epochs
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
	for _, h := range m.hist {
		for w := 0; w < h.epochs; w++ {
			xs = append(xs, h.cap)
			ys = append(ys, h.secs)
		}
	}
	// Online observations can reveal a wider achievable power range than
	// the default model assumed (e.g. a job misclassified as a
	// low-power type that actually draws up to TDP); extend the fitted
	// model's validity to cover every cap actually observed.
	pMin, pMax := m.cfg.Default.PMin, m.cfg.Default.PMax
	for _, h := range m.hist {
		if p := units.Power(h.cap); p < pMin {
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
	return len(m.hist)
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
