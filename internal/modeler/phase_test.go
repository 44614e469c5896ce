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

// feedPhase streams epoch-bearing samples for a job following truth,
// continuing from the given epoch count and time, returning the updated
// cursor. Caps repeat 3× so stable-cap spans survive filtering.
func feedPhase(m *Modeler, truth perfmodel.Model, caps []units.Power, epoch int64, now time.Time) (int64, time.Time) {
	prev := caps[0]
	for _, c := range caps {
		now = now.Add(time.Duration(truth.TimeAt(prev) * float64(time.Second)))
		epoch++
		m.Observe(geopm.Sample{EpochCount: epoch, PowerCap: c, Time: now})
		prev = c
	}
	return epoch, now
}

func phaseCaps() []units.Power {
	var caps []units.Power
	for _, c := range []units.Power{140, 180, 220, 260, 280} {
		caps = append(caps, c, c, c)
	}
	return caps
}

func TestPhaseChangeDetectedAndRelearned(t *testing.T) {
	m, err := New(Config{
		Default:           workload.MustByName("bt").Model(),
		RetrainThreshold:  8,
		DetectPhaseChange: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	phase1 := workload.MustByName("bt").Model()
	phase2 := phase1.Scale(2.5) // same sensitivity shape, 2.5× slower epochs

	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 140, Time: t0})
	epoch, now := feedPhase(m, phase1, phaseCaps(), 0, t0)
	if !m.Trained() {
		t.Fatal("not trained after phase 1")
	}
	if math.Abs(m.Model().TimeAt(200)-phase1.TimeAt(200)) > 0.1*phase1.TimeAt(200) {
		t.Fatalf("phase 1 model off: %v vs %v", m.Model().TimeAt(200), phase1.TimeAt(200))
	}

	// Phase 2: 2.5× slower — far outside the 25% residual band.
	feedPhase(m, phase2, phaseCaps(), epoch, now)
	if m.PhaseResets() == 0 {
		t.Fatal("phase change not detected")
	}
	if !m.Trained() {
		t.Fatal("not retrained after phase 2")
	}
	got := m.Model().TimeAt(200)
	want := phase2.TimeAt(200)
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("phase 2 model = %v at 200 W, want ≈%v", got, want)
	}
}

func TestPhaseDetectionDisabledByDefault(t *testing.T) {
	m, err := New(Config{
		Default:          workload.MustByName("bt").Model(),
		RetrainThreshold: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	phase1 := workload.MustByName("bt").Model()
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 140, Time: t0})
	epoch, now := feedPhase(m, phase1, phaseCaps(), 0, t0)
	feedPhase(m, phase1.Scale(2.5), phaseCaps(), epoch, now)
	if m.PhaseResets() != 0 {
		t.Error("phase reset occurred with detection disabled")
	}
}

func TestPhaseDetectionTolIgnoresNoise(t *testing.T) {
	// Small fluctuations (within the residual band) must not reset.
	m, err := New(Config{
		Default:           workload.MustByName("bt").Model(),
		RetrainThreshold:  8,
		DetectPhaseChange: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := workload.MustByName("bt").Model()
	m.Observe(geopm.Sample{EpochCount: 0, PowerCap: 140, Time: t0})
	epoch, now := feedPhase(m, truth, phaseCaps(), 0, t0)
	// +10% drift: inside the band.
	feedPhase(m, truth.Scale(1.1), phaseCaps(), epoch, now)
	if m.PhaseResets() != 0 {
		t.Errorf("10%% drift triggered %d phase resets", m.PhaseResets())
	}
}

func TestPhasedExecutorEpochAccounting(t *testing.T) {
	// Sanity-check the workload side: a two-phase job reports combined
	// epochs and base time.
	bt := workload.MustByName("bt")
	is := workload.MustByName("is")
	pe := &workload.PhasedExecutor{
		Phases: []workload.PhaseSpec{
			{Type: bt, Epochs: 50},
			{Type: is, Epochs: 10},
		},
	}
	if got := pe.TotalEpochs(); got != 60 {
		t.Errorf("TotalEpochs = %d", got)
	}
	wantBase := bt.BaseSeconds/float64(bt.Epochs)*50 + is.BaseSeconds/float64(is.Epochs)*10
	if math.Abs(pe.BaseSeconds()-wantBase) > 1e-9 {
		t.Errorf("BaseSeconds = %v, want %v", pe.BaseSeconds(), wantBase)
	}
}
