package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/units"
	"repro/internal/workload"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func constTarget(p units.Power) func(time.Time) units.Power {
	return func(time.Time) units.Power { return p }
}

func newCluster(t *testing.T, v *clock.Virtual, nodes int, b budget.Budgeter, target units.Power) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Nodes:    nodes,
		Clock:    v,
		Budgeter: b,
		Target:   constTarget(target),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	v := clock.NewVirtual(t0)
	if _, err := NewCluster(Config{Clock: v, Budgeter: budget.EvenPower{}, Target: constTarget(1)}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewCluster(Config{Nodes: 4}); err == nil {
		t.Error("missing components accepted")
	}
}

func TestRunJobValidation(t *testing.T) {
	v := clock.NewVirtual(t0)
	c := newCluster(t, v, 2, budget.EvenPower{}, 560)
	defer c.Close()
	if _, err := c.RunJob(context.Background(), JobSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := c.RunJob(context.Background(), JobSpec{ID: "big", Type: workload.MustByName("is"), Nodes: 99}); err == nil {
		t.Error("oversized job accepted")
	}
	if c.FreeNodes() != 2 {
		t.Errorf("failed allocation leaked nodes: free = %d", c.FreeNodes())
	}
}

func TestSingleJobUncapped(t *testing.T) {
	v := clock.NewVirtual(t0)
	// Target far above demand: job should run at ≈1.0 slowdown.
	c := newCluster(t, v, 2, budget.EvenSlowdown{}, 2*280+100)
	defer c.Close()
	typ := workload.MustByName("is")
	var res JobResult
	var err error
	Drive(v, func() {
		res, err = c.RunJob(context.Background(), JobSpec{ID: "solo", Type: typ})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 0.99 || res.Slowdown > 1.05 {
		t.Errorf("uncapped slowdown = %v, want ≈1.0", res.Slowdown)
	}
	if res.Report.Epochs != int64(typ.Epochs) {
		t.Errorf("epochs = %d, want %d", res.Report.Epochs, typ.Epochs)
	}
	if c.FreeNodes() != 2 {
		t.Errorf("nodes not released: %d", c.FreeNodes())
	}
}

func TestSingleJobTightCapSlowsDown(t *testing.T) {
	v := clock.NewVirtual(t0)
	typ := workload.MustByName("mg") // 1 node, 120 s, max slowdown 1.27
	// One node gets minimum cap: target = idle(0 others) + 140.
	c := newCluster(t, v, 1, budget.EvenSlowdown{}, 140)
	defer c.Close()
	var res JobResult
	var err error
	Drive(v, func() {
		res, err = c.RunJob(context.Background(), JobSpec{ID: "tight", Type: typ})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slowdown should approach the type's max (first epochs run uncapped
	// until the control path delivers the budget).
	if res.Slowdown < 1.15 || res.Slowdown > typ.MaxSlowdown+0.02 {
		t.Errorf("capped slowdown = %v, want ≈%v", res.Slowdown, typ.MaxSlowdown)
	}
}

func TestTwoJobsEvenSlowdownFavorsSensitive(t *testing.T) {
	v := clock.NewVirtual(t0)
	bt := workload.MustByName("bt")
	sp := workload.MustByName("sp")
	// §6.2 shape: 4 nodes at 75% of TDP = 840 W.
	c := newCluster(t, v, 4, budget.EvenSlowdown{}, 840)
	defer c.Close()
	var results map[string]JobResult
	var err error
	Drive(v, func() {
		results, err = c.RunJobs(context.Background(), []JobSpec{
			{ID: "bt-0", Type: bt},
			{ID: "sp-0", Type: sp},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	btRes, spRes := results["bt-0"], results["sp-0"]
	if btRes.Slowdown <= 1.0 || spRes.Slowdown <= 1.0 {
		t.Fatalf("jobs not slowed: bt %v sp %v", btRes.Slowdown, spRes.Slowdown)
	}
	// The performance-aware policy narrows the gap: BT should not be
	// drastically slower than SP.
	if btRes.Slowdown-spRes.Slowdown > 0.15 {
		t.Errorf("even-slowdown left a wide gap: bt %v sp %v", btRes.Slowdown, spRes.Slowdown)
	}
}

func TestMisclassifiedJobRecoversWithFeedback(t *testing.T) {
	// BT claiming to be IS under a tight shared budget. Without feedback
	// the cluster starves it; with feedback the modeler's online fit
	// reaches the budgeter and the job speeds up. This is the §6.2
	// recovery mechanism end to end.
	run := func(useFeedback bool) float64 {
		v := clock.NewVirtual(t0)
		c, err := NewCluster(Config{
			Nodes:            4,
			Clock:            v,
			Budgeter:         budget.EvenSlowdown{},
			Target:           constTarget(840),
			Seed:             2,
			UseFeedback:      useFeedback,
			RetrainThreshold: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var results map[string]JobResult
		Drive(v, func() {
			results, err = c.RunJobs(context.Background(), []JobSpec{
				{ID: "bt-mis", Type: workload.MustByName("bt"), ClaimedType: "is.D.32"},
				{ID: "sp-ok", Type: workload.MustByName("sp")},
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return results["bt-mis"].Slowdown
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("feedback did not recover misclassified job: %v (with) vs %v (without)", with, without)
	}
}

func TestTrackingRecorderPopulated(t *testing.T) {
	v := clock.NewVirtual(t0)
	c := newCluster(t, v, 2, budget.EvenPower{}, 500)
	defer c.Close()
	Drive(v, func() {
		if _, err := c.RunJob(context.Background(), JobSpec{ID: "tr", Type: workload.MustByName("is")}); err != nil {
			t.Error(err)
		}
	})
	pts := c.Tracking()
	if len(pts) < 5 {
		t.Fatalf("tracking points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Target != 500 {
			t.Fatalf("target = %v", p.Target)
		}
		if p.Measured <= 0 {
			t.Fatalf("measured = %v", p.Measured)
		}
	}
}

func TestVariationScalesRuntime(t *testing.T) {
	v := clock.NewVirtual(t0)
	c := newCluster(t, v, 1, budget.EvenPower{}, 300)
	defer c.Close()
	typ := workload.MustByName("is")
	var res JobResult
	var err error
	Drive(v, func() {
		res, err = c.RunJob(context.Background(), JobSpec{ID: "v", Type: typ, Variation: 1.5})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := typ.BaseSeconds * 1.5
	if math.Abs(res.AppSeconds-want) > 0.05*want {
		t.Errorf("varied AppSeconds = %v, want ≈%v", res.AppSeconds, want)
	}
	// Slowdown is relative to the varied baseline, so it stays ≈1.
	if res.Slowdown < 0.99 || res.Slowdown > 1.05 {
		t.Errorf("slowdown = %v", res.Slowdown)
	}
}
