package experiments

import (
	"context"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationPoint is one setting's outcome in a design-choice sweep.
type AblationPoint struct {
	// Setting is the swept value (threshold, tolerance, ...).
	Setting float64
	// MisclassifiedSlowdown is the misclassified job's fractional
	// slowdown under the setting.
	MisclassifiedSlowdown float64
	// Trained reports whether the online model replaced the default.
	Trained bool
}

// misclassifiedRun runs the canonical feedback-recovery scenario (BT
// claiming IS next to SP under 840 W) with the given modeler retrain
// threshold, returning BT's slowdown.
func misclassifiedRun(seed uint64, retrainThreshold int, useFeedback bool) (AblationPoint, error) {
	v := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	cluster, err := core.NewCluster(core.Config{
		Nodes:            4,
		Clock:            v,
		Budgeter:         budget.EvenSlowdown{},
		Target:           func(time.Time) units.Power { return 840 },
		UseFeedback:      useFeedback,
		RetrainThreshold: retrainThreshold,
		Seed:             seed,
	})
	if err != nil {
		return AblationPoint{}, err
	}
	defer cluster.Close()
	var results map[string]core.JobResult
	var runErr error
	core.Drive(v, func() {
		results, runErr = cluster.RunJobs(context.Background(), []core.JobSpec{
			{ID: "bt-mis", Type: workload.MustByName("bt"), ClaimedType: "is.D.32", EpochNoiseStd: 0.01},
			{ID: "sp-ok", Type: workload.MustByName("sp"), EpochNoiseStd: 0.01},
		})
	})
	if runErr != nil {
		return AblationPoint{}, runErr
	}
	bt := results["bt-mis"]
	return AblationPoint{
		MisclassifiedSlowdown: bt.Slowdown - 1,
		Trained:               bt.ModelerTrained,
	}, nil
}

// AblateRetrainThreshold sweeps the modeler's retrain trigger (the paper
// fixes it at 10 epochs, §4.2) through the feedback-recovery scenario.
// Small thresholds react faster but fit on fewer points; large thresholds
// may never retrain before the job ends. The points run concurrently —
// each stands up its own emulated cluster — and every point reuses the
// same seed, so the threshold is the only variable across the sweep.
func AblateRetrainThreshold(seed uint64, thresholds []int) ([]AblationPoint, error) {
	if len(thresholds) == 0 {
		thresholds = []int{5, 10, 20, 50, 200}
	}
	return sweep.Map(context.Background(), len(thresholds), sweep.Options{},
		func(_ context.Context, run int) (AblationPoint, error) {
			p, err := misclassifiedRun(seed, thresholds[run], true)
			if err != nil {
				return AblationPoint{}, err
			}
			p.Setting = float64(thresholds[run])
			return p, nil
		})
}

// DefaultPolicyOutcome compares the two §6.1.2 default-model policies in
// the same scenario set as Fig. 5's mid budget: who pays for the
// misclassification risk.
type DefaultPolicyOutcome struct {
	// Policy names the assumption for unknown jobs.
	Policy string
	// UnknownSlowdown is the unknown (FT-like) job's slowdown.
	UnknownSlowdown float64
	// SensitiveSlowdown is the co-scheduled sensitive (EP-like) job's
	// slowdown.
	SensitiveSlowdown float64
}

// AblateDefaultPolicy evaluates assume-least vs assume-most sensitive
// defaults at one budget, model-analytically (fast).
func AblateDefaultPolicy(budgetW units.Power) []DefaultPolicyOutcome {
	ep := workload.MustByName("ep")
	ft := workload.MustByName("ft")
	is := workload.MustByName("is")

	mk := func(assumed string) DefaultPolicyOutcome {
		jobs := []budget.Job{
			{ID: "ep", Nodes: 4, Model: ep.RelativeModel()},
			{ID: "ft", Nodes: 2, Model: workload.MustByName(assumed).RelativeModel()},
			{ID: "is", Nodes: 4, Model: is.RelativeModel()},
		}
		alloc := budget.EvenSlowdown{}.Allocate(jobs, budgetW)
		return DefaultPolicyOutcome{
			UnknownSlowdown:   ft.RelativeModel().SlowdownAt(alloc["ft"]) - 1,
			SensitiveSlowdown: ep.RelativeModel().SlowdownAt(alloc["ep"]) - 1,
		}
	}
	least := mk("is")
	least.Policy = "assume-least-sensitive"
	most := mk("ep")
	most.Policy = "assume-most-sensitive"
	return []DefaultPolicyOutcome{least, most}
}
