package budget

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/workload"
)

// catalogJobs builds one budgeter Job per catalog type, one instance each,
// as in Fig. 4.
func catalogJobs() []Job {
	var jobs []Job
	for _, t := range workload.Catalog() {
		jobs = append(jobs, Job{ID: t.Name, Nodes: t.Nodes, Model: t.RelativeModel()})
	}
	return jobs
}

// randomJobs draws 1–64 jobs of random catalog types, 1–8 nodes each.
func randomJobs(rng *rand.Rand) []Job {
	types := workload.Catalog()
	jobs := make([]Job, 1+rng.Intn(64))
	for i := range jobs {
		typ := types[rng.Intn(len(types))]
		jobs[i] = Job{ID: fmt.Sprintf("j%02d", i), Nodes: 1 + rng.Intn(8), Model: typ.RelativeModel()}
	}
	return jobs
}

var budgeters = []Budgeter{EvenPower{}, EvenSlowdown{}, Uniform{}}

func totalRange(jobs []Job) (min, max units.Power) {
	for _, j := range jobs {
		min += j.Model.PMin * units.Power(j.Nodes)
		max += j.Model.PMax * units.Power(j.Nodes)
	}
	return min, max
}

func TestEvenPowerMeetsBudget(t *testing.T) {
	jobs := catalogJobs()
	min, max := totalRange(jobs)
	for budget := min; budget <= max; budget += 100 {
		alloc := EvenPower{}.Allocate(jobs, budget)
		got := alloc.TotalPower(jobs)
		if math.Abs(got.Watts()-budget.Watts()) > 1 {
			t.Errorf("even-power at %v used %v", budget, got)
		}
	}
}

func TestEvenPowerEqualGamma(t *testing.T) {
	jobs := catalogJobs()
	min, max := totalRange(jobs)
	budget := (min + max) / 2
	alloc := EvenPower{}.Allocate(jobs, budget)
	var gammas []float64
	for _, j := range jobs {
		g := (alloc[j.ID] - j.Model.PMin).Watts() / (j.Model.PMax - j.Model.PMin).Watts()
		gammas = append(gammas, g)
	}
	for _, g := range gammas[1:] {
		if math.Abs(g-gammas[0]) > 1e-9 {
			t.Fatalf("gammas differ: %v", gammas)
		}
	}
}

func TestEvenPowerSaturation(t *testing.T) {
	jobs := catalogJobs()
	min, max := totalRange(jobs)
	low := EvenPower{}.Allocate(jobs, min-500)
	for _, j := range jobs {
		if low[j.ID] != j.Model.PMin {
			t.Errorf("below-min budget: %s capped at %v, want PMin", j.ID, low[j.ID])
		}
	}
	high := EvenPower{}.Allocate(jobs, max+500)
	for _, j := range jobs {
		if high[j.ID] != j.Model.PMax {
			t.Errorf("above-max budget: %s capped at %v, want PMax", j.ID, high[j.ID])
		}
	}
}

func TestEvenSlowdownMeetsBudget(t *testing.T) {
	jobs := catalogJobs()
	min, max := totalRange(jobs)
	for budget := min + 50; budget < max; budget += 100 {
		alloc := EvenSlowdown{}.Allocate(jobs, budget)
		got := alloc.TotalPower(jobs)
		if math.Abs(got.Watts()-budget.Watts()) > 2 {
			t.Errorf("even-slowdown at %v used %v", budget, got)
		}
	}
}

func TestEvenSlowdownEqualizesUnsaturatedJobs(t *testing.T) {
	jobs := catalogJobs()
	min, max := totalRange(jobs)
	budget := min + (max-min)*6/10
	alloc := EvenSlowdown{}.Allocate(jobs, budget)
	truth := map[string]perfmodel.Model{}
	for _, j := range jobs {
		truth[j.ID] = j.Model
	}
	slows := ExpectedSlowdowns(jobs, truth, alloc)
	// Jobs not pinned at PMin should share one slowdown value.
	var shared []float64
	for _, j := range jobs {
		if alloc[j.ID] > j.Model.PMin+1e-6 {
			shared = append(shared, slows[j.ID])
		}
	}
	if len(shared) < 2 {
		t.Fatalf("too few unsaturated jobs to compare: %v", shared)
	}
	for _, s := range shared[1:] {
		if math.Abs(s-shared[0]) > 1e-3 {
			t.Fatalf("unsaturated slowdowns differ: %v", shared)
		}
	}
}

func TestEvenSlowdownBeatsEvenPowerOnWorstJob(t *testing.T) {
	// §6.1.1: in mid-range budgets the even-slowdown policy reduces the
	// worst job's slowdown.
	jobs := catalogJobs()
	truth := map[string]perfmodel.Model{}
	for _, j := range jobs {
		truth[j.ID] = j.Model
	}
	min, max := totalRange(jobs)
	improved := 0
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		budget := min + units.Power(frac)*(max-min)
		evenP := WorstSlowdown(ExpectedSlowdowns(jobs, truth, EvenPower{}.Allocate(jobs, budget)))
		evenS := WorstSlowdown(ExpectedSlowdowns(jobs, truth, EvenSlowdown{}.Allocate(jobs, budget)))
		if evenS > evenP+1e-9 {
			t.Errorf("at %.0f%% budget: even-slowdown worst %.4f > even-power worst %.4f", frac*100, evenS, evenP)
		}
		if evenS < evenP-1e-3 {
			improved++
		}
	}
	if improved == 0 {
		t.Error("even-slowdown never improved the worst job in mid-range budgets")
	}
}

func TestEvenSlowdownExtremes(t *testing.T) {
	// §6.1.1: no opportunity at the extremes — both policies pin caps.
	jobs := catalogJobs()
	min, max := totalRange(jobs)
	lo := EvenSlowdown{}.Allocate(jobs, min)
	hi := EvenSlowdown{}.Allocate(jobs, max+10)
	for _, j := range jobs {
		if lo[j.ID] != j.Model.PMin {
			t.Errorf("min budget: %s at %v, want PMin", j.ID, lo[j.ID])
		}
		if hi[j.ID] != j.Model.PMax {
			t.Errorf("max budget: %s at %v, want PMax", j.ID, hi[j.ID])
		}
	}
}

func TestUniformBudgeter(t *testing.T) {
	jobs := catalogJobs()
	nodes := 0
	for _, j := range jobs {
		nodes += j.Nodes
	}
	alloc := Uniform{}.Allocate(jobs, units.Power(nodes)*200)
	for _, j := range jobs {
		want := units.Power(200).Clamp(j.Model.PMin, j.Model.PMax)
		if alloc[j.ID] != want {
			t.Errorf("uniform cap for %s = %v, want %v", j.ID, alloc[j.ID], want)
		}
	}
}

func TestAllocateEmptyJobs(t *testing.T) {
	for _, b := range []Budgeter{EvenPower{}, EvenSlowdown{}, Uniform{}} {
		if alloc := b.Allocate(nil, 1000); len(alloc) != 0 {
			t.Errorf("%s: non-empty allocation for no jobs", b.Name())
		}
	}
}

// TestAllocationsWithinModelRange checks every policy, on the catalog
// and on random job sets, from below the minimum-cap total to above the
// maximum: each job gets a cap inside its model range, and the slice form
// AllocateInto selects exactly the caps of the map form Allocate.
func TestAllocationsWithinModelRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := [][]Job{catalogJobs()}
	for i := 0; i < 40; i++ {
		sets = append(sets, randomJobs(rng))
	}
	for _, jobs := range sets {
		min, max := totalRange(jobs)
		step := (max - min + 400) / 24
		out := make([]units.Power, len(jobs))
		for _, b := range budgeters {
			for budget := min - 200; budget <= max+200; budget += step {
				alloc := b.Allocate(jobs, budget)
				if len(alloc) != len(jobs) {
					t.Fatalf("%s: allocation missing jobs", b.Name())
				}
				b.AllocateInto(jobs, budget, out)
				for i, j := range jobs {
					cap := alloc[j.ID]
					if cap < j.Model.PMin-1e-9 || cap > j.Model.PMax+1e-9 {
						t.Errorf("%s at %v: %s cap %v outside [%v, %v]",
							b.Name(), budget, j.ID, cap, j.Model.PMin, j.Model.PMax)
					}
					if out[i] != cap {
						t.Errorf("%s at %v: %s cap %v (Allocate) vs %v (AllocateInto)",
							b.Name(), budget, j.ID, cap, out[i])
					}
				}
			}
		}
	}
}

// largeJobs draws 1000–1500 jobs of random catalog types, 1–8 nodes
// each: a cluster-scale job set.
func largeJobs(rng *rand.Rand) []Job {
	types := workload.Catalog()
	jobs := make([]Job, 1000+rng.Intn(501))
	for i := range jobs {
		typ := types[rng.Intn(len(types))]
		jobs[i] = Job{ID: fmt.Sprintf("j%04d", i), Nodes: 1 + rng.Intn(8), Model: typ.RelativeModel()}
	}
	return jobs
}

// TestAllocationNeverExceedsBudgetProperty draws a random job set and a
// feasible budget (at least the minimum-cap total): every policy keeps
// Σ caps within the budget, gives no job a lower cap under a larger
// budget, and selects the same caps whatever the job order. The bound is
// exact, for the sum in job order.
func TestAllocationNeverExceedsBudgetProperty(t *testing.T) {
	const tol = 1e-6 // watts
	for _, tc := range []struct {
		name  string
		jobs  func(*rand.Rand) []Job
		count int
	}{
		{"small", randomJobs, 200},
		{"large", largeJobs, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64, raw, extra uint16) bool {
				rng := rand.New(rand.NewSource(seed))
				jobs := tc.jobs(rng)
				min, max := totalRange(jobs)
				budget := min + (max-min)*units.Power(1.2*float64(raw)/math.MaxUint16)
				larger := budget + (max-min)*units.Power(0.2*float64(extra)/math.MaxUint16)
				shuffled := append([]Job(nil), jobs...)
				rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
				for _, b := range budgeters {
					alloc := b.Allocate(jobs, budget)
					if total := alloc.TotalPower(jobs); total > budget {
						t.Errorf("%s: %d jobs granted %v > budget %v", b.Name(), len(jobs), total, budget)
					}
					more := b.Allocate(jobs, larger)
					perm := b.Allocate(shuffled, budget)
					for _, j := range jobs {
						if more[j.ID] < alloc[j.ID]-tol {
							t.Errorf("%s: %s cap fell from %v to %v as the budget grew from %v to %v",
								b.Name(), j.ID, alloc[j.ID], more[j.ID], budget, larger)
						}
						if d := math.Abs((perm[j.ID] - alloc[j.ID]).Watts()); d > tol {
							t.Errorf("%s: %s cap %v in job order, %v shuffled", b.Name(), j.ID, alloc[j.ID], perm[j.ID])
						}
					}
				}
				return !t.Failed()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: tc.count}); err != nil {
				t.Error(err)
			}
		})
	}
}

// fuzzJobs draws 1–64 jobs with random monotone models — convex,
// concave, linear and flat — over random power ranges, 1–64 nodes each.
func fuzzJobs(rng *rand.Rand) []Job {
	jobs := make([]Job, 1+rng.Intn(64))
	for i := range jobs {
		pMin := units.Power(40 + 160*rng.Float64())
		pMax := pMin + units.Power(1+250*rng.Float64())
		tMin := 0.1 + 10*rng.Float64()
		m := perfmodel.Model{C: tMin, PMin: pMin, PMax: pMax}
		if rng.Intn(8) != 0 {
			tMax := tMin * (1 + 2*rng.Float64())
			m = perfmodel.FromAnchors(pMin, pMax, tMax, tMin, 0.25+0.5*rng.Float64())
			if !m.Monotone(50) {
				m = perfmodel.FromAnchors(pMin, pMax, tMax, tMin, 0.5)
			}
		}
		jobs[i] = Job{ID: fmt.Sprintf("f%02d", i), Nodes: 1 + rng.Intn(64), Model: m}
	}
	return jobs
}

// addFuzzSeeds seeds a budgeter fuzz target with four job sets, each at
// budgets below, at, between and above the minimum- and maximum-cap
// totals.
func addFuzzSeeds(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, frac := range []float64{-0.1, 0, 1e-15, 0.3, 0.5, 0.999999, 1, 1.1} {
			f.Add(seed, frac)
		}
	}
}

// fuzzAllocate runs b on the fuzzJobs set seed draws, at the budget frac
// of the way from its minimum- to its maximum-cap total, and checks what
// every policy owes: each cap lies in its job's range, a feasible budget
// is never exceeded (Σ caps summed in job order, exactly), and the caps do
// not depend on the job order beyond 1e-6 W. The order check skips budgets
// within rounding of the minimum- or maximum-cap total: there the job
// order's summation decides whether the budget saturates, and a flat
// model's even-slowdown cap jumps between PMax (budget saturated) and PMin
// (slowdown above 1 costs it nothing). It returns the job set, budget,
// caps, their total and the maximum-cap total for the policy's own checks.
func fuzzAllocate(t *testing.T, b Budgeter, seed int64, frac float64) (jobs []Job, budget units.Power, out []units.Power, total, max units.Power) {
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		t.Skip()
	}
	rng := rand.New(rand.NewSource(seed))
	jobs = fuzzJobs(rng)
	min, max := totalRange(jobs)
	budget = min + (max-min)*units.Power(frac)
	out = make([]units.Power, len(jobs))
	b.AllocateInto(jobs, budget, out)
	for i, j := range jobs {
		if !(out[i] >= j.Model.PMin && out[i] <= j.Model.PMax) {
			t.Fatalf("%s: %s cap %v outside [%v, %v]", b.Name(), j.ID, out[i], j.Model.PMin, j.Model.PMax)
		}
	}
	total = totalPowerOf(jobs, out)
	if budget >= min && total > budget {
		t.Fatalf("%s: %d jobs granted %v > budget %v", b.Name(), len(jobs), total, budget)
	}
	if edge := 1e-9 * max.Watts(); math.Abs((budget-min).Watts()) <= edge || math.Abs((budget-max).Watts()) <= edge {
		return jobs, budget, out, total, max
	}
	perm := rng.Perm(len(jobs))
	shuffled := make([]Job, len(jobs))
	for i, k := range perm {
		shuffled[i] = jobs[k]
	}
	outPerm := make([]units.Power, len(jobs))
	b.AllocateInto(shuffled, budget, outPerm)
	for i, k := range perm {
		if d := math.Abs((outPerm[i] - out[k]).Watts()); d > 1e-6 {
			t.Fatalf("%s: %s cap %v in job order, %v shuffled", b.Name(), jobs[k].ID, out[k], outPerm[i])
		}
	}
	return jobs, budget, out, total, max
}

// FuzzEvenSlowdown checks the even-slowdown kernel on random job sets and
// budgets: fuzzAllocate's checks, and no feasible budget left unspent
// beyond 1e-6 relative where a slowdown above 1 could spend it.
func FuzzEvenSlowdown(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, frac float64) {
		jobs, budget, _, total, max := fuzzAllocate(t, EvenSlowdown{}, seed, frac)
		// Just above s = 1 every job runs at PMax but the flat ones,
		// which drop to PMin: no slowdown can spend more than that.
		var spendable units.Power
		for _, j := range jobs {
			cap := j.Model.PMax
			if j.Model.SlowdownAt(j.Model.PMin) <= 1 {
				cap = j.Model.PMin
			}
			spendable += cap * units.Power(j.Nodes)
		}
		if want := units.Power(math.Min(budget.Watts(), spendable.Watts())); budget < max && total < want-1e-6*max {
			t.Fatalf("%d jobs granted %v, want %v of budget %v", len(jobs), total, want, budget)
		}
	})
}

// FuzzEvenPower checks the even-power balancer: fuzzAllocate's checks, and
// a budget up to the maximum-cap total spent to 1e-9 relative, since one
// γ moves every job with a power range.
func FuzzEvenPower(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, frac float64) {
		jobs, budget, _, total, max := fuzzAllocate(t, EvenPower{}, seed, frac)
		if want := units.Power(math.Min(budget.Watts(), max.Watts())); total < want-1e-9*max {
			t.Fatalf("%d jobs granted %v, want %v of budget %v", len(jobs), total, want, budget)
		}
	})
}

// FuzzUniform checks the uniform policy: fuzzAllocate's checks, and that
// the caps are one per-node level p clamped to each job's range, with p
// at most budget/nodes. When no such p reaches budget/nodes, the caps
// must spend the budget to 1e-9 relative: p was lowered only as far as
// the sum needed.
func FuzzUniform(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, frac float64) {
		jobs, budget, out, total, maxSum := fuzzAllocate(t, Uniform{}, seed, frac)
		nodes := 0
		for _, j := range jobs {
			nodes += j.Nodes
		}
		// [lo, hi] are the levels p whose clamps give every cap.
		share := budget / units.Power(nodes)
		lo, hi := units.Power(math.Inf(-1)), share
		for i, j := range jobs {
			switch c, m := out[i], j.Model; {
			case m.PMin == m.PMax:
			case c == m.PMin:
				hi = min(hi, c)
			case c == m.PMax:
				lo = max(lo, c)
			default:
				lo, hi = max(lo, c), min(hi, c)
			}
		}
		if lo > hi {
			t.Fatalf("caps %v are not one per-node level at or below the even share %v", out, share)
		}
		if hi < share && total < budget-1e-9*maxSum {
			t.Fatalf("level lowered from %v to at most %v leaves %v of budget %v", share, hi, total, budget)
		}
	})
}

func TestMisclassificationShiftsSlowdowns(t *testing.T) {
	// Fig. 5 mechanics: misclassifying FT as IS (underprediction) starves
	// the unknown job; the budgeter believes FT tolerates low power.
	ep := workload.MustByName("ep")
	ft := workload.MustByName("ft")
	is := workload.MustByName("is")

	truth := map[string]perfmodel.Model{
		"ep": ep.RelativeModel(), "ft": ft.RelativeModel(), "is": is.RelativeModel(),
	}
	mk := func(ftModel perfmodel.Model) []Job {
		return []Job{
			{ID: "ep", Nodes: 4, Model: ep.RelativeModel()},
			{ID: "ft", Nodes: 2, Model: ftModel},
			{ID: "is", Nodes: 4, Model: is.RelativeModel()},
		}
	}
	budget := units.Power(10 * 200) // 10 nodes, mid-range
	ideal := ExpectedSlowdowns(mk(ft.RelativeModel()), truth, EvenSlowdown{}.Allocate(mk(ft.RelativeModel()), budget))
	under := ExpectedSlowdowns(mk(is.RelativeModel()), truth, EvenSlowdown{}.Allocate(mk(is.RelativeModel()), budget))
	if under["ft"] <= ideal["ft"]+1e-6 {
		t.Errorf("underprediction did not slow the unknown job: ideal %.4f vs under %.4f", ideal["ft"], under["ft"])
	}
	over := ExpectedSlowdowns(mk(ep.RelativeModel()), truth, EvenSlowdown{}.Allocate(mk(ep.RelativeModel()), budget))
	if over["ep"] <= ideal["ep"]+1e-6 {
		t.Errorf("overprediction did not slow the sensitive co-scheduled job: ideal %.4f vs over %.4f", ideal["ep"], over["ep"])
	}
}

func TestWorstSlowdown(t *testing.T) {
	if got := WorstSlowdown(nil); got != 1 {
		t.Errorf("WorstSlowdown(nil) = %v", got)
	}
	if got := WorstSlowdown(map[string]float64{"a": 1.2, "b": 1.7, "c": 1.1}); got != 1.7 {
		t.Errorf("WorstSlowdown = %v", got)
	}
}

func TestSortedIDs(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	ids := SortedIDs(m)
	if fmt.Sprint(ids) != "[a b c]" {
		t.Errorf("SortedIDs = %v", ids)
	}
}
