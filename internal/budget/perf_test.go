package budget

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// perfJobs builds n jobs cycling through the long-running NPB types, the
// job population the simulator hands the budgeter every step.
func perfJobs(n int) []Job {
	types := workload.LongRunning()
	jobs := make([]Job, n)
	for i := range jobs {
		typ := types[i%len(types)]
		jobs[i] = Job{
			ID:    fmt.Sprintf("job-%03d", i),
			Nodes: typ.Nodes,
			Model: typ.RelativeModel(),
		}
	}
	return jobs
}

func perfBudget(jobs []Job) units.Power {
	var min, max units.Power
	for _, j := range jobs {
		min += j.minPower()
		max += j.maxPower()
	}
	return min + (max-min)/2
}

// TestAllocateIntoMatchesAllocate pins the Budgeter contract: for every
// policy the map form and the slice form must select identical caps —
// Allocate is a wrapper over AllocateInto and may never drift.
func TestAllocateIntoMatchesAllocate(t *testing.T) {
	jobs := perfJobs(17)
	budgets := []units.Power{
		0, perfBudget(jobs) / 4, perfBudget(jobs), 10 * perfBudget(jobs),
	}
	for _, b := range []Budgeter{EvenPower{}, EvenSlowdown{}, Uniform{}} {
		for _, budget := range budgets {
			alloc := b.Allocate(jobs, budget)
			out := make([]units.Power, len(jobs))
			b.AllocateInto(jobs, budget, out)
			for i, j := range jobs {
				if alloc[j.ID] != out[i] {
					t.Errorf("%s budget %v: job %s cap %v (map) vs %v (slice)",
						b.Name(), budget, j.ID, alloc[j.ID], out[i])
				}
			}
		}
	}
}

// TestAllocateIntoZeroAlloc enforces the AllocateInto contract that makes
// the simulator's capping pass allocation-free: with a caller-provided
// output slice, no policy may touch the heap.
func TestAllocateIntoZeroAlloc(t *testing.T) {
	jobs := perfJobs(32)
	budget := perfBudget(jobs)
	out := make([]units.Power, len(jobs))
	for _, b := range []Budgeter{EvenPower{}, EvenSlowdown{}, Uniform{}} {
		allocs := testing.AllocsPerRun(50, func() {
			b.AllocateInto(jobs, budget, out)
		})
		if allocs != 0 {
			t.Errorf("%s: AllocateInto allocates %.1f objects per call, want 0", b.Name(), allocs)
		}
	}
}

// TestAllocateIntoSaturatedModelZeroAlloc covers EvenSlowdown's
// saturated branches (budget below the minimum and above the maximum),
// which take different code paths than the interior slowdown solve.
func TestAllocateIntoSaturatedModelZeroAlloc(t *testing.T) {
	jobs := perfJobs(8)
	out := make([]units.Power, len(jobs))
	for _, budget := range []units.Power{0, 1e9} {
		allocs := testing.AllocsPerRun(50, func() {
			EvenSlowdown{}.AllocateInto(jobs, budget, out)
		})
		if allocs != 0 {
			t.Errorf("budget %v: AllocateInto allocates %.1f objects per call, want 0", budget, allocs)
		}
	}
}

// TestEvenSlowdownIntoMeetsBudget re-asserts the budget bound through the
// slice form directly (the map-form tests cover Allocate).
func TestEvenSlowdownIntoMeetsBudget(t *testing.T) {
	jobs := perfJobs(9)
	budget := perfBudget(jobs)
	out := make([]units.Power, len(jobs))
	EvenSlowdown{}.AllocateInto(jobs, budget, out)
	total := totalPowerOf(jobs, out)
	if total > budget {
		t.Errorf("allocation %v exceeds budget %v", total, budget)
	}
	if total < budget*0.98 {
		t.Errorf("allocation %v leaves too much of budget %v unused", total, budget)
	}
	for i, j := range jobs {
		if out[i] < j.Model.PMin || out[i] > j.Model.PMax {
			t.Errorf("job %s cap %v outside model range [%v, %v]", j.ID, out[i], j.Model.PMin, j.Model.PMax)
		}
	}
}

// TestTotalPowerOfMatchesAllocation keeps the two total-power sums —
// map-keyed and slice-keyed — interchangeable, including their float
// summation order.
func TestTotalPowerOfMatchesAllocation(t *testing.T) {
	jobs := perfJobs(13)
	caps := make([]units.Power, len(jobs))
	alloc := make(Allocation, len(jobs))
	for i, j := range jobs {
		caps[i] = j.Model.PMin + units.Power(i)*7.3
		alloc[j.ID] = caps[i]
	}
	if got, want := totalPowerOf(jobs, caps), alloc.TotalPower(jobs); got != want {
		t.Errorf("totalPowerOf = %v, Allocation.TotalPower = %v", got, want)
	}
}

// TestUniformIntoEmptyCluster pins the zero-node edge the map form
// expresses as an empty allocation: the slice form fills PMax (no cap).
func TestUniformIntoEmptyCluster(t *testing.T) {
	jobs := []Job{{ID: "z", Nodes: 0, Model: workload.MustByName("bt").RelativeModel()}}
	out := make([]units.Power, 1)
	Uniform{}.AllocateInto(jobs, 1000, out)
	if out[0] != jobs[0].Model.PMax {
		t.Errorf("zero-node job cap = %v, want PMax %v", out[0], jobs[0].Model.PMax)
	}
	if got := (Uniform{}).Allocate(jobs, 1000); len(got) != 0 {
		t.Errorf("map form with zero nodes = %v, want empty", got)
	}
}

func benchmarkAllocate(b *testing.B, bud Budgeter, n int) {
	jobs := perfJobs(n)
	budget := perfBudget(jobs)
	b.Run(fmt.Sprintf("%s/into/%djobs", bud.Name(), n), func(b *testing.B) {
		out := make([]units.Power, len(jobs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bud.AllocateInto(jobs, budget, out)
		}
		if math.IsNaN(out[0].Watts()) {
			b.Fatal("sink")
		}
	})
	b.Run(fmt.Sprintf("%s/map/%djobs", bud.Name(), n), func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := bud.Allocate(jobs, budget)
			if len(a) != len(jobs) {
				b.Fatal("short allocation")
			}
		}
	})
}

// BenchmarkAllocate compares the allocation-free slice form against the
// map form for both balancing policies at simulator-realistic job counts.
func BenchmarkAllocate(b *testing.B) {
	for _, n := range []int{8, 64} {
		benchmarkAllocate(b, EvenSlowdown{}, n)
		benchmarkAllocate(b, EvenPower{}, n)
	}
}
