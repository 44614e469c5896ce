// Package budget implements the cluster power budgeter (§4.1): the
// policies that split a cluster-wide power budget into per-job, per-node
// power caps.
//
// Two policies from §4.4.3 are provided. EvenPower is the
// performance-unaware balancer from AQA: every job is capped at the same
// fraction γ of its achievable power range. EvenSlowdown is the
// performance-aware balancer: every job is capped so its modeled slowdown
// is the same factor s, steering power toward power-sensitive jobs.
package budget

import (
	"math"
	"sort"

	"repro/internal/perfmodel"
	"repro/internal/stats"
	"repro/internal/units"
)

// Job is one running job's inputs to the budgeter: its size and the
// power-performance model the cluster tier currently believes (which may
// be a default or misclassified model — the budgeter does not know).
type Job struct {
	// ID identifies the job.
	ID string
	// Nodes is how many nodes the job occupies.
	Nodes int
	// Model is the believed per-node power-performance curve.
	Model perfmodel.Model
}

// minPower and maxPower are the job's total achievable power across its
// nodes.
func (j Job) minPower() units.Power { return j.Model.PMin * units.Power(j.Nodes) }
func (j Job) maxPower() units.Power { return j.Model.PMax * units.Power(j.Nodes) }

// Allocation maps job ID to the per-node power cap the budgeter selected.
type Allocation map[string]units.Power

// TotalPower returns the cluster power the allocation admits: per-node
// caps times node counts, summed over jobs.
func (a Allocation) TotalPower(jobs []Job) units.Power {
	var sum units.Power
	for _, j := range jobs {
		if cap, ok := a[j.ID]; ok {
			sum += cap * units.Power(j.Nodes)
		}
	}
	return sum
}

// Budgeter selects per-node power caps for running jobs under a total
// power budget.
type Budgeter interface {
	// Name identifies the policy in traces and reports.
	Name() string
	// Allocate distributes the budget. Implementations must return a cap
	// for every job, clamped to each job's model range, and should use as
	// much of the budget as the caps' granularity allows without
	// exceeding it (except when even minimum caps exceed the budget, in
	// which case all jobs get their minimum cap — hardware cannot go
	// lower). It is a convenience wrapper over AllocateInto for callers
	// that want a map keyed by job ID (the experiments' offline analyses
	// and the rack proxy's re-balance); the cluster manager and the
	// simulator call AllocateInto.
	Allocate(jobs []Job, budget units.Power) Allocation
	// AllocateInto is the allocation-free form of Allocate: it writes
	// job i's per-node cap to out[i] and performs no heap allocation, so
	// a caller stepping millions of simulated seconds can reuse one
	// scratch slice. out must have len(out) == len(jobs). The caps are
	// identical to Allocate's for the same inputs.
	AllocateInto(jobs []Job, budget units.Power, out []units.Power)
}

// allocateViaInto adapts a policy's AllocateInto to the map-based
// Allocate contract.
func allocateViaInto(b Budgeter, jobs []Job, budget units.Power) Allocation {
	alloc := make(Allocation, len(jobs))
	if len(jobs) == 0 {
		return alloc
	}
	out := make([]units.Power, len(jobs))
	b.AllocateInto(jobs, budget, out)
	for i, j := range jobs {
		alloc[j.ID] = out[i]
	}
	return alloc
}

// totalPowerOf mirrors Allocation.TotalPower for the slice form: per-node
// caps times node counts, summed in job order (the same order TotalPower
// visits, so the floating-point total is bit-identical).
func totalPowerOf(jobs []Job, caps []units.Power) units.Power {
	var sum units.Power
	for i, j := range jobs {
		sum += caps[i] * units.Power(j.Nodes)
	}
	return sum
}

// EvenPower is the performance-unaware balancer (§4.4.3): a single γ
// scales every job between its minimum and maximum power,
//
//	p_cap = γ·(p_max − p_min) + p_min,
//
// chosen so total power meets the budget.
type EvenPower struct{}

// Name implements Budgeter.
func (EvenPower) Name() string { return "even-power" }

// Allocate implements Budgeter.
func (b EvenPower) Allocate(jobs []Job, budget units.Power) Allocation {
	return allocateViaInto(b, jobs, budget)
}

// AllocateInto implements Budgeter without allocating.
func (EvenPower) AllocateInto(jobs []Job, budget units.Power, out []units.Power) {
	var minSum, rangeSum float64
	for _, j := range jobs {
		minSum += j.minPower().Watts()
		rangeSum += (j.maxPower() - j.minPower()).Watts()
	}
	gamma := 0.0
	if rangeSum > 0 {
		gamma = (budget.Watts() - minSum) / rangeSum
	}
	gamma = math.Max(0, math.Min(1, gamma))
	for i, j := range jobs {
		cap := units.Power(gamma)*(j.Model.PMax-j.Model.PMin) + j.Model.PMin
		out[i] = cap.Clamp(j.Model.PMin, j.Model.PMax)
	}
}

// EvenSlowdown is the performance-aware balancer (§4.4.3): a single
// expected-slowdown limit s is applied to every job,
//
//	p_cap = P_j(s·T_j(p_max)),
//
// chosen so total power meets the budget. Jobs whose model saturates at
// the platform minimum cap level off there (Fig. 4).
type EvenSlowdown struct{}

// Name implements Budgeter.
func (EvenSlowdown) Name() string { return "even-slowdown" }

// Allocate implements Budgeter.
func (b EvenSlowdown) Allocate(jobs []Job, budget units.Power) Allocation {
	return allocateViaInto(b, jobs, budget)
}

// AllocateInto implements Budgeter without allocating: the bisection
// evaluates candidate slowdowns directly into out.
func (EvenSlowdown) AllocateInto(jobs []Job, budget units.Power, out []units.Power) {
	if len(jobs) == 0 {
		return
	}
	var minSum, maxSum units.Power
	sMax := 1.0
	for _, j := range jobs {
		minSum += j.minPower()
		maxSum += j.maxPower()
		if s := j.Model.SlowdownAt(j.Model.PMin); s > sMax {
			sMax = s
		}
	}
	capsAt := func(s float64) {
		for i, j := range jobs {
			out[i] = j.Model.PowerForSlowdown(s)
		}
	}
	switch {
	case budget >= maxSum:
		capsAt(1)
		return
	case budget <= minSum:
		capsAt(sMax)
		return
	}
	// Total power is monotone non-increasing in s; bisect for the budget.
	s := stats.Bisect(func(s float64) float64 {
		capsAt(s)
		return totalPowerOf(jobs, out).Watts() - budget.Watts()
	}, 1, sMax, 1e-6, 200)
	capsAt(s)
	// Bisection can land a hair above the budget; nudge to the feasible
	// side by one more refinement step against the sorted slowdown curve.
	if totalPowerOf(jobs, out) > budget {
		capsAt(math.Min(sMax, s*(1+1e-6)))
	}
}

// Uniform caps every node at budget divided by total node count,
// regardless of job models — the cluster-wide uniform distribution used as
// the baseline in Fig. 10 and by AQA's node capping (§4.4.2).
type Uniform struct{}

// Name implements Budgeter.
func (Uniform) Name() string { return "uniform" }

// Allocate implements Budgeter.
func (b Uniform) Allocate(jobs []Job, budget units.Power) Allocation {
	nodes := 0
	for _, j := range jobs {
		nodes += j.Nodes
	}
	if nodes == 0 {
		return make(Allocation)
	}
	return allocateViaInto(b, jobs, budget)
}

// AllocateInto implements Budgeter without allocating.
func (Uniform) AllocateInto(jobs []Job, budget units.Power, out []units.Power) {
	nodes := 0
	for _, j := range jobs {
		nodes += j.Nodes
	}
	if nodes == 0 {
		for i, j := range jobs {
			out[i] = j.Model.PMax
		}
		return
	}
	per := budget / units.Power(nodes)
	for i, j := range jobs {
		out[i] = per.Clamp(j.Model.PMin, j.Model.PMax)
	}
}

// ExpectedSlowdowns evaluates an allocation against a set of "truth"
// models: the slowdown each job actually experiences when capped at the
// allocated level. Experiments use believed models for Allocate and truth
// models here to quantify misclassification cost (§6.1.2).
func ExpectedSlowdowns(jobs []Job, truth map[string]perfmodel.Model, alloc Allocation) map[string]float64 {
	out := make(map[string]float64, len(jobs))
	for _, j := range jobs {
		m, ok := truth[j.ID]
		if !ok {
			m = j.Model
		}
		cap, ok := alloc[j.ID]
		if !ok {
			cap = m.PMax
		}
		out[j.ID] = m.SlowdownAt(cap)
	}
	return out
}

// WorstSlowdown returns the largest slowdown in a slowdown map, or 1 for
// an empty map — the metric the even-slowdown policy minimizes (§6.1.1).
func WorstSlowdown(s map[string]float64) float64 {
	worst := 1.0
	for _, v := range s {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// SortedIDs returns a map's job IDs in lexical order, for deterministic
// iteration in reports and traces.
func SortedIDs[V any](m map[string]V) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
