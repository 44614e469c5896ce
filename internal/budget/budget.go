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

// AllocateInto implements Budgeter without allocating. When the job-order
// sum of the caps exceeds a feasible budget by its rounding, γ is
// lowered until it fits (fitScale).
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
	caps := func(gamma float64) units.Power {
		for i, j := range jobs {
			cap := units.Power(gamma)*(j.Model.PMax-j.Model.PMin) + j.Model.PMin
			out[i] = cap.Clamp(j.Model.PMin, j.Model.PMax)
		}
		return totalPowerOf(jobs, out)
	}
	// γ > 0 means budget > minSum, the total at γ = 0.
	if caps(gamma) > budget && gamma > 0 {
		fitScale(gamma, budget, caps)
	}
}

// fitScale lowers a policy's common scale x (EvenPower's γ, Uniform's
// per-node cap) to the largest value at or below it whose caps fit the
// budget. caps writes the caps at a scale into out and returns their
// job-order total, which must not decrease as the scale grows. On entry
// out holds the caps at x, which exceed the budget, and the caps at 0 fit
// it; on return out holds the caps at the largest scale that fits.
//
// The first step is one ulp, which is all the rounding of the sum
// usually takes. Strides then double, so the search ends within about a
// hundred passes even where one ulp of x moves no cap, and a bisection
// between the last two scales tried finds the largest one that fits.
func fitScale(x float64, budget units.Power, caps func(float64) units.Power) {
	hi, fit := x, 0.0 // caps(hi) > budget ≥ caps(fit)
	for stride := x - math.Nextafter(x, 0); stride < x; stride *= 2 {
		if caps(x-stride) <= budget {
			fit = x - stride
			break
		}
		hi = x - stride
	}
	for {
		mid := fit + (hi-fit)/2
		if mid <= fit || mid >= hi {
			break
		}
		if caps(mid) <= budget {
			fit = mid
		} else {
			hi = mid
		}
	}
	caps(fit)
}

// EvenSlowdown is the performance-aware balancer (§4.4.3): a single
// expected-slowdown limit s is applied to every job,
//
//	p_cap = P_j(s·T_j(p_max)),
//
// chosen so total power meets the budget. Jobs whose model saturates at
// the platform minimum cap level off there (Fig. 4).
//
// The slowdown is found by a safeguarded Newton solve of
// f(s) = Σ n_j·P_j(s·T_j(p_max)) − budget over [1, sMax], with P_j in
// closed form (perfmodel.Model.PowerFor). The solve keeps no state
// between calls, so the caps depend only on the jobs and the budget.
type EvenSlowdown struct{}

// Name implements Budgeter.
func (EvenSlowdown) Name() string { return "even-slowdown" }

// Allocate implements Budgeter.
func (b EvenSlowdown) Allocate(jobs []Job, budget units.Power) Allocation {
	return allocateViaInto(b, jobs, budget)
}

// slowdownTol is the relative step at which the Newton solve stops.
const slowdownTol = 1e-12

// AllocateInto implements Budgeter without allocating: every candidate
// slowdown is evaluated directly into out.
//
// f is non-increasing in s, and convex for convex models, so Newton
// steps from the f > 0 side approach the root without crossing it. The
// solve therefore stops only on the feasible side (f ≤ 0, Σ caps within
// the budget): at a Newton step below the tolerance, or once a feasible
// point brackets the root to the tolerance. A step below the tolerance
// from f > 0 steps across the root by twice the tolerance instead. A step
// that leaves the bracket, or a slope that is not negative (every job
// clamped, as next to the jump a flat model's cap makes just above
// s = 1), bisects.
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
	switch {
	case budget >= maxSum:
		for i, j := range jobs {
			out[i] = j.Model.PMax
		}
		return
	case budget <= minSum:
		for i, j := range jobs {
			out[i] = j.Model.PMin
		}
		return
	}
	// Start from the secant through the bracket's endpoint values,
	// f(1) = maxSum − budget > 0 and f(sMax) = minSum − budget < 0.
	lo, hi := 1.0, sMax
	flo, fhi := (maxSum - budget).Watts(), (minSum - budget).Watts()
	s := lo + (hi-lo)*flo/(flo-fhi)
	for iter := 0; iter < 200; iter++ {
		if !(s > lo && s < hi) {
			if s = lo + (hi-lo)/2; !(s > lo && s < hi) {
				break // no float left between lo and hi
			}
		}
		f, slope := slowdownCaps(jobs, s, sMax, out)
		f -= budget.Watts()
		if f <= 0 {
			// Feasible, with the root bracketed to the tolerance: done.
			if hi = s; hi-lo <= 4*slowdownTol*hi {
				return
			}
		} else {
			lo = s
		}
		if !(slope < 0) || math.IsInf(slope, 0) {
			s = lo + (hi-lo)/2
			continue
		}
		switch step := -f / slope; {
		case math.Abs(step) > slowdownTol*s:
			s += step
		case f <= 0:
			return
		default:
			s += 2 * slowdownTol * s // step across the root
		}
	}
	slowdownCaps(jobs, hi, sMax, out)
}

// slowdownCaps writes every job's cap at slowdown s into out, returning
// the total power Σ n_j·cap_j (summed in job order, as totalPowerOf and
// Allocation.TotalPower do) and its derivative in s over the jobs whose
// cap is not clamped. At s ≥ sMax every job is at its minimum cap, even
// where rounding puts sMax·T(PMax) a hair below the slowest job's
// T(PMin), and even when every model is flat (sMax = 1).
func slowdownCaps(jobs []Job, s, sMax float64, out []units.Power) (total, slope float64) {
	for i, j := range jobs {
		m := j.Model
		tMin := m.MinTime()
		cap := m.PMin
		if s < sMax {
			cap = m.PowerFor(s * tMin) // PowerForSlowdown(s), reusing tMin
		}
		out[i] = cap
		n := float64(j.Nodes)
		total += cap.Watts() * n
		if cap > m.PMin && cap < m.PMax {
			// dP/ds = T(PMax) / T′(P).
			slope += n * tMin / (2*m.A*cap.Watts() + m.B)
		}
	}
	return total, slope
}

// Uniform caps every node at budget divided by total node count,
// regardless of job models — the cluster-wide uniform distribution used as
// the baseline in Fig. 10 and by AQA's node capping (§4.4.2). Each cap is
// clamped to its job's range; where that would overrun a feasible budget,
// the common per-node level is lowered until Σ caps fits.
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

// AllocateInto implements Budgeter without allocating. When the
// job-order sum of the caps exceeds a feasible budget, by rounding or
// because jobs whose minimum cap is above the level are held at it, the
// level is lowered until the sum fits (fitScale).
func (Uniform) AllocateInto(jobs []Job, budget units.Power, out []units.Power) {
	nodes := 0
	var minSum units.Power
	for _, j := range jobs {
		nodes += j.Nodes
		minSum += j.minPower()
	}
	if nodes == 0 {
		for i, j := range jobs {
			out[i] = j.Model.PMax
		}
		return
	}
	caps := func(per float64) units.Power {
		for i, j := range jobs {
			out[i] = units.Power(per).Clamp(j.Model.PMin, j.Model.PMax)
		}
		return totalPowerOf(jobs, out)
	}
	per := (budget / units.Power(nodes)).Watts()
	if caps(per) > budget && budget >= minSum {
		fitScale(per, budget, caps)
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
