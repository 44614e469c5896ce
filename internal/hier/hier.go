// Package hier implements the scalability extension the paper outlines in
// §8: introducing additional control hierarchy between the cluster tier
// and the job tier so the cluster manager's fan-out does not grow with
// the number of concurrent jobs.
//
// A rack proxy aggregates the jobs beneath it into a single synthetic
// power-performance curve — the rack's achievable (per-node power →
// worst-job slowdown) frontier under local even-slowdown balancing — and
// presents itself to the cluster tier as one big job. When the cluster
// tier sends the rack one cap, the proxy re-balances it locally across
// its member jobs. Because even-slowdown allocation composes (equalizing
// slowdowns within racks and then across racks equalizes them globally),
// the two-level scheme reproduces the flat allocation while cutting the
// cluster tier's connection count from jobs to racks.
package hier

import (
	"errors"

	"repro/internal/budget"
	"repro/internal/perfmodel"
	"repro/internal/stats"
	"repro/internal/units"
)

// RackModel synthesizes the aggregate per-node power-performance curve of
// a set of jobs under local even-slowdown balancing: for each candidate
// slowdown s, the rack needs Σ_j n_j·P_j(s) total watts; normalizing by
// the rack's node count gives a per-node curve in the same form as a job
// model, fit to the §4.2 quadratic so it travels over the existing
// protocol unchanged.
func RackModel(jobs []budget.Job) (perfmodel.Model, error) {
	if len(jobs) == 0 {
		return perfmodel.Model{}, errors.New("hier: rack requires jobs")
	}
	nodes := 0
	sMax := 1.0
	for _, j := range jobs {
		if j.Nodes <= 0 {
			return perfmodel.Model{}, errors.New("hier: job with no nodes")
		}
		nodes += j.Nodes
		if s := j.Model.SlowdownAt(j.Model.PMin); s > sMax {
			sMax = s
		}
	}
	if sMax <= 1 {
		// All members flat: a constant curve over their power range.
		var minP, maxP units.Power
		for _, j := range jobs {
			minP += j.Model.PMin * units.Power(j.Nodes)
			maxP += j.Model.PMax * units.Power(j.Nodes)
		}
		per := func(p units.Power) units.Power { return p / units.Power(nodes) }
		return perfmodel.Model{C: 1, PMin: per(minP), PMax: per(maxP)}, nil
	}

	// Sample the frontier uniformly in slowdown: s → per-node power for
	// local even-slowdown balancing at s. The frontier is steep near the
	// rack's minimum power, so uniform-in-slowdown places samples where
	// the curve carries information.
	const samples = 33
	var caps, times []float64
	for i := 0; i < samples; i++ {
		s := 1 + (sMax-1)*float64(i)/float64(samples-1)
		var total units.Power
		for _, j := range jobs {
			total += j.Model.PowerForSlowdown(s) * units.Power(j.Nodes)
		}
		caps = append(caps, total.Watts()/float64(nodes))
		times = append(times, s)
	}
	pMin := units.Power(caps[len(caps)-1]) // at sMax, power is lowest
	pMax := units.Power(caps[0])
	m, _, err := perfmodel.Fit(caps, times, pMin, pMax)
	if err != nil {
		return perfmodel.Model{}, err
	}
	if !m.Monotone(50) || m.Validate() != nil {
		// Fall back to a linear fit through the endpoints, which is
		// always monotone for a decreasing frontier.
		b := (times[0] - times[len(times)-1]) / (caps[0] - caps[len(caps)-1])
		c := times[0] - b*caps[0]
		m = perfmodel.Model{B: b, C: c, PMin: pMin, PMax: pMax}
	}
	return m, nil
}

// Rack groups jobs under one proxy identity.
type Rack struct {
	// ID is the rack's identity toward the cluster tier.
	ID string
	// Jobs are the member jobs with their believed models.
	Jobs []budget.Job
}

// Nodes returns the rack's total node count.
func (r Rack) Nodes() int {
	n := 0
	for _, j := range r.Jobs {
		n += j.Nodes
	}
	return n
}

// AsJob presents the rack to the cluster tier as a single budgeter job.
func (r Rack) AsJob() (budget.Job, error) {
	m, err := RackModel(r.Jobs)
	if err != nil {
		return budget.Job{}, err
	}
	return budget.Job{ID: r.ID, Nodes: r.Nodes(), Model: m}, nil
}

// Distribute re-balances the rack's granted per-node cap across member
// jobs with local even-slowdown allocation.
func (r Rack) Distribute(perNodeCap units.Power) budget.Allocation {
	total := perNodeCap * units.Power(r.Nodes())
	return budget.EvenSlowdown{}.Allocate(r.Jobs, total)
}

// TwoLevelAllocate runs the wire-faithful hierarchical scheme: racks are
// reduced to synthetic quadratic-model jobs (what the existing protocol
// can carry), the cluster budgeter splits the budget across racks, and
// each rack re-balances its grant locally. The returned allocation is per
// real job.
//
// Squeezing a rack's frontier — which has kinks where members saturate at
// their minimum caps — into the §4.2 quadratic loses some fidelity:
// per-job slowdowns can deviate from the flat allocation by up to roughly
// 0.1–0.15 when a rack mixes very different sensitivities. That is the
// price of keeping cluster-tier messages per rack instead of per job; see
// TwoLevelAllocateExact for the zero-error variant that spends an extra
// query round instead.
func TwoLevelAllocate(racks []Rack, clusterBudgeter budget.Budgeter, total units.Power) (budget.Allocation, error) {
	var rackJobs []budget.Job
	byID := map[string]Rack{}
	for _, r := range racks {
		j, err := r.AsJob()
		if err != nil {
			return nil, err
		}
		rackJobs = append(rackJobs, j)
		byID[r.ID] = r
	}
	rackAlloc := clusterBudgeter.Allocate(rackJobs, total)
	out := budget.Allocation{}
	for id, cap := range rackAlloc {
		for jobID, jobCap := range byID[id].Distribute(cap) {
			out[jobID] = jobCap
		}
	}
	return out, nil
}

// TwoLevelAllocateExact equalizes slowdown across racks against their
// true frontiers (each rack answers "how much power do you need for
// worst slowdown s?" queries) instead of fitted quadratics. It reproduces
// the flat even-slowdown allocation exactly, at the cost of an
// interactive query round between tiers — the other side of the §8
// communication/locality trade-off. The query rounds solve for the same
// s as a flat EvenSlowdown over every rack's jobs, which is how it is
// computed here.
func TwoLevelAllocateExact(racks []Rack, total units.Power) (budget.Allocation, error) {
	var jobs []budget.Job
	for _, r := range racks {
		if len(r.Jobs) == 0 {
			return nil, errors.New("hier: empty rack")
		}
		jobs = append(jobs, r.Jobs...)
	}
	return budget.EvenSlowdown{}.Allocate(jobs, total), nil
}

// MaxSlowdownError measures how far a hierarchical allocation's per-job
// slowdowns deviate from a reference allocation's, used to validate the
// composition property in tests and ablations.
func MaxSlowdownError(jobs []budget.Job, a, b budget.Allocation) float64 {
	worst := 0.0
	for _, j := range jobs {
		sa := j.Model.SlowdownAt(a[j.ID])
		sb := j.Model.SlowdownAt(b[j.ID])
		d := sa - sb
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// randomizedRackSplit partitions jobs into k racks round-robin, a helper
// for ablation studies of rack granularity.
func randomizedRackSplit(jobs []budget.Job, k int, rng *stats.RNG) []Rack {
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(len(jobs))
	racks := make([]Rack, k)
	for i := range racks {
		racks[i].ID = "rack-" + string(rune('a'+i))
	}
	for i, idx := range perm {
		r := &racks[i%k]
		r.Jobs = append(r.Jobs, jobs[idx])
	}
	var out []Rack
	for _, r := range racks {
		if len(r.Jobs) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// RandomRacks partitions jobs into k non-empty racks for experiments.
func RandomRacks(jobs []budget.Job, k int, seed uint64) []Rack {
	return randomizedRackSplit(jobs, k, stats.NewRNG(seed))
}
