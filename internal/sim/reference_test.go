package sim

// This file holds the simulator's oracle: a deliberately naive engine
// that shares the production engine's specification — job-ID order
// wherever order is observable, per-node fixed-point progress
// (progressDelta), cluster power as integer milliwatts per job, the FIFO
// free list, and the fail-stop requeue rule — but none of its machinery.
// It keys running jobs by ID in a map re-sorted every second, steps
// every second with no fast-forward, advances every busy node's progress
// every second, re-runs scheduling and capping every second, and settles
// the energy ledger every second. The golden test in equiv_test.go runs
// it side by side with Run and requires byte-identical results.

import (
	"encoding/csv"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

type refNodeState struct {
	jobID    string
	down     bool
	cap      units.Power
	power    units.Power
	coeff    float64
	progress uint64
}

type refRunningJob struct {
	job      *sched.Job
	typ      workload.Type
	nodes    []int
	believed perfmodel.Model
	handle   ledger.Handle
}

// runReference executes cfg (Arrivals, not Source) with the naive
// engine.
func runReference(cfg Config) (Result, error) {
	if cfg.IdlePower == 0 {
		cfg.IdlePower = workload.NodeIdlePower
	}
	if cfg.QoSLimit == 0 {
		cfg.QoSLimit = 5
	}
	if cfg.ExemptFraction == 0 {
		cfg.ExemptFraction = 0.8
	}
	types := map[string]workload.Type{}
	for _, t := range cfg.Types {
		types[t.Name] = t
	}

	rng := stats.NewRNG(cfg.Seed)
	nodes := make([]refNodeState, cfg.Nodes)
	free := make([]int, 0, cfg.Nodes) // FIFO: pop the front, push the back
	for i := range nodes {
		nodes[i].coeff = 1
		if cfg.VariationStd > 0 {
			c := rng.Normal(1, cfg.VariationStd)
			if c < 0.1 {
				c = 0.1
			}
			nodes[i].coeff = c
		}
		free = append(free, i)
	}

	scheduler, err := sched.New(cfg.Nodes, cfg.Weights)
	if err != nil {
		return Result{}, err
	}

	running := map[string]*refRunningJob{}
	var res Result
	var logger *csv.Writer
	if cfg.TableLog != nil {
		logger = csv.NewWriter(cfg.TableLog)
		if err := logger.Write([]string{"t_s", "running", "queued", "busy_nodes", "target_w", "measured_w"}); err != nil {
			return Result{}, err
		}
	}

	horizonS := int(cfg.Horizon / time.Second)
	maxS := 4 * horizonS
	nextArrival, nextFailure, down := 0, 0, 0
	var busyNodeSeconds float64
	var powerIntegral float64
	steps := 0

	believedModel := func(claimed string) perfmodel.Model {
		if m, ok := cfg.TypeModels[claimed]; ok {
			return m
		}
		return cfg.DefaultModel
	}
	// release returns a job's nodes to the free list in the order it took
	// them, except lost, which fails out of the pool.
	release := func(rj *refRunningJob, lost int) {
		for _, ni := range rj.nodes {
			nodes[ni] = refNodeState{coeff: nodes[ni].coeff, down: ni == lost}
			if ni != lost {
				free = append(free, ni)
			}
		}
		delete(running, rj.job.ID)
	}

	for t := 0; t <= maxS; t++ {
		now := simEpoch.Add(time.Duration(t) * time.Second)

		// 0. Fail-stop and recovery events due by this second, in
		// schedule order.
		for nextFailure < len(cfg.Failures) && cfg.Failures[nextFailure].At <= time.Duration(t)*time.Second {
			ev := cfg.Failures[nextFailure]
			nextFailure++
			n := &nodes[ev.Node]
			switch {
			case ev.Kind == faults.KindRecover:
				n.down = false
				free = append(free, ev.Node)
				down--
				if err := scheduler.AdjustCapacity(+1); err != nil {
					return Result{}, err
				}
				continue
			case n.jobID != "":
				rj := running[n.jobID]
				if err := scheduler.Requeue(rj.job, now); err != nil {
					return Result{}, err
				}
				res.Requeues++
				cfg.Ledger.Close(rj.handle, now.UnixMilli(), ledger.Requeued)
				release(rj, ev.Node)
			default:
				for k, ni := range free {
					if ni == ev.Node {
						free = append(free[:k:k], free[k+1:]...)
						break
					}
				}
				n.down = true
			}
			down++
			if err := scheduler.AdjustCapacity(-1); err != nil {
				return Result{}, err
			}
		}

		// 1. Node update: advance every busy node's progress at its cap,
		// then complete in sorted ID order.
		for _, id := range budget.SortedIDs(running) {
			rj := running[id]
			done := true
			for _, ni := range rj.nodes {
				n := &nodes[ni]
				if n.progress < progressOne {
					n.progress += progressDelta(n.coeff, progressRate(&rj.typ, n.cap))
				}
				if n.progress < progressOne {
					done = false
				}
			}
			if !done {
				continue
			}
			if _, err := scheduler.Complete(id, now); err != nil {
				return Result{}, err
			}
			cfg.Ledger.Close(rj.handle, now.UnixMilli(), ledger.Completed)
			release(rj, -1)
		}

		// 2. Admit arrivals (only within the horizon).
		for nextArrival < len(cfg.Arrivals) && cfg.Arrivals[nextArrival].At <= time.Duration(t)*time.Second {
			a := cfg.Arrivals[nextArrival]
			if a.At <= cfg.Horizon {
				typ := types[a.TypeName]
				scheduler.Submit(sched.Job{
					ID: a.JobID, TypeName: a.TypeName, ClaimedType: a.ClaimedType,
					Nodes: typ.Nodes, MinTime: typ.BaseSeconds,
				}, now)
			}
			nextArrival++
		}

		// 3. Schedule queued jobs onto free nodes.
		for _, j := range scheduler.StartEligible(now) {
			rj := &refRunningJob{job: j, typ: types[j.TypeName], believed: believedModel(j.ClaimedType)}
			rj.nodes = append([]int(nil), free[:j.Nodes]...)
			free = free[j.Nodes:]
			for _, ni := range rj.nodes {
				nodes[ni].jobID = j.ID
				nodes[ni].progress = 0
				nodes[ni].cap = workload.NodeTDP
			}
			rj.handle = cfg.Ledger.Open(ledger.JobMeta{
				ID: j.ID, Type: j.TypeName, Nodes: j.Nodes,
				SubmitMs: j.Submit.UnixMilli(), MinTimeS: j.MinTime,
			}, now.UnixMilli())
			running[j.ID] = rj
		}

		// 4. Power manager: pick caps against the current target. Down
		// nodes get no idle-power allowance.
		target := cfg.Bid.Target(cfg.Signal.At(time.Duration(t) * time.Second))
		busy := scheduler.BusyNodes()
		idle := cfg.Nodes - busy - down
		jobBudget := target - cfg.IdlePower*units.Power(idle)
		referenceApplyCaps(cfg, running, nodes, jobBudget, now)

		// 5. Measure and record: settle each node's achieved power, then
		// quantize each job's draw (per-node power × the nodes it holds in
		// the node table) and the idle nodes' draw to milliwatts. The
		// ledger is handed the same rates every second.
		for i := range nodes {
			n := &nodes[i]
			switch {
			case n.down:
				n.power = 0
			case n.jobID == "":
				n.power = cfg.IdlePower
			default:
				n.power = min(n.cap, running[n.jobID].typ.PMax)
			}
		}
		measured, idleNodes := referenceMeasure(nodes, cfg.IdlePower)
		if cfg.Ledger != nil {
			ms := now.UnixMilli()
			for _, id := range budget.SortedIDs(running) {
				rj := running[id]
				p := nodes[rj.nodes[0]].power
				cfg.Ledger.SetPower(rj.handle, ms, p.Watts()*float64(len(rj.nodes)), p < rj.typ.PMax)
			}
			cfg.Ledger.SetIdle(ms, idleNodes, cfg.IdlePower.Watts())
		}
		res.Tracking = append(res.Tracking, trace.Point{Time: now, Target: target, Measured: measured})
		powerIntegral += measured.Watts()
		steps++
		if t <= horizonS {
			busyNodeSeconds += float64(busy)
		}
		if logger != nil {
			rec := []string{
				fmt.Sprint(t), fmt.Sprint(len(running)), fmt.Sprint(scheduler.QueuedCount()),
				fmt.Sprint(busy), fmt.Sprintf("%.0f", target.Watts()), fmt.Sprintf("%.0f", measured.Watts()),
			}
			if err := logger.Write(rec); err != nil {
				return Result{}, err
			}
		}

		// Stop once drained after the horizon.
		if t >= horizonS && len(running) == 0 && scheduler.QueuedCount() == 0 &&
			(nextArrival >= len(cfg.Arrivals) || cfg.Arrivals[nextArrival].At > cfg.Horizon) {
			break
		}
	}
	if logger != nil {
		logger.Flush()
		if err := logger.Error(); err != nil {
			return Result{}, err
		}
	}
	if cfg.Ledger != nil && len(res.Tracking) > 0 {
		cfg.Ledger.FinishAt(res.Tracking[len(res.Tracking)-1].Time.Add(time.Second).UnixMilli())
	}

	res.Unfinished = len(running) + scheduler.QueuedCount()
	for _, j := range scheduler.Finished() {
		res.Jobs = append(res.Jobs, JobRecord{
			ID: j.ID, TypeName: j.TypeName, ClaimedType: j.ClaimedType, Nodes: j.Nodes,
			Submit: j.Submit.Sub(simEpoch), Start: j.Start.Sub(simEpoch), End: j.End.Sub(simEpoch),
			QoS: j.QoS(j.End),
		})
	}
	res.QoS90 = stats.Percentile(scheduler.QoSDegradations(), 90)
	res.QoSByType = scheduler.QoSByType()
	var window []trace.Point
	for _, p := range res.Tracking {
		off := p.Time.Sub(simEpoch)
		if off >= cfg.TrackWarmup && off <= cfg.Horizon {
			window = append(window, p)
		}
	}
	res.TrackSummary = trace.Summarize(window, cfg.Bid.Reserve)
	if horizonS > 0 {
		res.MeanUtilization = busyNodeSeconds / float64(horizonS) / float64(cfg.Nodes)
	}
	if steps > 0 {
		res.AvgPower = units.Power(powerIntegral / float64(steps))
	}
	return res, nil
}

// referenceMeasure is the naive per-node power sum: it walks the node
// table, counts each job's nodes and the idle ones (down nodes draw
// nothing), and sums the same per-job and idle milliwatt rates the
// energy ledger is given. It also returns the idle-node count.
func referenceMeasure(nodes []refNodeState, idlePower units.Power) (units.Power, int) {
	perJob := map[string]int{}
	power := map[string]units.Power{}
	idle := 0
	for i := range nodes {
		switch {
		case nodes[i].down:
		case nodes[i].jobID == "":
			idle++
		default:
			perJob[nodes[i].jobID]++
			power[nodes[i].jobID] = nodes[i].power
		}
	}
	mw := int64(idle) * ledger.MilliWatts(idlePower.Watts())
	for id, n := range perJob {
		mw += ledger.MilliWatts(power[id].Watts() * float64(n))
	}
	return units.Power(float64(mw) / 1e3), idle
}

// referenceApplyCaps is the original per-step capping pass: a fresh
// exempt map and jobs slice every call, per-node cap writes, and sorted
// iteration where the original left order to the map.
func referenceApplyCaps(cfg Config, running map[string]*refRunningJob, nodes []refNodeState, jobBudget units.Power, now time.Time) {
	if len(running) == 0 {
		return
	}
	ids := budget.SortedIDs(running)

	// Feedback exemption (§6.4): at-risk jobs get full power and their
	// demand is removed from the shared budget.
	exempt := map[string]bool{}
	if cfg.FeedbackQoSExempt {
		for _, id := range ids {
			rj := running[id]
			if rj.job.QoS(now) >= cfg.ExemptFraction*cfg.QoSLimit {
				exempt[id] = true
				jobBudget -= rj.typ.PMax * units.Power(rj.job.Nodes)
			}
		}
	}

	if cfg.Budgeter == nil {
		// AQA baseline: one uniform cap across active, non-exempt nodes;
		// exempt jobs always run at TDP.
		busy := 0
		for _, id := range ids {
			if !exempt[id] {
				busy += running[id].job.Nodes
			}
		}
		per := workload.NodeTDP
		if busy > 0 {
			per = (jobBudget / units.Power(busy)).Clamp(workload.NodeMinCap, workload.NodeTDP)
		}
		for _, id := range ids {
			cap := per
			if exempt[id] {
				cap = workload.NodeTDP
			}
			for _, ni := range running[id].nodes {
				nodes[ni].cap = cap
			}
		}
		return
	}

	var jobs []budget.Job
	for _, id := range ids {
		if exempt[id] {
			continue
		}
		rj := running[id]
		jobs = append(jobs, budget.Job{ID: id, Nodes: rj.job.Nodes, Model: rj.believed})
	}
	alloc := cfg.Budgeter.Allocate(jobs, jobBudget)
	for _, id := range ids {
		rj := running[id]
		cap := workload.NodeTDP
		if !exempt[id] {
			if c, ok := alloc[id]; ok {
				cap = c
			}
		}
		for _, ni := range rj.nodes {
			nodes[ni].cap = cap
		}
	}
}
