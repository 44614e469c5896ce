package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ScheduledRunConfig drives an hour-style experiment (§6.3): a job
// submission schedule flows through the AQA scheduler onto the emulated
// cluster, with each started job running the full ANOR job-tier stack.
type ScheduledRunConfig struct {
	// Cluster is the running emulated deployment. Required.
	Cluster *core.Cluster
	// Arrivals is the submission schedule (sorted by At).
	Arrivals []schedule.Arrival
	// Types resolves true type names.
	Types map[string]workload.Type
	// Weights are AQA queue weights by claimed type.
	Weights map[string]float64
	// Nodes is the schedulable node count (the cluster's size).
	Nodes int
	// EpochNoiseStd adds per-epoch noise to every job.
	EpochNoiseStd float64
	// Seed varies job noise.
	Seed uint64
	// IdlePoll is the wait between scheduler wake-ups when nothing else
	// is pending (default 2 s).
	IdlePoll time.Duration
}

// ScheduledRunResult summarizes the run.
type ScheduledRunResult struct {
	// Results holds each completed job's outcome by job ID.
	Results map[string]core.JobResult
	// SlowdownByType groups fractional execution-time slowdowns by true
	// type name.
	SlowdownByType map[string][]float64
	// QoSByType groups QoS degradations by true type name.
	QoSByType map[string][]float64
	// Tracking is the manager's (target, measured) series over the run.
	Tracking []trace.Point
}

// RunScheduled executes the schedule to completion (all jobs drained).
// It must run inside core.Drive (or under a real clock).
func RunScheduled(cfg ScheduledRunConfig) (ScheduledRunResult, error) {
	if cfg.Cluster == nil {
		return ScheduledRunResult{}, fmt.Errorf("experiments: RunScheduled requires a cluster")
	}
	if cfg.IdlePoll <= 0 {
		cfg.IdlePoll = 2 * time.Second
	}
	clk := cfg.Cluster.Clock()
	start := clk.Now()

	scheduler, err := sched.New(cfg.Nodes, cfg.Weights)
	if err != nil {
		return ScheduledRunResult{}, err
	}

	res := ScheduledRunResult{
		Results:        map[string]core.JobResult{},
		SlowdownByType: map[string][]float64{},
		QoSByType:      map[string][]float64{},
	}
	type completion struct {
		id     string
		result core.JobResult
		err    error
	}
	done := make(chan completion, len(cfg.Arrivals)+1)
	var mu sync.Mutex
	active := 0
	next := 0

	for {
		now := clk.Now()
		elapsed := now.Sub(start)

		// Admit due arrivals.
		for next < len(cfg.Arrivals) && cfg.Arrivals[next].At <= elapsed {
			a := cfg.Arrivals[next]
			typ, ok := cfg.Types[a.TypeName]
			if !ok {
				return res, fmt.Errorf("experiments: unknown type %q", a.TypeName)
			}
			scheduler.Submit(sched.Job{
				ID: a.JobID, TypeName: a.TypeName, ClaimedType: a.ClaimedType,
				Nodes: typ.Nodes, MinTime: typ.BaseSeconds,
			}, now)
			next++
		}

		// Start whatever fits.
		for _, j := range scheduler.StartEligible(now) {
			typ := cfg.Types[j.TypeName]
			spec := core.JobSpec{
				ID:            j.ID,
				Type:          typ,
				ClaimedType:   j.ClaimedType,
				EpochNoiseStd: cfg.EpochNoiseStd,
			}
			mu.Lock()
			active++
			mu.Unlock()
			go func(spec core.JobSpec) {
				r, err := cfg.Cluster.RunJob(context.Background(), spec)
				done <- completion{id: spec.ID, result: r, err: err}
			}(spec)
		}

		mu.Lock()
		remaining := active
		mu.Unlock()
		if next >= len(cfg.Arrivals) && remaining == 0 && scheduler.QueuedCount() == 0 {
			break
		}

		// Wait for the next event: an arrival deadline or a completion.
		var timer <-chan time.Time
		if next < len(cfg.Arrivals) {
			timer = clk.After(cfg.Arrivals[next].At - elapsed)
		} else {
			timer = clk.After(cfg.IdlePoll)
		}
		select {
		case c := <-done:
			mu.Lock()
			active--
			mu.Unlock()
			if c.err != nil {
				return res, fmt.Errorf("experiments: job %s: %w", c.id, c.err)
			}
			j, err := scheduler.Complete(c.id, clk.Now())
			if err != nil {
				return res, err
			}
			res.Results[c.id] = c.result
			res.SlowdownByType[j.TypeName] = append(res.SlowdownByType[j.TypeName], c.result.Slowdown-1)
			res.QoSByType[j.TypeName] = append(res.QoSByType[j.TypeName], j.QoS(j.End))
		case <-timer:
		}
	}

	res.Tracking = cfg.Cluster.Tracking()
	return res, nil
}
