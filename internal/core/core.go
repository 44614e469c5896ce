// Package core assembles the full ANOR stack (§3, §4) into an emulated
// cluster deployment: register-level simulated nodes (nodesim), one GEOPM
// runtime and endpoint per job (geopm), a job-tier modeler daemon per job
// (endpointd), and the cluster-tier manager (clustermgr), wired together
// over the real wire protocol on in-process pipes. It is the moral
// equivalent of the paper's 16-node testbed: the same policy code runs in
// the same multi-process shape, against simulated hardware and an
// injectable clock.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/clustermgr"
	"repro/internal/endpointd"
	"repro/internal/geopm"
	"repro/internal/modeler"
	"repro/internal/nodesim"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config parameterizes an emulated cluster.
type Config struct {
	// Nodes is the cluster size (the paper's testbed has 16).
	Nodes int
	// Clock paces every component. Required; experiments use a
	// clock.Virtual driven by Drive.
	Clock clock.Clock
	// Budgeter is the cluster-tier power policy. Required.
	Budgeter budget.Budgeter
	// Target is the time-varying cluster power target. Required.
	Target func(time.Time) units.Power
	// TypeModels are the precharacterized curves the cluster tier
	// believes, keyed by type name. Defaults to the full catalog's
	// relative curves.
	TypeModels map[string]perfmodel.Model
	// DefaultModel covers unknown claimed types; defaults to the
	// least-sensitive catalog curve (§6.1.2's underprediction policy).
	DefaultModel perfmodel.Model
	// UseFeedback forwards trained online models to the budgeter (the
	// "adjusted" policy).
	UseFeedback bool
	// ManagerPeriod, EndpointPeriod, and AgentPeriod set the three
	// control-loop rates (defaults 2 s, 1 s, 500 ms).
	ManagerPeriod  time.Duration
	EndpointPeriod time.Duration
	AgentPeriod    time.Duration
	// HardwareNoiseStd adds multiplicative noise to node power readings.
	HardwareNoiseStd float64
	// RetrainThreshold overrides the modeler's retrain trigger.
	RetrainThreshold int
	// DetectPhaseChange enables modeler phase-change detection (§8) for
	// every job's modeler.
	DetectPhaseChange bool
	// Seed drives all randomness.
	Seed uint64
}

// Cluster is a running emulated deployment.
type Cluster struct {
	cfg  Config
	pios []*geopm.PlatformIO
	mgr  *clustermgr.Manager

	mu        sync.Mutex
	freeNodes []int
	// track is the manager's tracking series, one point per tick. A
	// run's horizon bounds it.
	track []trace.Point

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// JobSpec describes one job to run on the emulated cluster.
type JobSpec struct {
	// ID uniquely identifies the job. Required.
	ID string
	// Type is the job's true behaviour. Required.
	Type workload.Type
	// ClaimedType is the type name announced to the cluster tier; empty
	// means announce the true type. Misclassification experiments set it
	// to another type's name (§6.2).
	ClaimedType string
	// Nodes overrides the type's default node count when positive.
	Nodes int
	// Variation multiplies epoch durations (node performance variation);
	// 0 means 1.
	Variation float64
	// EpochNoiseStd adds per-epoch noise when positive.
	EpochNoiseStd float64
	// Delay postpones the job's start after RunJobs begins.
	Delay time.Duration
	// Phases, when non-empty, runs a multi-phase job (§8): the phases
	// execute back to back under one epoch counter, and Type supplies
	// only the job's identity/claims (its curve is ignored).
	Phases []workload.PhaseSpec
}

// JobResult summarizes one completed job.
type JobResult struct {
	// Spec echoes the input.
	Spec JobSpec
	// Report is the job's GEOPM report.
	Report geopm.Report
	// AppSeconds is the instrumented compute-loop time.
	AppSeconds float64
	// Slowdown is AppSeconds relative to the type's uncapped base time
	// (scaled by the variation multiplier).
	Slowdown float64
	// ModelerTrained reports whether online feedback replaced the
	// default model during the run.
	ModelerTrained bool
	// PhaseResets counts phase changes the modeler detected (§8).
	PhaseResets int
}

// NewCluster constructs and starts the cluster-tier manager. Call Close to
// stop it.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, errors.New("core: config requires nodes")
	}
	if cfg.Clock == nil || cfg.Budgeter == nil || cfg.Target == nil {
		return nil, errors.New("core: config requires clock, budgeter, and target")
	}
	if cfg.ManagerPeriod <= 0 {
		cfg.ManagerPeriod = 2 * time.Second
	}
	if cfg.EndpointPeriod <= 0 {
		cfg.EndpointPeriod = time.Second
	}
	if cfg.AgentPeriod <= 0 {
		cfg.AgentPeriod = 500 * time.Millisecond
	}
	if cfg.TypeModels == nil {
		cfg.TypeModels = map[string]perfmodel.Model{}
		for _, t := range workload.Catalog() {
			cfg.TypeModels[t.Name] = t.RelativeModel()
		}
	}
	if cfg.DefaultModel.Validate() != nil {
		cfg.DefaultModel = workload.LeastSensitive().RelativeModel()
	}

	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		node := nodesim.NewNode(i, nodesim.Config{
			Clock:    cfg.Clock,
			NoiseStd: cfg.HardwareNoiseStd,
			Seed:     cfg.Seed,
		})
		c.pios = append(c.pios, geopm.NewPlatformIO(node))
		c.freeNodes = append(c.freeNodes, i)
	}

	mgr, err := clustermgr.NewManager(clustermgr.Config{
		Clock:        cfg.Clock,
		Budgeter:     cfg.Budgeter,
		Target:       cfg.Target,
		Period:       cfg.ManagerPeriod,
		TotalNodes:   cfg.Nodes,
		IdlePower:    workload.NodeIdlePower,
		TypeModels:   cfg.TypeModels,
		DefaultModel: cfg.DefaultModel,
		UseFeedback:  cfg.UseFeedback,
		Track:        c.record,
	})
	if err != nil {
		return nil, err
	}
	c.mgr = mgr

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = mgr.Run(ctx)
	}()
	return c, nil
}

func (c *Cluster) record(p trace.Point) {
	c.mu.Lock()
	c.track = append(c.track, p)
	c.mu.Unlock()
}

// Tracking returns a copy of the cluster's (time, target, measured)
// series, one point per manager tick.
func (c *Cluster) Tracking() []trace.Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.track)
}

// Clock returns the clock pacing the cluster.
func (c *Cluster) Clock() clock.Clock { return c.cfg.Clock }

// FreeNodes reports how many nodes are unallocated.
func (c *Cluster) FreeNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.freeNodes)
}

// Close stops the manager loop and waits for connection handlers.
func (c *Cluster) Close() {
	c.cancel()
	c.wg.Wait()
}

func (c *Cluster) allocate(n int) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > len(c.freeNodes) {
		return nil, fmt.Errorf("core: need %d nodes, %d free", n, len(c.freeNodes))
	}
	nodes := append([]int(nil), c.freeNodes[:n]...)
	c.freeNodes = c.freeNodes[n:]
	return nodes, nil
}

func (c *Cluster) release(nodes []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freeNodes = append(c.freeNodes, nodes...)
}

// RunJob executes one job end to end: it allocates nodes, attaches the
// job-tier stack (GEOPM runtime + agents, modeler, endpoint daemon),
// connects to the cluster manager over an in-process pipe, runs the
// synthetic benchmark to completion, and tears everything down. It blocks
// until the job finishes (pace the clock from another goroutine).
func (c *Cluster) RunJob(ctx context.Context, spec JobSpec) (JobResult, error) {
	res := JobResult{Spec: spec}
	if spec.ID == "" || spec.Type.Name == "" {
		return res, errors.New("core: job spec requires ID and type")
	}
	nNodes := spec.Nodes
	if nNodes <= 0 {
		nNodes = spec.Type.Nodes
	}
	claimed := spec.ClaimedType
	if claimed == "" {
		claimed = spec.Type.Name
	}

	nodeIDs, err := c.allocate(nNodes)
	if err != nil {
		return res, err
	}
	defer c.release(nodeIDs)

	pios := make([]*geopm.PlatformIO, nNodes)
	for i, id := range nodeIDs {
		pios[i] = c.pios[id]
		pios[i].Node().SetDemand(spec.Type.PMax)
	}
	defer func() {
		for _, pio := range pios {
			pio.Node().SetDemand(workload.NodeIdlePower)
		}
	}()

	ep := geopm.NewEndpoint()
	rt, err := geopm.NewRuntime(geopm.RuntimeConfig{
		JobID:    spec.ID,
		PIOs:     pios,
		Endpoint: ep,
		Clock:    c.cfg.Clock,
		Period:   c.cfg.AgentPeriod,
	})
	if err != nil {
		return res, err
	}

	// The job-tier default model: the believed (claimed) type's absolute
	// curve — the modeler's starting point before online feedback.
	defaultModel := c.cfg.DefaultModel
	if m, ok := c.cfg.TypeModels[claimed]; ok {
		defaultModel = m
	}
	mdl, err := modeler.New(modeler.Config{
		Default:           defaultModel,
		RetrainThreshold:  c.cfg.RetrainThreshold,
		DetectPhaseChange: c.cfg.DetectPhaseChange,
	})
	if err != nil {
		return res, err
	}

	jobSide, mgrSide := pipe(c.cfg.Clock)
	c.mgr.AttachConn(proto.NewConn(mgrSide))
	epd, err := endpointd.New(endpointd.Config{
		JobID:    spec.ID,
		TypeName: claimed,
		Nodes:    nNodes,
		Conn:     proto.NewConn(jobSide),
		GEOPM:    ep,
		Modeler:  mdl,
		Clock:    c.cfg.Clock,
		Period:   c.cfg.EndpointPeriod,
	})
	if err != nil {
		return res, err
	}

	jobCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = rt.Run(jobCtx)
	}()
	go func() {
		defer wg.Done()
		_ = epd.Run(jobCtx)
	}()

	var noise *stats.RNG
	if spec.EpochNoiseStd > 0 {
		noise = stats.NewRNG(c.cfg.Seed ^ hashString(spec.ID))
	}
	var runRes workload.Result
	var runErr error
	baseSeconds := spec.Type.BaseSeconds
	if len(spec.Phases) > 0 {
		exec := &workload.PhasedExecutor{
			Phases:    spec.Phases,
			Clock:     c.cfg.Clock,
			Cap:       rt.Cap,
			OnEpoch:   func(int) { rt.ProfEpoch() },
			Variation: spec.Variation,
			Noise:     noise,
			NoiseStd:  spec.EpochNoiseStd,
		}
		baseSeconds = exec.BaseSeconds()
		runRes, runErr = exec.Run(ctx)
	} else {
		exec := &workload.Executor{
			Type:      spec.Type,
			Clock:     c.cfg.Clock,
			Cap:       rt.Cap,
			OnEpoch:   func(int) { rt.ProfEpoch() },
			Variation: spec.Variation,
			Noise:     noise,
			NoiseStd:  spec.EpochNoiseStd,
		}
		runRes, runErr = exec.Run(ctx)
	}
	rt.RecordAppTotals(runRes.AppSeconds, runRes.Epochs)

	cancel()
	wg.Wait()

	res.Report = rt.Report()
	res.AppSeconds = runRes.AppSeconds
	variation := spec.Variation
	if variation == 0 {
		variation = 1
	}
	base := baseSeconds * variation
	if base > 0 {
		res.Slowdown = runRes.AppSeconds / base
	}
	res.ModelerTrained = mdl.Trained()
	res.PhaseResets = mdl.PhaseResets()
	return res, runErr
}

// RunJobs executes jobs concurrently (honouring each spec's Delay) and
// returns results keyed by job ID. The first error encountered is
// returned, but all jobs are waited for.
func (c *Cluster) RunJobs(ctx context.Context, specs []JobSpec) (map[string]JobResult, error) {
	results := make(map[string]JobResult, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for _, spec := range specs {
		wg.Add(1)
		go func(spec JobSpec) {
			defer wg.Done()
			if spec.Delay > 0 {
				c.cfg.Clock.Sleep(spec.Delay)
			}
			res, err := c.RunJob(ctx, spec)
			mu.Lock()
			defer mu.Unlock()
			results[spec.ID] = res
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(spec)
	}
	wg.Wait()
	return results, firstErr
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
