package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation: one workload, one seed.
type runConfig struct {
	workload workloadDef
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
	jobs     int    // ad hoc override of the focus fleet's job count
	outDir   string // scratch space and trace files, inside the checkout
}

// Reference sizes: what a section runs at when it is not the workload's
// focus. The paper's testbed fleet for the cycle; 128 one-node jobs for the
// recovery, enough that replay and adoption outweigh the half-dozen fsyncs
// every durable.Open makes, whose latency is the disk's and not the
// program's; a three-tile single-copy trace under the paper's policy for
// the simulator.
var (
	refRecFleet = fleetShape{jobs: 128, nodesPer: 1}
	refSim      = simShape{tiles: 3, copies: 1, policy: true}
)

const (
	refCtrlSeconds  = 2.0
	refRecSeconds   = 0.5
	refSimSeconds   = 1.5
	refWarmup       = 100
	refStateCycles  = 20
	fullStateCycles = 25
)

// sizes is a run's plan: what each section measures and for how long.
type sizes struct {
	// setups is how often each section is set up; the run reports the
	// median, so one slow fsync or page-cache miss does not decide setup_s.
	setups int

	ctrlFleet   fleetShape
	ctrlWarmup  int
	ctrlSeconds float64
	ctrlMin     int // floor on timed cycles, so percentiles have samples
	ctrlMax     int // 0 = until the time is up

	recFleet       fleetShape
	recStateCycles int
	recSeconds     float64
	recMin, recMax int

	sim        simShape
	simSeconds float64
	simMax     int
}

func plan(cfg runConfig) sizes {
	w := cfg.workload
	z := sizes{
		setups:    3,
		ctrlFleet: testbedShape, ctrlWarmup: refWarmup, ctrlSeconds: refCtrlSeconds, ctrlMin: 100,
		recFleet: refRecFleet, recStateCycles: refStateCycles, recSeconds: refRecSeconds, recMin: 10,
		sim: refSim, simSeconds: refSimSeconds,
	}
	switch w.focus {
	case secCtrl:
		z.ctrlFleet, z.ctrlWarmup, z.ctrlSeconds, z.ctrlMin = w.fleet, w.warmup, cfg.seconds, 300
	case secRecover:
		z.recFleet, z.recStateCycles, z.recSeconds, z.recMin = w.fleet, fullStateCycles, cfg.seconds, 20
	case secSim:
		z.sim, z.simSeconds = w.sim, cfg.seconds
	}
	if cfg.jobs > 0 {
		if w.focus == secCtrl && z.ctrlFleet.nodesPer > 0 {
			z.ctrlFleet.jobs = cfg.jobs
		}
		if w.focus == secRecover {
			z.recFleet.jobs = cfg.jobs
		}
	}
	if cfg.quick {
		// The smoke size: 16 jobs, 20 cycles, 2 recoveries, a 2-tile trace
		// (one tile where the simulator is not in focus), one set-up.
		if z.ctrlFleet.nodesPer > 0 {
			z.ctrlFleet = fleetShape{jobs: min(z.ctrlFleet.jobs, 16), nodesPer: min(z.ctrlFleet.nodesPer, 16)}
		}
		if z.recFleet.nodesPer > 0 {
			z.recFleet = fleetShape{jobs: 16, nodesPer: 4}
		}
		z.ctrlWarmup, z.ctrlMin, z.ctrlMax = 4, 20, 20
		z.recStateCycles, z.recMin, z.recMax = 5, 2, 2
		z.sim.tiles, z.sim.copies = 2, min(z.sim.copies, 4)
		if w.focus != secSim {
			z.sim.tiles = 1
		}
		z.simMax = 1
		z.setups = 1
	}
	return z
}

// runResult is what one invocation reports.
type runResult struct {
	metrics           map[string]float64
	samples           map[string]int // sample count behind a metric, where it has one
	notes             []string
	attempted, failed int
}

func (r *runResult) set(name string, v float64, n int) {
	r.metrics[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

// runWorkload measures the two reference sections first, so that they see
// the same fresh process on every workload, then the focus section, whose
// own warm-up and long window outweigh what little the references leave
// behind. A collection between sections drops the finished one's heap.
func runWorkload(cfg runConfig) (runResult, error) {
	res := runResult{metrics: map[string]float64{}, samples: map[string]int{}}
	z := plan(cfg)
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return res, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	var order []section
	for _, s := range []section{secCtrl, secRecover, secSim} {
		if s != cfg.workload.focus {
			order = append(order, s)
		}
	}
	order = append(order, cfg.workload.focus)
	var setup time.Duration
	for _, s := range order {
		var d time.Duration
		var err error
		switch s {
		case secCtrl:
			d, err = measureCtrl(cfg, z, dir, rec, &res)
		case secRecover:
			d, err = measureRecover(cfg, z, dir, rec, &res)
		case secSim:
			d, err = measureSim(cfg, z, dir, rec, &res)
		}
		if err != nil {
			return res, err
		}
		setup += d
		runtime.GC()
	}
	res.set("setup_s", setup.Seconds(), z.setups)

	if cfg.traced {
		if err := microprobes(dir, res.metrics); err != nil {
			return res, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".jsonl")
		if err := rec.writeJSONL(path); err != nil {
			return res, err
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
	}
	return res, nil
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func measureCtrl(cfg runConfig, z sizes, dir string, rec *recorder, res *runResult) (time.Duration, error) {
	f := makeFleet(z.ctrlFleet, cfg.seed)
	var setups []time.Duration
	var s *ctrlSection
	for i := 0; i < z.setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return 0, err
			}
		}
		var err error
		s, err = startCtrl(f, filepath.Join(dir, fmt.Sprintf("state-%d", i)), cfg.seed, 30*time.Second, z.ctrlWarmup, cfg.traced)
		if err != nil {
			return 0, fmt.Errorf("control stack: %w", err)
		}
		setups = append(setups, s.setup)
	}
	r := s.run(time.Duration(z.ctrlSeconds*float64(time.Second)), z.ctrlMin, z.ctrlMax, rec)
	if cfg.traced {
		s.probes(res.metrics)
		probeSinks(len(f.jobs), res.metrics)
	}
	if err := s.stop(); err != nil {
		return 0, err
	}
	res.attempted += r.attempted
	res.failed += r.failed

	n := len(r.cycles)
	enforce, feedback := make([]float64, n), make([]float64, n)
	total := 0.0
	for i, c := range r.cycles {
		enforce[i], feedback[i] = c.enforce, c.feedback
		total += c.enforce + c.feedback
	}
	res.set("enforce_p50_ms", median(enforce), n)
	res.set("feedback_p50_ms", median(feedback), n)
	res.set("job_cycles_per_s", float64(r.jobs*n)/(total/1e3), n)
	tail := highestTail(n)
	res.notes = append(res.notes, fmt.Sprintf(
		"ctrl: %d jobs on %d nodes over loopback TCP (wire latency not measured), %d timed cycles, closed loop, one in flight; highest supported tail p%g: enforce %.3f ms, feedback %.3f ms",
		r.jobs, r.nodes, n, tail, percentile(enforce, tail), percentile(feedback, tail)))
	if !cfg.traced {
		return medianDuration(setups), nil
	}

	J, nodes := float64(r.jobs), float64(r.nodes)
	var tick, lag, fan, tracedEnf, plainEnf []float64
	for _, c := range r.cycles {
		if c.traced {
			tick, lag, fan = append(tick, c.tick), append(lag, c.applyLag), append(fan, c.fanout)
			tracedEnf = append(tracedEnf, c.enforce)
		} else {
			plainEnf = append(plainEnf, c.enforce)
		}
	}
	nt := len(tick)
	res.set("clustermgr.tick_ms", median(tick), nt)
	res.set("clustermgr.tick_us_per_job", median(tick)*1e3/J, nt)
	res.set("endpointd.apply_lag_ms", median(lag), nt)
	res.set("geopm.tick_ms", median(fan), nt)
	res.set("geopm.tick_ns_per_node", median(fan)*1e6/nodes, nt)
	res.set("cycle.enforce_p95_ms", percentile(enforce, 95), n)
	res.set("cycle.feedback_p95_ms", percentile(feedback, 95), n)
	q := max(n/4, 1)
	res.set("cycle.feedback_drift", median(feedback[n-q:])/median(feedback[:q]), q)
	res.set("trace.overhead_frac", median(tracedEnf)/median(plainEnf)-1, nt)

	frames := J * float64(nt)
	res.set("proto.setbudget_bytes", float64(r.downBytes)/frames, nt)
	res.set("proto.writes_per_frame", float64(r.downWrites)/frames, nt)
	res.set("proto.modelupdate_bytes", float64(r.upBytes)/frames, nt)
	res.set("proto.wire_bytes_per_cycle", float64(r.downBytes+r.upBytes)/float64(nt), nt)
	res.set("durable.wal_appends_per_cycle", float64(r.walAppends)/float64(n), n)
	res.set("durable.wal_bytes_per_cycle", float64(r.walBytes)/float64(n), n)
	res.set("durable.syncs_per_cycle", float64(r.syncs)/float64(n), n)
	res.set("proc.allocs_per_cap", float64(r.mallocs)/(J*float64(n)), n)
	res.set("proc.bytes_per_cap", float64(r.allocBytes)/(J*float64(n)), n)
	res.set("proc.gc_pause_ms", float64(r.gcPauseNs)/1e6, n)
	res.set("proc.peak_rss_mb", r.peakRSSMB, 0)
	res.set("proc.goroutines", float64(r.goroutines), 0)
	return medianDuration(setups), nil
}

func measureRecover(cfg runConfig, z sizes, dir string, rec *recorder, res *runResult) (time.Duration, error) {
	f := makeFleet(z.recFleet, cfg.seed)
	var setups []time.Duration
	var s *recoverSection
	for i := 0; i < z.setups; i++ {
		if s != nil {
			if err := os.RemoveAll(filepath.Dir(s.image)); err != nil {
				return 0, err
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("crash-%d", i))
		var err error
		if s, err = prepareRecover(f, sub, cfg.seed, z.recStateCycles); err != nil {
			return 0, fmt.Errorf("crash image: %w", err)
		}
		setups = append(setups, s.setup)
	}
	r, err := s.run(dir, time.Duration(z.recSeconds*float64(time.Second)), z.recMin, z.recMax, rec)
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	res.attempted += r.attempted
	res.failed += r.failed

	n := len(r.iters)
	total, replay, adopt := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, it := range r.iters {
		total[i], replay[i], adopt[i] = it.total, it.replay, it.adopt
	}
	res.set("recover_p50_ms", median(total), n)
	res.notes = append(res.notes, fmt.Sprintf(
		"recover: %d sessions, %d WAL records, %d bytes of state, %d timed recoveries",
		r.jobs, r.iters[0].records, s.stateBytes, n))
	if cfg.traced {
		res.set("durable.replay_ms", median(replay), n)
		res.set("durable.replay_records_per_s", float64(r.iters[0].records)/(median(replay)/1e3), n)
		res.set("durable.state_bytes", float64(s.stateBytes), 0)
		res.set("clustermgr.adopt_ms", median(adopt), n)
		res.set("clustermgr.attach_us_per_job", median(adopt)*1e3/float64(r.jobs), n)
	}
	return medianDuration(setups), nil
}

func measureSim(cfg runConfig, z sizes, dir string, rec *recorder, res *runResult) (time.Duration, error) {
	var setups []time.Duration
	var s *simSection
	for i := 0; i < z.setups; i++ {
		var err error
		if s, err = prepareSim(z.sim, dir, cfg.seed); err != nil {
			return 0, fmt.Errorf("trace: %w", err)
		}
		setups = append(setups, s.setup)
	}
	r, err := s.run(time.Duration(z.simSeconds*float64(time.Second)), z.simMax, cfg.traced, rec)
	if err != nil {
		return 0, fmt.Errorf("simulation: %w", err)
	}
	res.attempted += r.attempted
	res.failed += r.failed

	rate := func(runs []simRun) []float64 {
		out := make([]float64, len(runs))
		for i, x := range runs {
			out[i] = float64(x.steps) / x.wall.Seconds()
		}
		return out
	}
	stepsPerS := median(rate(r.runs))
	res.set("sim_steps_per_s", stepsPerS, len(r.runs))
	res.notes = append(res.notes, fmt.Sprintf(
		"sim: %d jobs on %d nodes, %d simulated seconds a run, %d runs, trace sha256 %s, sim.result_digest %s",
		s.trace.jobs, s.trace.nodes, r.runs[0].steps, len(r.runs), s.trace.sha256[:16], r.digest))
	if cfg.traced {
		first := r.runs[0]
		procs1 := median(rate(r.runsProcs1))
		res.set("sim.us_per_step", 1e6/stepsPerS, len(r.runs))
		res.set("sim.jobs_per_s", float64(first.jobs)/first.wall.Seconds(), 1)
		res.set("sim.allocs_per_step", float64(first.mallocs)/float64(first.steps), 1)
		res.set("sim.peak_rss_mb", r.peakRSSMB, 0)
		res.set("sim.steps_per_s_procs1", procs1, len(r.runsProcs1))
		res.set("sim.shard_speedup", stepsPerS/procs1, len(r.runs))
		rows, err := probeTracein(s.trace)
		if err != nil {
			return 0, err
		}
		res.set("tracein.rows_per_s", rows, 3)
	}
	return medianDuration(setups), nil
}
