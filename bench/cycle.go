package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// The control cycle, closed loop, one cycle in flight, one driver
// goroutine:
//
//	(untimed) application progress: geopm_prof_epoch calls at each job's
//	          model rate for the 0.5 s the GEOPM period covers
//	t0  set the target, Manager.Tick()
//	t1  every SetBudget written; wait for every mailbox's policy to advance
//	t2  advance clock A one GEOPM period, wait for all runtimes to park
//	t3  every node register holds its new cap; verify (untimed)
//	t3' advance clock B one report period, wait for the manager to absorb
//	    all J model updates and for all endpoints to park
//	t4
//
// enforce = t3-t0, feedback = t4-t3'. Untraced cycles read the clock at
// t0, t3, t3' and t4 only.

// ctrlSection is one running control stack plus its measurements.
type ctrlSection struct {
	fleet fleet
	ctl   *controller
	rig   *fleetRig
	walk  *walker

	// wireOn gates the counting wrappers; down and up are nil untraced.
	wireOn   atomic.Bool
	down, up *wireCount

	setup time.Duration
}

// startCtrl builds the stack in dir and warms it up. Set-up time runs from
// the call to the end of the warm-up: the next cycle is the first timed.
func startCtrl(f fleet, dir string, seed uint64, snapshotEvery time.Duration, warmup int, counted bool) (*ctrlSection, error) {
	begin := time.Now()
	s := &ctrlSection{fleet: f, walk: newWalker(seed)}
	if counted {
		s.down, s.up = &wireCount{on: &s.wireOn}, &wireCount{on: &s.wireOn}
	}
	var err error
	if s.ctl, err = startController(dir, snapshotEvery, f.totalNodes, s.down); err != nil {
		return nil, err
	}
	if s.rig, err = connectFleet(f, s.ctl.ln.Addr().String(), seed, true, 1, s.up); err != nil {
		s.ctl.stop()
		return nil, err
	}
	J := uint64(len(f.jobs))
	if !spinUntil(func() bool {
		return s.ctl.mgr.ActiveJobs() == int(J) && s.ctl.updates.Value() >= J
	}) {
		s.stop()
		return nil, fmt.Errorf("only %d of %d endpoints registered", s.ctl.mgr.ActiveJobs(), J)
	}
	for i := 0; i < warmup; i++ {
		if _, failed := s.cycle(nil, 0); failed > 0 {
			s.stop()
			return nil, fmt.Errorf("warm-up cycle %d: %d of %d caps failed", i, failed, J)
		}
	}
	s.setup = time.Since(begin)
	return s, nil
}

func (s *ctrlSection) stop() error {
	s.rig.stop()
	return s.ctl.stop()
}

// cycleTimes holds one cycle's stage durations in milliseconds. The three
// stage fields are set on traced cycles only.
type cycleTimes struct {
	enforce, feedback      float64
	traced                 bool
	tick, applyLag, fanout float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cycle runs one control cycle and returns its times and how many of the
// fleet's caps failed: not applied in time, not at the registers, out of
// range, or over budget. With a recorder the cycle is traced.
func (s *ctrlSection) cycle(rec *recorder, id int) (cycleTimes, int) {
	jobs := s.rig.jobs
	J := len(jobs)
	var ct cycleTimes
	failed := 0

	for _, j := range jobs {
		j.owed += geopmPeriod.Seconds() / j.model.TimeAt(j.rt.Cap())
		for ; j.owed >= 1; j.owed-- {
			j.rt.ProfEpoch()
		}
	}
	perNode := s.walk.next()
	idle := float64(s.fleet.totalNodes-s.fleet.busyNodes) * workload.NodeIdlePower.Watts()
	jobBudget := perNode * float64(s.fleet.busyNodes)
	wantUpdates := s.ctl.updates.Value() + uint64(J)
	traced := rec != nil
	s.wireOn.Store(traced)

	var t1, t2 time.Time
	t0 := time.Now()
	s.ctl.setTarget(jobBudget + idle)
	s.ctl.mgr.Tick()
	if traced {
		t1 = time.Now()
	}
	next := 0
	if !spinUntil(func() bool {
		for ; next < J; next++ {
			_, seq := jobs[next].mailbox.ReadPolicy()
			if seq == jobs[next].seenPolicy {
				return false
			}
			jobs[next].seenPolicy = seq
		}
		return true
	}) {
		failed += J - next
		for _, j := range jobs[next:] {
			_, j.seenPolicy = j.mailbox.ReadPolicy()
		}
	}
	if traced {
		t2 = time.Now()
	}
	s.rig.clkA.Advance(geopmPeriod)
	s.rig.clkA.WaitForWaiters(J)
	t3 := time.Now()

	failed += s.verify(jobBudget)

	t3b := time.Now()
	s.rig.clkB.Advance(reportPeriod)
	if !spinUntil(func() bool { return s.ctl.updates.Value() >= wantUpdates }) {
		failed += int(wantUpdates - s.ctl.updates.Value())
	}
	s.rig.clkB.WaitForWaiters(J)
	t4 := time.Now()
	s.wireOn.Store(false)

	ct.enforce, ct.feedback = ms(t3.Sub(t0)), ms(t4.Sub(t3b))
	if traced {
		ct.traced = true
		ct.tick, ct.applyLag, ct.fanout = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
		root := rec.add("cycle", t0, t4, -1, id)
		rec.add("clustermgr.tick", t0, t1, root, id)
		rec.add("endpointd.apply", t1, t2, root, id)
		rec.add("geopm.tick", t2, t3, root, id)
		rec.add("harness.verify", t3, t3b, root, id)
		rec.add("feedback", t3b, t4, root, id)
	}
	if failed > J {
		failed = J
	}
	return ct, failed
}

// verify checks the cycle's outcome at the hardware: every job's cap is
// within the platform range, every node register holds it (to register
// granularity), and the caps fit the job budget. It returns the number of
// jobs that fail.
func (s *ctrlSection) verify(jobBudget float64) int {
	bad := 0
	sum := 0.0
	for _, j := range s.rig.jobs {
		cap, ok := s.ctl.mgr.JobCap(j.spec.id)
		w := cap.Watts()
		good := ok && w >= workload.NodeMinCap.Watts() && w <= workload.NodeTDP.Watts()
		for _, n := range j.nodes {
			if math.Abs(n.PowerLimit().Watts()-w) > 0.5 {
				good = false
			}
		}
		if !good {
			bad++
		}
		sum += w * float64(len(j.nodes))
	}
	// The walk keeps the budget above the fleet's 140 W/node floor, so it
	// is always feasible; allow the budgeter's bisection tolerance.
	if sum > jobBudget*1.001 {
		fmt.Fprintf(os.Stderr, "caps sum to %.1f W over a job budget of %.1f W\n", sum, jobBudget)
		bad++
	}
	return bad
}

// ctrlResult is what a ctrl section measured.
type ctrlResult struct {
	jobs, nodes       int
	cycles            []cycleTimes // every timed cycle, in order
	attempted, failed int
	wall              time.Duration
	// Deltas over the timed window.
	mallocs, allocBytes         uint64
	gcPauseNs                   uint64
	walAppends, walBytes, syncs uint64
	downWrites, downBytes       int64
	upWrites, upBytes           int64
	goroutines                  int
	peakRSSMB                   float64
}

// run times cycles for budget (at least minCycles, at most maxCycles when
// positive). With a recorder every other cycle is traced, so traced and
// untraced cycles see the same drift and their medians compare.
func (s *ctrlSection) run(budget time.Duration, minCycles, maxCycles int, rec *recorder) ctrlResult {
	res := ctrlResult{jobs: len(s.fleet.jobs), nodes: s.fleet.busyNodes}
	var m0, m1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m0)
	}
	wal := func() (a, b, c uint64) {
		return s.ctl.counter("durable_wal_appends_total"), s.ctl.counter("durable_wal_bytes_total"),
			s.ctl.counter("durable_wal_syncs_total")
	}
	a0, b0, c0 := wal()
	begin := time.Now()
	for i := 0; more(i, begin, budget, minCycles, maxCycles); i++ {
		var r *recorder
		if i%2 == 1 {
			r = rec
		}
		ct, failed := s.cycle(r, i)
		res.cycles = append(res.cycles, ct)
		res.attempted += res.jobs
		res.failed += failed
	}
	res.wall = time.Since(begin)
	a1, b1, c1 := wal()
	res.walAppends, res.walBytes, res.syncs = a1-a0, b1-b0, c1-c0
	res.goroutines = runtime.NumGoroutine()
	if rec != nil {
		runtime.ReadMemStats(&m1)
		res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
		res.downWrites, res.downBytes = s.down.writes.Load(), s.down.bytes.Load()
		res.upWrites, res.upBytes = s.up.writes.Load(), s.up.bytes.Load()
		res.peakRSSMB = peakRSSMB()
	}
	// A send error or an eviction is a failed operation even when the
	// cycle that hit it went on to pass.
	res.failed += int(s.ctl.counter("anord_cap_send_errors_total") + s.ctl.counter("anord_endpoint_evictions_total"))
	return res
}
