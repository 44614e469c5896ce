package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/ledger"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workload"
)

// The engine is the dense-index core of Run: every per-step structure is
// indexed by small integers and reused across steps, so the steady-state
// hot loop performs no heap allocation and no string hashing.
//
//   - The job table (jobs) is a slot-reusing slice; a node refers to its
//     job by slot index (nodeJob), so the per-node loops are direct slice
//     accesses.
//   - order holds the running slots sorted by job ID, maintained
//     incrementally: binary-search insert on start, in-place compaction on
//     completion. Iterating order therefore visits jobs in exactly the
//     lexical-ID order the original map-and-sort engine used, which keeps
//     completion order — and with it the node free list, scheduling, and
//     every downstream float — bit-identical.
//   - The node free list is a fixed-capacity FIFO ring (freeRing): starts
//     pop from the head, completions push at the tail, preserving the
//     original queue semantics without the original's slice churn.
//
// All scratch buffers (doneFlags, exempt bitset, budgeter jobs/caps) live
// here and are resized at most O(log n) times per run.
type engine struct {
	cfg       Config
	types     map[string]workload.Type
	scheduler *sched.Scheduler

	// Node tables, struct-of-arrays: each is read only by the phases that
	// need it.
	nodeJob   []int32   // job-table slot per node; idleNode / downNode sentinels
	nodeCoeff []float64 // per-node performance-variation coefficient (§6.4)
	// nodeProgress is per-node fixed-point progress (engine_calendar.go),
	// allocated only for the per-step oracle path; the calendar prices
	// each job by one representative node instead.
	nodeProgress []uint64
	jobs         []runningJob
	// freeSlots are job-table slots available for reuse.
	freeSlots []int32
	// order lists occupied job-table slots in ascending job-ID order.
	order []int32

	// freeRing is the FIFO of idle node indices.
	freeRing []int32
	freeHead int
	freeLen  int

	// ledH maps job-table slots to energy-ledger handles (engine_ledger.go);
	// empty when no ledger is attached.
	ledH []ledger.Handle

	// doneFlags[k] reports whether order[k]'s job finished this step.
	doneFlags []bool
	// exempt is a bitset over order positions, allocated lazily on the
	// first step that runs with FeedbackQoSExempt set (§6.4) — runs
	// without the mitigation never pay for it.
	exempt []uint64
	// bjobs and caps are the budgeter's reusable input/output buffers.
	bjobs []budget.Job
	caps  []units.Power

	// advanceFn is the per-step progress kernel bound once at
	// construction; a function literal in the step path would allocate
	// its closure every simulated second.
	advanceFn func(lo, hi int)

	// measuredBusy is the busy-node count folded out of the last
	// measurement, recorded as telemetry alongside the power sum.
	measuredBusy int

	shards int
	// pool is the persistent multi-core shard runtime for the per-step
	// progress kernel (nil when serial or when the calendar prices
	// progress): long-lived workers woken through a reusable barrier
	// instead of a goroutine spawn per step. Run closes it via
	// engine.close.
	pool *shardPool

	// Fault-layer state (engine_failures.go). nextFailure cursors the
	// sorted cfg.Failures schedule; down counts nodes currently failed
	// out of the pool; requeues counts jobs killed by fail-stops.
	nextFailure int
	down        int
	requeues    int

	// Completion-calendar state (engine_calendar.go). calOn mirrors
	// !cfg.DisableCalendar; cal holds per-slot closed-form progress
	// state, calNext a lower bound on the earliest due step, calRescale
	// the slots whose rate changed this step, and curStep the loop's
	// current simulated second (set by Run before the engine phases).
	calOn      bool
	cal        []calJob
	calNext    int64
	calRescale []int32
	calMaxStep int64
	curStep    int64
}

// runningJob is one occupied job-table slot. Caps are uniform across a
// job's nodes (both capping policies assign per-job caps), so the cap and
// the achieved per-node power are stored once per job and hoisted out of
// the per-node loops.
type runningJob struct {
	id       string
	job      *sched.Job
	typ      workload.Type
	believed perfmodel.Model
	nodes    []int32 // capacity reused across slot occupancies
	cap      units.Power
	power    units.Power
}

func newEngine(cfg Config, types map[string]workload.Type, scheduler *sched.Scheduler, coeffs []float64) *engine {
	e := &engine{
		cfg:       cfg,
		types:     types,
		scheduler: scheduler,
		nodeJob:   make([]int32, cfg.Nodes),
		nodeCoeff: coeffs, // shared read-only (see variationCoeffs)
		freeRing:  make([]int32, cfg.Nodes),
		freeLen:   cfg.Nodes,
		shards:    resolveShards(cfg.Shards, cfg.Nodes),
		calOn:     !cfg.DisableCalendar,
		calNext:   calNever,
	}
	for i := range e.nodeJob {
		e.nodeJob[i] = idleNode
		e.freeRing[i] = int32(i)
	}
	if e.calOn {
		horizonS := int64(cfg.Horizon / time.Second)
		e.calMaxStep = 4 * horizonS
	} else {
		e.nodeProgress = make([]uint64, cfg.Nodes)
		e.advanceFn = e.advanceRange
		e.pool = newShardPool(e.shards)
	}
	return e
}

// close releases the shard pool's workers. The engine must not step
// afterwards.
func (e *engine) close() { e.pool.close() }

func (e *engine) freePop() int32 {
	ni := e.freeRing[e.freeHead]
	e.freeHead++
	if e.freeHead == len(e.freeRing) {
		e.freeHead = 0
	}
	e.freeLen--
	return ni
}

func (e *engine) freePush(ni int32) {
	tail := e.freeHead + e.freeLen
	if tail >= len(e.freeRing) {
		tail -= len(e.freeRing)
	}
	e.freeRing[tail] = ni
	e.freeLen++
}

func (e *engine) believedModel(claimed string) perfmodel.Model {
	if m, ok := e.cfg.TypeModels[claimed]; ok {
		return m
	}
	return e.cfg.DefaultModel
}

// advanceAndComplete advances every running node's progress one second
// and completes jobs whose nodes all reached 100%, returning how many
// completed. The advance is sharded across job-order chunks on the
// persistent pool — every node belongs to at most one running job, so
// shards touch disjoint node ranges, and each node's arithmetic is
// independent, so the result is bit-identical to the serial loop.
// Completion stays serial, in sorted ID order, so freed nodes return to
// the free ring deterministically.
func (e *engine) advanceAndComplete(now time.Time) (int, error) {
	if cap(e.doneFlags) < len(e.order) {
		e.doneFlags = make([]bool, len(e.order))
	}
	e.doneFlags = e.doneFlags[:len(e.order)]
	e.pool.run(len(e.order), e.advanceFn)
	w := 0
	for k, slot := range e.order {
		if !e.doneFlags[k] {
			e.order[w] = slot
			w++
			continue
		}
		rj := &e.jobs[slot]
		if err := e.scheduler.CompleteJob(rj.job, now); err != nil {
			return 0, err
		}
		if e.cfg.Ledger != nil {
			e.ledgerClose(slot, now, ledger.Completed)
		}
		for _, ni := range rj.nodes {
			e.nodeJob[ni] = idleNode
			e.freePush(ni)
		}
		rj.job = nil
		rj.nodes = rj.nodes[:0]
		e.freeSlots = append(e.freeSlots, slot)
	}
	completed := len(e.order) - w
	e.order = e.order[:w]
	return completed, nil
}

// advanceRange advances progress for the jobs at order positions
// [lo, hi) and records their completion flags.
func (e *engine) advanceRange(lo, hi int) {
	for k := lo; k < hi; k++ {
		rj := &e.jobs[e.order[k]]
		// The progress rate depends only on the job's type and its
		// (per-job) cap, so it is computed once per job per step
		// instead of once per node.
		rate := progressRate(&rj.typ, rj.cap)
		done := true
		for _, ni := range rj.nodes {
			if p := e.nodeProgress[ni]; p < progressOne {
				p += progressDelta(e.nodeCoeff[ni], rate)
				e.nodeProgress[ni] = p
				if p < progressOne {
					done = false
				}
			}
		}
		e.doneFlags[k] = done
	}
}

// startJobs asks the scheduler for every queued job that fits and binds
// each to free nodes and a job-table slot, returning how many started.
func (e *engine) startJobs(now time.Time) (int, error) {
	started := 0
	for _, j := range e.scheduler.StartEligible(now) {
		if j.Nodes > e.freeLen {
			return started, fmt.Errorf("sim: scheduler started job %s needing %d nodes with only %d free (scheduler/simulator free-list divergence)",
				j.ID, j.Nodes, e.freeLen)
		}
		slot := e.allocSlot()
		rj := &e.jobs[slot]
		rj.id = j.ID
		rj.job = j
		rj.typ = e.types[j.TypeName]
		rj.believed = e.believedModel(j.ClaimedType)
		rj.cap = workload.NodeTDP
		rj.power = 0
		for i := 0; i < j.Nodes; i++ {
			ni := e.freePop()
			rj.nodes = append(rj.nodes, ni)
			e.nodeJob[ni] = slot
			if !e.calOn {
				e.nodeProgress[ni] = 0
			}
		}
		e.orderInsert(slot)
		if e.calOn {
			e.calStart(slot)
		}
		if e.cfg.Ledger != nil {
			e.ledgerOpen(slot, now)
		}
		started++
	}
	return started, nil
}

func (e *engine) allocSlot() int32 {
	if n := len(e.freeSlots); n > 0 {
		slot := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		return slot
	}
	e.jobs = append(e.jobs, runningJob{})
	return int32(len(e.jobs) - 1)
}

// orderInsert places an occupied slot into the sorted-order index.
func (e *engine) orderInsert(slot int32) {
	id := e.jobs[slot].id
	pos := sort.Search(len(e.order), func(i int) bool { return e.jobs[e.order[i]].id >= id })
	e.order = append(e.order, 0)
	copy(e.order[pos+1:], e.order[pos:])
	e.order[pos] = slot
}

// exempt bitset helpers.

func (e *engine) exemptReset(n int) {
	words := (n + 63) / 64
	if cap(e.exempt) < words {
		e.exempt = make([]uint64, words)
		return
	}
	e.exempt = e.exempt[:words]
	for i := range e.exempt {
		e.exempt[i] = 0
	}
}

func (e *engine) exemptSet(k int)      { e.exempt[k/64] |= 1 << (k % 64) }
func (e *engine) exemptBit(k int) bool { return e.exempt[k/64]&(1<<(k%64)) != 0 }

// applyCaps selects per-job caps for all running jobs: the §6.4 feedback
// exemption first, then either the AQA uniform cap or the configured
// budgeter. Jobs are visited in sorted-ID order so every floating-point
// reduction is deterministic (the original map-iteration engine left the
// exemption subtraction and budgeter input order to map order). It
// reports whether any job's cap actually moved, so the event-driven step
// loop knows a re-measure is needed (an unchanged cap set implies an
// unchanged power sum).
func (e *engine) applyCaps(jobBudget units.Power, now time.Time) (changed bool) {
	if len(e.order) == 0 {
		return false
	}

	// Feedback exemption (§6.4): at-risk jobs get full power and their
	// demand is removed from the shared budget. The bitset is only ever
	// touched when the mitigation is on.
	anyExempt := false
	if e.cfg.FeedbackQoSExempt {
		e.exemptReset(len(e.order))
		for k, slot := range e.order {
			rj := &e.jobs[slot]
			if rj.job.QoS(now) >= e.cfg.ExemptFraction*e.cfg.QoSLimit {
				e.exemptSet(k)
				anyExempt = true
				jobBudget -= rj.typ.PMax * units.Power(rj.job.Nodes)
			}
		}
	}

	if e.cfg.Budgeter == nil {
		// AQA baseline: one uniform cap across active, non-exempt nodes;
		// exempt jobs always run at TDP.
		busy := 0
		for k, slot := range e.order {
			if !anyExempt || !e.exemptBit(k) {
				busy += e.jobs[slot].job.Nodes
			}
		}
		per := workload.NodeTDP
		if busy > 0 {
			per = (jobBudget / units.Power(busy)).Clamp(workload.NodeMinCap, workload.NodeTDP)
		}
		for k, slot := range e.order {
			cap := per
			if anyExempt && e.exemptBit(k) {
				cap = workload.NodeTDP
			}
			if e.jobs[slot].cap != cap {
				e.jobs[slot].cap = cap
				changed = true
				if e.calOn {
					e.calRescale = append(e.calRescale, slot)
				}
			}
		}
		return changed
	}

	e.bjobs = e.bjobs[:0]
	for k, slot := range e.order {
		if anyExempt && e.exemptBit(k) {
			continue
		}
		rj := &e.jobs[slot]
		e.bjobs = append(e.bjobs, budget.Job{ID: rj.id, Nodes: rj.job.Nodes, Model: rj.believed})
	}
	if cap(e.caps) < len(e.bjobs) {
		e.caps = make([]units.Power, len(e.bjobs))
	}
	e.caps = e.caps[:len(e.bjobs)]
	e.cfg.Budgeter.AllocateInto(e.bjobs, jobBudget, e.caps)
	next := 0
	for k, slot := range e.order {
		rj := &e.jobs[slot]
		cap := workload.NodeTDP
		if !anyExempt || !e.exemptBit(k) {
			cap = e.caps[next]
			next++
		}
		if rj.cap != cap {
			rj.cap = cap
			changed = true
			if e.calOn {
				e.calRescale = append(e.calRescale, slot)
			}
		}
	}
	return changed
}

// measure settles each job's achieved per-node power (the cap, saturated
// at the type's uncapped draw) and returns cluster power: the sum over
// running jobs of the integer milliwatt rate the ledger is given, plus
// the idle nodes at the quantized idle power. Down nodes draw nothing.
// Integer addition is exact and order-free, so the sum costs O(running
// jobs), needs no per-node pass, and is the same at any shard count; the
// busy-node count for telemetry falls out of the same loop.
func (e *engine) measure() units.Power {
	var mw int64
	busy := 0
	for _, slot := range e.order {
		rj := &e.jobs[slot]
		rj.power = min(rj.cap, rj.typ.PMax)
		mw += ledger.MilliWatts(rj.watts())
		busy += len(rj.nodes)
	}
	idle := len(e.nodeJob) - busy - e.down
	mw += int64(idle) * ledger.MilliWatts(e.cfg.IdlePower.Watts())
	e.measuredBusy = busy
	return units.Power(float64(mw) / 1e3)
}

// watts is a running job's settled draw across all its nodes — the
// value both measure and the energy ledger quantize to milliwatts.
func (rj *runningJob) watts() float64 { return rj.power.Watts() * float64(len(rj.nodes)) }
