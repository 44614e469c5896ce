package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ledger"
)

// Completion calendar: event-count-proportional job progress.
//
// Between cap changes a job's per-node progress increment is constant, so
// its completion second is fully determined the moment the cap is set.
// Instead of touching every busy node every simulated second, the engine
// computes each running job's completion step in closed form at start and
// at every recap — O(1) per job whose cap moved — and keeps calNext, a
// lower bound on the earliest such step. A second before calNext costs
// the progress phase one comparison; at calNext the phase walks the
// running jobs once, completing those due and recomputing the bound. That
// walk is the same sorted-order compaction every completion pays anyway,
// so no step's cost grows. The naive oracle in reference_test.go still
// advances every node every second; the two must agree byte for byte.
//
// Fixed-point progress is the specification. A node's progress is a
// uint64 count of 2⁻⁵² of a job (progressOne is the whole job), and every
// simulated second adds delta = ⌈fl(coeff·rate)·2⁵²⌉ (progressDelta).
// Integer addition is exact, so k steps at one delta add exactly k·delta,
// and the closed forms are O(1):
//
//   - materialize: p += steps·delta;
//   - completion: the job finishes ⌈(2⁵² − p)/delta⌉ steps after base.
//
// Both stay below 2⁵³ (p < 2⁵² and delta ≤ 2⁵²), so nothing overflows.
//
// Representative node. Per-node progress is write-only state — no output
// reads it; only the step at which all of a job's nodes reach progressOne
// matters. fl(c·r) and ⌈·⌉ are monotone, so the node with the job's
// minimum variation coefficient has the smallest delta at every rate and
// therefore the least progress after every step, across any sequence of
// piecewise-constant rates. The job completes exactly when that one node
// does, so the calendar tracks a single (progress, delta) pair per job,
// materialized lazily at recaps.
//
// Completions are applied by walking the sorted-order index, so jobs due
// on the same second complete in job-ID order — the order that fixes the
// free-ring push order, the ledger close order, and every downstream
// value.

// progressOne is one whole job in fixed-point progress units (2⁵²).
const progressOne = uint64(1) << 52

// progressDelta is the per-step progress increment of a node with
// performance coefficient coeff at rate (fraction of the job per second):
// ⌈fl(coeff·rate)·2⁵²⌉. Rounding up makes a job whose exact duration is a
// whole number of seconds finish on that second. Increments of a whole
// job or more are clamped to progressOne (one step finishes either way);
// a zero or NaN rate never progresses.
func progressDelta(coeff, rate float64) uint64 {
	// The conversion rounds the product on its own, pinning fl(coeff·rate)
	// on every architecture; scaling by 2⁵² is exact.
	d := math.Ceil(float64(coeff*rate) * 0x1p52)
	switch {
	case d >= 0x1p52:
		return progressOne
	case d > 0:
		return uint64(d)
	}
	return 0
}

// stepsToFinish is how many steps of delta > 0 take progress p < progressOne
// to progressOne: ⌈(2⁵² − p)/delta⌉.
func stepsToFinish(p, delta uint64) int64 {
	return int64((progressOne - p + delta - 1) / delta)
}

// calNever marks a job with no completion inside the run's step range.
const calNever = int64(math.MaxInt64)

// calJob is one job-table slot's calendar state, reused with the slot.
type calJob struct {
	// p is the representative (minimum-coefficient) node's progress
	// after the progress phase of step base.
	p uint64
	// delta is the per-step increment in effect since base; rescales
	// materialize p before replacing it.
	delta uint64
	// coeff is the minimum performance-variation coefficient across the
	// job's nodes — the last node to finish.
	coeff float64
	base  int64
	// due is the scheduled completion step, or calNever.
	due int64
}

// calStart initializes calendar state for a slot that startJobs just
// bound to nodes, and queues it for (re)scheduling after this step's
// capping phase picks the job's first real cap.
func (e *engine) calStart(slot int32) {
	for len(e.cal) < len(e.jobs) {
		e.cal = append(e.cal, calJob{})
	}
	rj := &e.jobs[slot]
	min := e.nodeCoeff[rj.nodes[0]]
	for _, ni := range rj.nodes[1:] {
		if v := e.nodeCoeff[ni]; v < min {
			min = v
		}
	}
	e.cal[slot] = calJob{coeff: min, base: e.curStep, due: calNever}
	e.calRescale = append(e.calRescale, slot)
}

// calFlushRescale reschedules every slot whose rate changed this step:
// new starts and jobs whose caps moved. It runs after the capping phase,
// so a job started and immediately capped in the same second is
// rescheduled once with its final delta (the second queue entry finds
// the delta unchanged and does nothing).
func (e *engine) calFlushRescale() {
	for _, slot := range e.calRescale {
		e.calReschedule(slot, e.curStep)
	}
	e.calRescale = e.calRescale[:0]
}

// calReschedule recomputes a slot's delta from the current cap and, if it
// moved, materializes the representative progress through step t under
// the outgoing delta and recomputes the completion step.
func (e *engine) calReschedule(slot int32, t int64) {
	c := &e.cal[slot]
	rj := &e.jobs[slot]
	delta := progressDelta(c.coeff, progressRate(&rj.typ, rj.cap))
	if delta == c.delta {
		return // same increment: progress line and due step both stand
	}
	if steps := t - c.base; steps > 0 && c.delta > 0 {
		// Checked before multiplying, so a broken calendar panics here
		// instead of wrapping.
		if steps >= stepsToFinish(c.p, c.delta) {
			// Unreachable when the calendar is sound: a crossing at or
			// before t would have completed the job at its due step.
			panic(fmt.Sprintf("sim: calendar job %s crossed 1.0 before its rescale at step %d (base %d)",
				rj.id, t, c.base))
		}
		c.p += uint64(steps) * c.delta
	}
	c.base, c.delta, c.due = t, delta, calNever
	if delta > 0 {
		if k := stepsToFinish(c.p, delta); k <= e.calMaxStep-t {
			c.due = t + k
		}
	}
	// A due step that moved later leaves calNext low; that only costs one
	// walk that completes nothing.
	e.calNext = min(e.calNext, c.due)
}

// completeDue is the engine's progress phase. Before calNext nothing can
// be due. At calNext it completes the jobs due now by walking the
// sorted-order index in place, returning their nodes to the free ring
// and their slots to the job table, and sets calNext to the earliest
// remaining due step. It returns how many jobs completed.
func (e *engine) completeDue(now time.Time) (int, error) {
	t := e.curStep
	if e.calNext > t {
		return 0, nil
	}
	next := calNever
	w := 0
	for _, slot := range e.order {
		due := e.cal[slot].due
		if due != t {
			if due < t {
				return 0, fmt.Errorf("sim: calendar missed the completion of job %s (due step %d, now %d)",
					e.jobs[slot].id, due, t)
			}
			next = min(next, due)
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
	e.calNext = next
	return completed, nil
}
