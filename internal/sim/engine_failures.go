package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/ledger"
)

// Node fail-stop/recovery handling. Everything in this file runs serially
// at the top of a step, before the sharded progress advance, so the shard
// count can never influence which jobs die or in what order nodes return
// to the free ring — the determinism guard in failures_test.go holds runs
// at shard counts {1,3,8} bit-identical.

// nodeState.jobIdx sentinels: -1 is idle and schedulable, -2 is failed
// out of the pool (drawing 0 W, invisible to the scheduler).
const (
	idleNode int32 = -1
	downNode int32 = -2
)

// applyFailures applies every schedule event due at or before offset t.
// It returns how many fail and recover events were applied this call.
func (e *engine) applyFailures(t time.Duration, now time.Time) (failed, recovered int, err error) {
	for e.nextFailure < len(e.cfg.Failures) && e.cfg.Failures[e.nextFailure].At <= t {
		ev := e.cfg.Failures[e.nextFailure]
		e.nextFailure++
		switch ev.Kind {
		case faults.KindFail:
			if err := e.failNode(int32(ev.Node), now); err != nil {
				return failed, recovered, err
			}
			failed++
		case faults.KindRecover:
			if err := e.recoverNode(int32(ev.Node)); err != nil {
				return failed, recovered, err
			}
			recovered++
		}
	}
	return failed, recovered, nil
}

// failNode fail-stops one node: the job running there (if any) is killed
// and requeued from scratch, the job's surviving nodes return to the free
// ring, and the node itself leaves the schedulable pool.
func (e *engine) failNode(ni int32, now time.Time) error {
	switch idx := e.nodeJob[ni]; {
	case idx >= 0:
		slot := idx
		rj := &e.jobs[slot]
		if err := e.scheduler.Requeue(rj.job, now); err != nil {
			return err
		}
		e.requeues++
		if e.cfg.Ledger != nil {
			e.ledgerClose(slot, now, ledger.Requeued)
		}
		for _, other := range rj.nodes {
			if other == ni {
				e.nodeJob[other] = downNode
				continue
			}
			e.nodeJob[other] = idleNode
			e.freePush(other)
		}
		e.orderRemove(slot)
		rj.job = nil
		rj.nodes = rj.nodes[:0]
		e.freeSlots = append(e.freeSlots, slot)
	case idx == idleNode:
		e.freeRemove(ni)
		e.nodeJob[ni] = downNode
	default:
		return fmt.Errorf("sim: failure event fails node %d, which is already down", ni)
	}
	e.down++
	return e.scheduler.AdjustCapacity(-1)
}

// recoverNode returns a failed node to the pool — a reboot: pushed to
// the free-ring tail (progress is reset when its next job starts). The
// node's performance-variation coefficient survives (it models the
// hardware, not the boot).
func (e *engine) recoverNode(ni int32) error {
	if e.nodeJob[ni] != downNode {
		return fmt.Errorf("sim: recovery event recovers node %d, which is not down", ni)
	}
	e.nodeJob[ni] = idleNode
	e.freePush(ni)
	e.down--
	return e.scheduler.AdjustCapacity(+1)
}

// freeRemove deletes one node from the free ring, preserving FIFO order
// of the survivors. O(ring length), paid only on failures of idle nodes.
func (e *engine) freeRemove(ni int32) {
	for k := 0; k < e.freeLen; k++ {
		pos := e.freeHead + k
		if pos >= len(e.freeRing) {
			pos -= len(e.freeRing)
		}
		if e.freeRing[pos] != ni {
			continue
		}
		// Shift every later entry back one place.
		for m := k; m < e.freeLen-1; m++ {
			src := e.freeHead + m + 1
			if src >= len(e.freeRing) {
				src -= len(e.freeRing)
			}
			dst := e.freeHead + m
			if dst >= len(e.freeRing) {
				dst -= len(e.freeRing)
			}
			e.freeRing[dst] = e.freeRing[src]
		}
		e.freeLen--
		return
	}
	// Unreachable when engine and scheduler agree; loud if they diverge.
	panic(fmt.Sprintf("sim: node %d not in free ring", ni))
}

// orderRemove deletes one occupied slot from the sorted-order index.
func (e *engine) orderRemove(slot int32) {
	id := e.jobs[slot].id
	pos := sort.Search(len(e.order), func(i int) bool { return e.jobs[e.order[i]].id >= id })
	for pos < len(e.order) && e.order[pos] != slot {
		pos++
	}
	if pos == len(e.order) {
		panic(fmt.Sprintf("sim: slot %d (job %s) not in order index", slot, id))
	}
	copy(e.order[pos:], e.order[pos+1:])
	e.order = e.order[:len(e.order)-1]
}
