// Package faults is the framework's deterministic fault layer: a seeded,
// schedule-driven transport wrapper that injects message drops, delivery
// delays, mid-frame connection resets, and network partitions into the
// cluster↔job wire path, plus a node fail-stop/recovery schedule type
// consumed by both the tabular simulator and the register-level node
// simulation.
//
// Everything here is deterministic by construction: transport decisions
// come from a seeded RNG advanced once per frame, and node failures come
// from explicit, validated schedules. The same seed and schedule always
// produce the same fault sequence, so chaos tests are reproducible and
// the simulator's failure runs are bit-identical from run to run.
//
// The production tiers (proto deadlines, clustermgr liveness/eviction,
// endpointd reconnect/failsafe) are hardened against exactly the regime
// this package generates; the chaos end-to-end test drives them through
// it and asserts the control loop still tracks its power target.
package faults

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// EventKind discriminates node-schedule events.
type EventKind string

// Node-schedule event kinds.
const (
	// KindFail powers a node off (fail-stop): any job running on it is
	// killed, and the node leaves the schedulable pool.
	KindFail EventKind = "fail"
	// KindRecover returns a failed node to the schedulable pool with
	// fresh state (a reboot: progress, energy counters, and caps reset).
	KindRecover EventKind = "recover"
)

// NodeEvent is one fail-stop or recovery of one node at a virtual-time
// offset from run start.
type NodeEvent struct {
	// At is the event time as an offset from schedule start.
	At time.Duration `json:"at_ns"`
	// Node is the zero-based node index the event applies to.
	Node int `json:"node"`
	// Kind is "fail" or "recover".
	Kind EventKind `json:"kind"`
}

// ValidateNodeSchedule checks a schedule against a cluster size: events
// must be sorted by time (ties broken by node index), name nodes inside
// [0, nodes), use known kinds, and alternate sensibly per node (no double
// fail, no recovery of a live node).
func ValidateNodeSchedule(events []NodeEvent, nodes int) error {
	down := make(map[int]bool)
	for i, ev := range events {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("faults: event %d names node %d outside [0, %d)", i, ev.Node, nodes)
		}
		if ev.Kind != KindFail && ev.Kind != KindRecover {
			return fmt.Errorf("faults: event %d has unknown kind %q", i, ev.Kind)
		}
		if i > 0 {
			prev := events[i-1]
			if ev.At < prev.At || (ev.At == prev.At && ev.Node < prev.Node) {
				return fmt.Errorf("faults: events not sorted: event %d (node %d at %v) precedes event %d (node %d at %v)",
					i, ev.Node, ev.At, i-1, prev.Node, prev.At)
			}
		}
		if ev.Kind == KindFail {
			if down[ev.Node] {
				return fmt.Errorf("faults: event %d fails node %d, which is already down", i, ev.Node)
			}
			down[ev.Node] = true
		} else {
			if !down[ev.Node] {
				return fmt.Errorf("faults: event %d recovers node %d, which is not down", i, ev.Node)
			}
			down[ev.Node] = false
		}
	}
	return nil
}

// SortNodeSchedule orders events by time, ties broken by node index, the
// canonical order ValidateNodeSchedule expects.
func SortNodeSchedule(events []NodeEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Node < events[j].Node
	})
}

// WriteNodeSchedule serializes a schedule as JSON lines, the same
// file-per-line format the arrival and target schedules use.
func WriteNodeSchedule(w io.Writer, events []NodeEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNodeSchedule parses a JSON-lines schedule. Blank lines are skipped;
// events are returned in file order (callers validate with
// ValidateNodeSchedule against their cluster size).
func ReadNodeSchedule(r io.Reader) ([]NodeEvent, error) {
	var out []NodeEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev NodeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("faults: schedule line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
