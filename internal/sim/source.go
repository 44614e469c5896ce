package sim

import (
	"fmt"

	"repro/internal/schedule"
	"repro/internal/workload"
)

// ArrivalSource streams job arrivals into a simulation in non-decreasing
// time order, so traces with millions of jobs never have to reside in
// memory as one slice. Each arrival carries its job type: trace ingesters
// synthesize types on the fly (see internal/tracein), and the engine
// registers unseen types as they first appear.
//
// Run pulls one arrival ahead of simulated time (the look-ahead also
// feeds the step loop's fast-forward horizon), validates each arrival as it
// is pulled, and stops pulling once the stream ends or the remaining
// arrivals fall past the admission horizon.
type ArrivalSource interface {
	// Next returns the next arrival and its type. ok is false when the
	// stream is exhausted; a non-nil error aborts the run.
	Next() (a schedule.Arrival, typ workload.Type, ok bool, err error)
}

// sliceSource adapts the Config.Arrivals slice to ArrivalSource. The
// slice was validated up front by Run, so Next never fails.
type sliceSource struct {
	arrivals []schedule.Arrival
	types    map[string]workload.Type
	i        int
}

func (s *sliceSource) Next() (schedule.Arrival, workload.Type, bool, error) {
	if s.i >= len(s.arrivals) {
		return schedule.Arrival{}, workload.Type{}, false, nil
	}
	a := s.arrivals[s.i]
	s.i++
	return a, s.types[a.TypeName], true, nil
}

// validateArrival applies the per-arrival admission invariants shared by
// the slice and streaming paths. The type must be runnable on this
// cluster: a job wider than the cluster would sit at its queue head
// forever, and one with no positive base execution time would never
// progress (or finish in one step). Timestamps must be non-decreasing,
// since admission walks arrivals front to back and would never admit an
// early-timestamped straggler.
func validateArrival(a schedule.Arrival, typ workload.Type, nodes int, prev schedule.Arrival, havePrev bool) error {
	if typ.Nodes < 1 || typ.Nodes > nodes {
		return fmt.Errorf("sim: arrival %s (type %s) needs %d nodes but the cluster has %d — it can never start",
			a.JobID, a.TypeName, typ.Nodes, nodes)
	}
	if typ.BaseSeconds <= 0 {
		return fmt.Errorf("sim: arrival %s (type %s) has no positive base execution time",
			a.JobID, a.TypeName)
	}
	if havePrev && a.At < prev.At {
		return fmt.Errorf("sim: arrivals not sorted by At: %s at %v precedes %s at %v",
			a.JobID, a.At, prev.JobID, prev.At)
	}
	return nil
}
