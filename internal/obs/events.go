package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event types emitted across the stack, besides EvSpan. The cap path
// (rebudget, set_budget, cap_apply, cap_fanout) is traced as spans; the
// flat events cover the job tier's online-model lifecycle, the
// demand-response bid, the simulator's stepping and SLO alerts.
const (
	// EvModelRefit is the job-tier modeler accepting a new online fit.
	EvModelRefit = "model_refit"
	// EvModelUpdate is the cluster tier receiving a model update.
	EvModelUpdate = "model_update"
	// EvEpochBatch is a batch of new epochs observed at the job tier.
	EvEpochBatch = "epoch_batch"
	// EvDRBid is the demand-response bid in force for a run.
	EvDRBid = "dr_bid"
	// EvSimStep is a simulator step snapshot (running/queued/power).
	EvSimStep = "sim_step"
	// EvAlert is an SLO rule transition (fired or resolved) from the
	// declarative alerting engine (internal/slo).
	EvAlert = "alert"
)

// Event is one structured trace record. Fields carries the
// event-type-specific payload; Run and Job identify the emitting run
// and job where applicable.
type Event struct {
	// TimeUnixNano stamps the event. Zero means "stamp at Emit" with the
	// tracer's wall clock; the simulator passes its virtual time instead.
	TimeUnixNano int64          `json:"t_ns"`
	Type         string         `json:"type"`
	Run          string         `json:"run,omitempty"`
	Job          string         `json:"job,omitempty"`
	Fields       map[string]any `json:"fields,omitempty"`
}

// F is shorthand for an event's field map.
type F = map[string]any

// Tracer streams typed events as JSON lines to a writer, a bounded
// in-memory ring, or both. A nil *Tracer is a valid no-op sink. All
// methods are safe for concurrent use.
type Tracer struct {
	run string
	now func() time.Time

	mu       sync.Mutex
	bw       *bufio.Writer
	enc      *json.Encoder
	ring     []Event
	ringNext int
	ringLen  int

	count   atomic.Uint64
	errored atomic.Uint64
	dropped atomic.Uint64
}

// NewTracer returns a tracer writing JSONL events to w, stamping each
// event with the given run ID when the event carries none. Output is
// buffered; call Flush (or Close the underlying writer after Flush) to
// make it durable.
func NewTracer(w io.Writer, run string) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{run: run, now: time.Now, bw: bw, enc: json.NewEncoder(bw)}
}

// NewRing returns a tracer retaining the last n events in memory,
// retrievable with Events. Useful for tests and in-process inspection.
func NewRing(n int, run string) *Tracer {
	if n < 1 {
		n = 1
	}
	return &Tracer{run: run, now: time.Now, ring: make([]Event, n)}
}

// Enabled reports whether the tracer records events. Hot paths should
// gate any per-event allocation (field maps) behind it.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event, stamping its time and run ID if unset.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = t.now().UnixNano()
	}
	if e.Run == "" {
		e.Run = t.run
	}
	t.mu.Lock()
	if t.ring != nil {
		if t.ringLen == len(t.ring) {
			t.dropped.Add(1)
		}
		t.ring[t.ringNext] = e
		t.ringNext = (t.ringNext + 1) % len(t.ring)
		if t.ringLen < len(t.ring) {
			t.ringLen++
		}
	}
	if t.enc != nil {
		if err := t.enc.Encode(e); err != nil {
			t.errored.Add(1)
		}
	}
	t.mu.Unlock()
	t.count.Add(1)
}

// Count returns how many events have been emitted (0 on nil).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Dropped returns how many events the ring sink overwrote before they
// were ever read (0 on nil or writer-only tracers). A non-zero value
// means the retained trace is truncated; the telemetry sampler exports
// it as obs_events_dropped_total.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Errors returns how many events failed to encode (0 on nil).
func (t *Tracer) Errors() uint64 {
	if t == nil {
		return 0
	}
	return t.errored.Load()
}

// Events returns the ring contents oldest-first (nil for a writer-only
// or nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil || t.ringLen == 0 {
		return nil
	}
	out := make([]Event, 0, t.ringLen)
	start := t.ringNext - t.ringLen
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.ringLen; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Flush drains buffered output to the underlying writer. No-op for ring
// or nil tracers.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw == nil {
		return nil
	}
	return t.bw.Flush()
}
