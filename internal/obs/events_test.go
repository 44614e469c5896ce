package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerWritesJSONL(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, "run-1")
	tr.now = func() time.Time { return time.Unix(100, 42) }

	tr.Emit(Event{Type: EvDRBid, Fields: F{"target_w": 3400.0, "jobs": 2}})
	tr.Emit(Event{Type: EvModelUpdate, Job: "j1", Run: "override", TimeUnixNano: 7})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}

	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("got %d lines, want 2", len(events))
	}
	if events[0].Type != EvDRBid || events[0].Run != "run-1" || events[0].TimeUnixNano != 100*int64(time.Second)+42 {
		t.Errorf("event 0 = %+v: want stamped time and default run ID", events[0])
	}
	if events[0].Fields["target_w"] != 3400.0 {
		t.Errorf("event 0 fields = %v", events[0].Fields)
	}
	if events[1].Run != "override" || events[1].TimeUnixNano != 7 || events[1].Job != "j1" {
		t.Errorf("event 1 = %+v: explicit run/time/job not preserved", events[1])
	}
}

func TestRingTracerKeepsLastN(t *testing.T) {
	tr := NewRing(3, "r")
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Type: EvSimStep, TimeUnixNano: int64(i + 1)})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	for i, want := range []int64{3, 4, 5} {
		if evs[i].TimeUnixNano != want {
			t.Errorf("ring[%d].t = %d, want %d (oldest-first order)", i, evs[i].TimeUnixNano, want)
		}
	}
	if tr.Count() != 5 {
		t.Errorf("count = %d, want 5", tr.Count())
	}
}

// TestTracerConcurrentEmit races emitters against ring reads; run under
// -race in CI.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewRing(64, "r")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Type: EvEpochBatch, Fields: F{"i": i}})
				_ = tr.Events()
			}
		}()
	}
	wg.Wait()
	if got := tr.Count(); got != 800 {
		t.Errorf("count = %d, want 800", got)
	}
}
