package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramSemantics(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if same := r.Counter("c_total", "a counter"); same != c {
		t.Error("re-registering a counter returned a different instrument")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}

	h := r.Histogram("h_seconds", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Errorf("histogram sum = %v, want 106", got)
	}
	// Per-bucket (non-cumulative) counts: ≤1: {0.5, 1}, ≤2: {1.5}, ≤4: {3}, +Inf: {100}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	// Cumulative counts: exact at a bound (1 counts itself), the largest
	// bound below otherwise.
	for bound, want := range map[float64]uint64{0.5: 0, 1: 2, 1.5: 2, 2: 3, 4: 4, 1e9: 4} {
		if got := h.CountAtMost(bound); got != want {
			t.Errorf("CountAtMost(%v) = %d, want %d", bound, got, want)
		}
	}
	if got := (*Histogram)(nil).CountAtMost(1); got != 0 {
		t.Errorf("nil CountAtMost = %d", got)
	}
}

func TestVecChildrenAndDelete(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("job_watts", "per-job watts", "job")
	v.With("j1").Set(100)
	v.With("j2").Set(200)
	if got := v.With("j1").Value(); got != 100 {
		t.Errorf("j1 = %v, want 100", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `job_watts{job="j2"} 200`) {
		t.Errorf("exposition missing j2 series:\n%s", sb.String())
	}
	v.Delete("j2")
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "j2") {
		t.Errorf("deleted series still exposed:\n%s", sb.String())
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestNilSafety drives every instrument and registry method through nil
// receivers: the disabled-observability configuration must never panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.Counter("c", "").Add(3)
	_ = r.Counter("c", "").Value()
	r.Gauge("g", "").Set(1)
	r.Gauge("g", "").Add(1)
	_ = r.Gauge("g", "").Value()
	r.Histogram("h", "", DefLatencyBuckets).Observe(1)
	_ = r.Histogram("h", "", nil).Count()
	_ = r.Histogram("h", "", nil).Sum()
	r.CounterVec("cv", "", "l").With("x").Inc()
	r.CounterVec("cv", "", "l").Delete("x")
	r.GaugeVec("gv", "", "l").With("x").Set(1)
	r.GaugeVec("gv", "", "l").Delete("x")
	r.HistogramVec("hv", "", nil, "l").With("x").Observe(1)
	r.HistogramVec("hv", "", nil, "l").Delete("x")
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	tr.Emit(Event{Type: EvSimStep})
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	_ = tr.Count()
	_ = tr.Events()
	_ = tr.Flush()

	var l *Logger
	l.Infof("dropped")
	l.WithJob("j").Errorf("dropped")
}

// TestConcurrentRegistrationAndScrape races registration, updates, and
// exposition from many goroutines; run under -race in CI.
func TestConcurrentRegistrationAndScrape(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total", "shared").Inc()
				r.Gauge(fmt.Sprintf("gauge_%d", i%7), "g").Set(float64(i))
				r.Histogram("lat_seconds", "h", DefLatencyBuckets).Observe(float64(i) / 1000)
				v := r.GaugeVec("labeled", "lv", "job")
				v.With(fmt.Sprintf("j%d", i%5)).Add(1)
				if i%10 == 9 {
					v.Delete(fmt.Sprintf("j%d", i%5))
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "shared").Value(); got != workers*iters {
		t.Errorf("shared counter = %d, want %d", got, workers*iters)
	}
}
