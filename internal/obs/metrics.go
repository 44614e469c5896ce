// Package obs is the framework's observability layer: a dependency-free,
// allocation-conscious metrics registry with Prometheus-text exposition,
// a structured JSONL event tracer, a leveled logger, and an admin HTTP
// server (/metrics, /healthz, pprof). Both tiers of the power-management
// stack — the cluster manager's rebudget loop and the job-tier
// endpoint/GEOPM runtime — hang their instrumentation on this package,
// as do the tabular simulator and the sweep engine.
//
// Everything is nil-safe by design: a nil *Registry hands out nil
// instruments, and every instrument method no-ops on a nil receiver, so
// instrumented hot paths pay only a nil check when observability is
// disabled. The deterministic simulator relies on this: metrics and
// events observe state but never participate in it, so results are
// bit-identical with observability on or off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; all methods are safe for concurrent use and no-op on
// a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone counter (not attached to a registry),
// useful as a shared progress cell between goroutines.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use and no-op on a
// nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// All methods are safe for concurrent use and no-op on a nil receiver.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefLatencyBuckets suits control-loop and cap-application latencies:
// 10 µs up to 10 s.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// DefErrorBuckets suits reserve-relative tracking-error ratios
// (the paper's constraint is 0.30).
var DefErrorBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1, 2}

// DefPowerBuckets suits power distributions in watts, from a single
// capped node (~tens of W) up to fleet aggregates (~MW). Latency/error
// buckets saturate instantly when fed watt-scale values — use these for
// any histogram whose unit is watts.
var DefPowerBuckets = []float64{
	10, 25, 50, 100, 250, 500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6,
}

// NewHistogram returns a standalone histogram over the given bucket
// upper bounds (sorted ascending; they are copied).
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	sort.Float64s(h.bounds)
	h.counts = make([]atomic.Uint64, len(h.bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (≤ ~15); linear scan beats binary search here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// CountAtMost returns how many observations were ≤ bound: exact when
// bound is one of the bucket bounds, otherwise the count up to the
// largest bound below it (0 on a nil receiver).
func (h *Histogram) CountAtMost(bound float64) (n uint64) {
	for i := 0; h != nil && i < len(h.bounds) && h.bounds[i] <= bound; i++ {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-th quantile (q in [0, 1]) with
// BucketQuantile. Returns NaN on a nil or empty histogram or an
// out-of-range q.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := float64(h.count.Load())
	cum := make([]float64, len(h.bounds))
	var c float64
	for i := range h.bounds {
		c += float64(h.counts[i].Load())
		cum[i] = c
	}
	return BucketQuantile(h.bounds, cum, total, q)
}

// BucketQuantile estimates the q-th quantile (q in [0, 1]) from
// cumulative bucket counts the way PromQL's histogram_quantile does:
// cum[i] counts the observations ≤ bounds[i] (finite, ascending) and
// total counts all of them, the +Inf bucket's included. The answer is
// interpolated linearly inside the bucket holding rank q·total, with 0
// as the first bucket's lower edge, so it is exact at bucket boundaries
// and its error is bounded by bucket width. A rank in the +Inf bucket
// reports the highest finite bound. Returns NaN for an out-of-range q,
// a zero total, or no finite bound to report.
func BucketQuantile(bounds, cum []float64, total, q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 || total <= 0 || len(bounds) == 0 {
		return math.NaN()
	}
	rank := q * total
	lower, lowerCount := 0.0, 0.0
	for i, bound := range bounds {
		if cum[i] >= rank {
			if cum[i] == lowerCount {
				return bound
			}
			return lower + (bound-lower)*(rank-lowerCount)/(cum[i]-lowerCount)
		}
		lower, lowerCount = bound, cum[i]
	}
	return lower
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// child pairs one label-value tuple with its instrument.
type child struct {
	values []string
	metric any // *Counter, *Gauge, or *Histogram
}

// family is one named metric family: a kind, a help string, a label
// schema, and one instrument per distinct label-value tuple.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
}

// labelKey joins label values into a map key. \x1f cannot appear in a
// sane label value, so the join is collision-free in practice.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = NewHistogram(f.bounds)
	}
	f.children[key] = &child{values: append([]string(nil), values...), metric: m}
	return m
}

func (f *family) delete(values []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.children, labelKey(values))
}

// Registry holds metric families. A nil *Registry is a valid no-op sink:
// every accessor returns a nil instrument whose methods do nothing.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family registers (or fetches) a family. Registration is idempotent:
// re-registering an existing name returns the existing family, but a
// kind or label-schema mismatch panics — that is a programming error.
func (r *Registry) family(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{
				name: name, help: help, kind: kind,
				labels:   append([]string(nil), labels...),
				bounds:   append([]float64(nil), bounds...),
				children: make(map[string]*child),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).get(nil).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).get(nil).(*Gauge)
}

// Histogram registers (or fetches) an unlabeled histogram. bounds are
// bucket upper bounds (ignored if the family already exists).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindHistogram, nil, bounds).get(nil).(*Histogram)
}

// CounterVec is a counter family with labels. Nil-safe.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values).(*Counter)
}

// Delete drops the child for the given label values (e.g. when a job
// disconnects), so scrapes stop reporting departed series.
func (v *CounterVec) Delete(values ...string) {
	if v == nil {
		return
	}
	v.f.delete(values)
}

// GaugeVec is a gauge family with labels. Nil-safe.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values).(*Gauge)
}

// Delete drops the child for the given label values.
func (v *GaugeVec) Delete(values ...string) {
	if v == nil {
		return
	}
	v.f.delete(values)
}

// HistogramVec is a histogram family with labels. Nil-safe.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r.family(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values).(*Histogram)
}

// Delete drops the child for the given label values.
func (v *HistogramVec) Delete(values ...string) {
	if v == nil {
		return
	}
	v.f.delete(values)
}
