// Package trace records power-tracking time series and computes the
// paper's tracking-error metrics (§4.4.2, §6.3): error is the distance
// between measured and target power divided by the demand-response
// reserve, and the constraint is that error stays under a threshold for a
// given fraction of time (e.g. under 30% error at least 90% of the time).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// Point is one observation of the cluster's power against its target.
type Point struct {
	// Time stamps the observation.
	Time time.Time
	// Target is the cluster power target at that instant.
	Target units.Power
	// Measured is the cluster's measured power draw.
	Measured units.Power
}

// Recorder accumulates points. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	points []Point
}

// Record appends one point.
func (r *Recorder) Record(p Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = append(r.points, p)
}

// Points returns a copy of the recorded series.
func (r *Recorder) Points() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, len(r.points))
	copy(out, r.points)
	return out
}

// Len returns the number of recorded points.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.points)
}

// Errors computes the per-point tracking error |measured − target| /
// reserve (§4.4.2: 10 kW miss on a 100 kW reserve is 10% error). A
// non-positive reserve yields an empty slice.
func Errors(points []Point, reserve units.Power) []float64 {
	if reserve <= 0 {
		return nil
	}
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = math.Abs((p.Measured - p.Target).Watts()) / reserve.Watts()
	}
	return out
}

// FractionWithin reports the fraction of observations with error ≤
// threshold. An empty series reports 0.
func FractionWithin(errors []float64, threshold float64) float64 {
	if len(errors) == 0 {
		return 0
	}
	n := 0
	for _, e := range errors {
		if e <= threshold {
			n++
		}
	}
	return float64(n) / float64(len(errors))
}

// Summary bundles the tracking metrics for one run.
type Summary struct {
	// Points is the series length.
	Points int
	// MeanAbsErr is the mean |measured − target| in watts.
	MeanAbsErr units.Power
	// P90Err is the 90th-percentile reserve-relative error.
	P90Err float64
	// WithinConstraint reports whether ≤30% error held ≥90% of the time,
	// the constraint the paper configures (§4.4.2).
	WithinConstraint bool
}

// Summarize computes tracking metrics against a reserve.
func Summarize(points []Point, reserve units.Power) Summary {
	errs := Errors(points, reserve)
	var absSum float64
	for _, p := range points {
		absSum += math.Abs((p.Measured - p.Target).Watts())
	}
	s := Summary{Points: len(points)}
	if len(points) > 0 {
		s.MeanAbsErr = units.Power(absSum / float64(len(points)))
	}
	s.P90Err = stats.Percentile(errs, 90)
	s.WithinConstraint = FractionWithin(errs, 0.30) >= 0.90
	return s
}

// WriteCSV emits the series as time_s,target_w,measured_w rows with a
// header, timestamps relative to the first point.
func WriteCSV(w io.Writer, points []Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "target_w", "measured_w"}); err != nil {
		return err
	}
	var t0 time.Time
	if len(points) > 0 {
		t0 = points[0].Time
	}
	for _, p := range points {
		rec := []string{
			fmt.Sprintf("%.3f", p.Time.Sub(t0).Seconds()),
			fmt.Sprintf("%.1f", p.Target.Watts()),
			fmt.Sprintf("%.1f", p.Measured.Watts()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
