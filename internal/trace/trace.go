// Package trace writes power-tracking time series and computes the
// paper's tracking-error metrics (§4.4.2, §6.3): error is the distance
// between measured and target power divided by the demand-response
// reserve, and the constraint is that error stays under a threshold for a
// given fraction of time (e.g. under 30% error at least 90% of the time).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
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

// CSVWriter streams a tracking series as CSV: a time_s,target_w,measured_w
// header, then one row per point with its timestamp relative to the
// first point written. Each row reaches the underlying writer in one
// Write call, so a file holds every row written so far.
type CSVWriter struct {
	w  io.Writer
	t0 time.Time
}

// NewCSVWriter writes the header to w and returns a writer for the rows.
func NewCSVWriter(w io.Writer) (*CSVWriter, error) {
	_, err := io.WriteString(w, "time_s,target_w,measured_w\n")
	return &CSVWriter{w: w}, err
}

// Write emits one row.
func (c *CSVWriter) Write(p Point) error {
	if c.t0.IsZero() { // a zero first time leaves t0 zero, which is still that time
		c.t0 = p.Time
	}
	_, err := fmt.Fprintf(c.w, "%.3f,%.1f,%.1f\n", p.Time.Sub(c.t0).Seconds(), p.Target.Watts(), p.Measured.Watts())
	return err
}

// WriteCSV emits a whole series through a CSVWriter.
func WriteCSV(w io.Writer, points []Point) error {
	bw := bufio.NewWriter(w)
	c, _ := NewCSVWriter(bw)
	for _, p := range points {
		_ = c.Write(p)
	}
	return bw.Flush() // bufio.Writer keeps the first write error
}
