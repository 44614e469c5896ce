package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestErrorsReserveRelative(t *testing.T) {
	// §4.4.2's worked example: 10 kW miss on a 100 kW reserve = 10%.
	pts := []Point{{Target: 500000, Measured: 510000}}
	errs := Errors(pts, 100000)
	if len(errs) != 1 || math.Abs(errs[0]-0.10) > 1e-12 {
		t.Errorf("errs = %v, want [0.10]", errs)
	}
	if got := Errors(pts, 0); got != nil {
		t.Errorf("zero reserve: %v", got)
	}
}

func TestFractionWithin(t *testing.T) {
	errs := []float64{0.05, 0.10, 0.20, 0.50}
	if got := FractionWithin(errs, 0.30); got != 0.75 {
		t.Errorf("FractionWithin = %v, want 0.75", got)
	}
	if got := FractionWithin(nil, 0.30); got != 0 {
		t.Errorf("empty FractionWithin = %v", got)
	}
	if got := FractionWithin(errs, 0.50); got != 1 {
		t.Errorf("inclusive threshold: %v", got)
	}
}

func TestSummarizeConstraint(t *testing.T) {
	// 95% of points at 10% error, 5% at 50%: constraint holds.
	var pts []Point
	for i := 0; i < 95; i++ {
		pts = append(pts, Point{Target: 1000, Measured: 1010})
	}
	for i := 0; i < 5; i++ {
		pts = append(pts, Point{Target: 1000, Measured: 1050})
	}
	s := Summarize(pts, 100)
	if !s.WithinConstraint {
		t.Error("constraint should hold at 95% within 30%")
	}
	if s.Points != 100 {
		t.Errorf("Points = %d", s.Points)
	}
	if math.Abs(s.MeanAbsErr.Watts()-12) > 1e-9 {
		t.Errorf("MeanAbsErr = %v, want 12 W", s.MeanAbsErr)
	}

	// 80% within: constraint violated.
	var bad []Point
	for i := 0; i < 80; i++ {
		bad = append(bad, Point{Target: 1000, Measured: 1000})
	}
	for i := 0; i < 20; i++ {
		bad = append(bad, Point{Target: 1000, Measured: 1500})
	}
	if Summarize(bad, 100).WithinConstraint {
		t.Error("constraint should fail at 80% within 30%")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 100)
	if s.Points != 0 || s.MeanAbsErr != 0 || s.WithinConstraint {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestWriteCSV(t *testing.T) {
	pts := []Point{
		{Time: t0, Target: 2300, Measured: 2250.4},
		{Time: t0.Add(4 * time.Second), Target: 2400, Measured: 2380},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "time_s,target_w,measured_w" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0.000,2300.0,2250.4" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "4.000,2400.0,2380.0" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "time_s,target_w,measured_w" {
		t.Errorf("empty csv = %q", buf.String())
	}
}
