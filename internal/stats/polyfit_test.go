package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPolyFitExactQuadratic(t *testing.T) {
	// y = 2 - 3x + 0.5x²
	want := []float64{2, -3, 0.5}
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = PolyEval(want, x)
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-8 {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	if r2 := RSquared(c, xs, ys); math.Abs(r2-1) > 1e-10 {
		t.Errorf("R² = %v, want 1", r2)
	}
}

func TestPolyFitConstant(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{7, 7, 7}
	c, err := PolyFit(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-7) > 1e-12 {
		t.Errorf("constant fit = %v, want 7", c[0])
	}
}

func TestPolyFitLinearNoisy(t *testing.T) {
	r := NewRNG(20)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i) / 10
		ys[i] = 3 + 2*xs[i] + r.Normal(0, 0.1)
	}
	c, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-3) > 0.1 || math.Abs(c[1]-2) > 0.02 {
		t.Errorf("noisy linear fit = %v, want ≈[3 2]", c)
	}
	if r2 := RSquared(c, xs, ys); r2 < 0.99 {
		t.Errorf("R² = %v, want > 0.99", r2)
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("mismatched lengths did not error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 1); !errors.Is(err, ErrSingular) {
		t.Errorf("too few points: err = %v, want ErrSingular", err)
	}
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); !errors.Is(err, ErrSingular) {
		t.Errorf("degenerate xs: err = %v, want ErrSingular", err)
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative degree did not error")
	}
}

func TestPolyEvalHorner(t *testing.T) {
	// 1 + 2x + 3x² at x=2 is 17.
	if got := PolyEval([]float64{1, 2, 3}, 2); got != 17 {
		t.Errorf("PolyEval = %v, want 17", got)
	}
	if got := PolyEval(nil, 5); got != 0 {
		t.Errorf("PolyEval(nil) = %v, want 0", got)
	}
}

func TestRSquaredMeanModel(t *testing.T) {
	// A constant model equal to the mean has R² = 0.
	ys := []float64{1, 2, 3, 4}
	xs := []float64{0, 1, 2, 3}
	if r2 := RSquared([]float64{2.5}, xs, ys); math.Abs(r2) > 1e-12 {
		t.Errorf("R² of mean model = %v, want 0", r2)
	}
	// Zero-variance target: exact fit scores 1, otherwise 0.
	if r2 := RSquared([]float64{5}, []float64{1, 2}, []float64{5, 5}); r2 != 1 {
		t.Errorf("R² exact on constant = %v, want 1", r2)
	}
	if r2 := RSquared([]float64{4}, []float64{1, 2}, []float64{5, 5}); r2 != 0 {
		t.Errorf("R² inexact on constant = %v, want 0", r2)
	}
}

func TestPolyFitQuadraticRecoveryProperty(t *testing.T) {
	// Any quadratic sampled at ≥3 distinct points is recovered (modulo
	// conditioning of the normal equations at moderate coefficient sizes).
	f := func(a, b, c int8) bool {
		want := []float64{float64(a), float64(b) / 4, float64(c) / 16}
		xs := []float64{-2, -1, 0, 1, 2, 3}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = PolyEval(want, x)
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
