package stats

import (
	"errors"
	"math"
)

// ErrSingular is returned when a least-squares system cannot be solved,
// typically because there are too few distinct sample points for the
// requested polynomial degree.
var ErrSingular = errors.New("stats: singular least-squares system")

// PolyFit fits a polynomial of the given degree to the points (xs, ys) by
// ordinary least squares, returning coefficients c where
//
//	y ≈ c[0] + c[1]·x + c[2]·x² + … + c[degree]·x^degree.
//
// It requires len(xs) == len(ys) and at least degree+1 points, and returns
// ErrSingular when the normal equations are not solvable (e.g. all xs
// identical). The implementation solves the normal equations with partial
// pivoting, which is accurate enough for the low-degree (quadratic) fits
// the power-performance modeler uses.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if degree < 0 {
		return nil, errors.New("stats: negative polynomial degree")
	}
	if len(xs) != len(ys) {
		return nil, errors.New("stats: mismatched sample lengths")
	}
	n := degree + 1
	if len(xs) < n {
		return nil, ErrSingular
	}

	// Build the normal equations A·c = b where A[i][j] = Σ x^(i+j) and
	// b[i] = Σ y·x^i.
	pow := make([]float64, 2*n-1)
	b := make([]float64, n)
	for k, x := range xs {
		xp := 1.0
		for i := 0; i < len(pow); i++ {
			pow[i] += xp
			if i < n {
				b[i] += ys[k] * xp
			}
			xp *= x
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = pow[i+j]
		}
	}
	return solveLinear(a, b)
}

// solveLinear solves A·x = b in place by Gaussian elimination with partial
// pivoting. A and b are consumed.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in col.
		pivot := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]

		inv := 1 / a[col][col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[row][k] -= f * a[col][k]
			}
			b[row] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for k := row + 1; k < n; k++ {
			sum -= a[row][k] * x[k]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// PolyEval evaluates the polynomial with coefficients c (constant term
// first) at x using Horner's rule.
func PolyEval(c []float64, x float64) float64 {
	y := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		y = y*x + c[i]
	}
	return y
}

// RSquared returns the coefficient of determination of predictions made by
// the polynomial c against the points (xs, ys). A perfect fit scores 1; a
// fit no better than the mean scores 0 (negative values are possible for
// fits worse than the mean). When ys has no variance, it returns 1 if the
// fit is exact and 0 otherwise.
func RSquared(c []float64, xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mean := Mean(ys)
	ssTot, ssRes := 0.0, 0.0
	for i, x := range xs {
		d := ys[i] - mean
		ssTot += d * d
		r := ys[i] - PolyEval(c, x)
		ssRes += r * r
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
