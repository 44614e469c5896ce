// Package experiments implements the paper's evaluation (§5, §6): one
// entry point per figure or table, each returning structured results that
// the anor-bench command prints and the repository's benchmarks
// regenerate. The experiments reuse the production packages — budgeter,
// modeler, GEOPM substrate, cluster manager, tabular simulator — so the
// numbers come from the same code paths a deployment would run.
package experiments

// Series is one named line of (x, y) points with optional per-point
// spread (standard deviation or confidence half-width), the shape most
// figures reduce to.
type Series struct {
	Name   string
	X      []float64
	Y      []float64
	Spread []float64
}
