// Package workload models the NAS Parallel Benchmark job types the paper
// evaluates (§5.1): bt, cg, ep, ft, is, lu, mg, and sp at problem class D.
//
// The reproduction has no physical Xeon cluster, so each job type carries a
// synthetic power-performance curve calibrated to Fig. 3: execution time
// relative to a 280 W per-node cap, over caps from 140 W (the platform
// minimum, 2 × 70 W packages) to 280 W (TDP, 2 × 140 W packages). The
// sensitivity ordering matches the paper's findings — BT most
// power-sensitive, then EP, LU, FT, CG, MG, SP, and IS least — and the
// endpoint magnitudes span ≈1.8× down to ≈1.05×.
//
// The package also provides Executor, a synthetic instrumented benchmark:
// an epoch loop whose per-iteration duration follows the type's curve at
// the currently enforced cap, standing in for the real NPB binaries with a
// geopm_prof_epoch() call per outer loop iteration.
package workload

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Platform power constants for the emulated dual-socket Xeon Gold 6152
// node (§5.5): 140 W TDP and 70 W minimum cap per package.
const (
	NodeTDP    units.Power = 280 // 2 × 140 W packages
	NodeMinCap units.Power = 140 // 2 × 70 W packages
	// NodeIdlePower is the draw of a node with no job scheduled, an input
	// to the tabular simulator (§5.6).
	NodeIdlePower units.Power = 70
)

// Type describes one precharacterized job type.
type Type struct {
	// Name is the benchmark-name.input-problem-class.process-count label
	// used throughout the paper, e.g. "bt.D.81".
	Name string
	// Nodes is the default node count per instance on the 16-node
	// evaluation cluster. Simulation experiments scale this (×25 for the
	// 1000-node study, §6.4).
	Nodes int
	// BaseSeconds is the execution time with no power cap.
	BaseSeconds float64
	// Epochs is how many times the instrumented main loop runs, i.e. how
	// many geopm_prof_epoch() calls a run reports.
	Epochs int
	// PMin and PMax bound the job's achievable per-node power demand.
	// PMin is the platform minimum cap; PMax is the power the job draws
	// uncapped, at most TDP.
	PMin, PMax units.Power
	// MaxSlowdown is the execution-time multiplier at PMin relative to
	// uncapped (the right edge of Fig. 3).
	MaxSlowdown float64
	// MidFrac positions the curve's midpoint between the fast extreme (0)
	// and linear (0.5); NPB curves are convex so MidFrac < 0.5.
	MidFrac float64
	// SetupSeconds models batch setup/teardown during which the node
	// draws near-idle power (§7.2 — significant for the short IS and EP
	// runs, which is why the final evaluation omits them).
	SetupSeconds float64
}

// Model returns the type's absolute seconds-per-epoch curve.
func (t Type) Model() perfmodel.Model {
	perEpoch := t.BaseSeconds / float64(t.Epochs)
	return perfmodel.FromAnchors(t.PMin, t.PMax, t.MaxSlowdown*perEpoch, perEpoch, t.MidFrac)
}

// RelativeModel returns the type's normalized curve: time relative to
// uncapped execution (1.0 at PMax), the form Fig. 3 plots.
func (t Type) RelativeModel() perfmodel.Model {
	return perfmodel.FromAnchors(t.PMin, t.PMax, t.MaxSlowdown, 1.0, t.MidFrac)
}

// Sensitivity returns the job's power sensitivity: the fractional slowdown
// when capped at the platform minimum (0 = insensitive).
func (t Type) Sensitivity() float64 { return t.MaxSlowdown - 1 }

// ShortRunning reports whether the type finishes in under half a minute
// uncapped; §7.2 excludes such jobs (IS, EP) from the final schedules
// because setup/teardown slack hides capping slowdown.
func (t Type) ShortRunning() bool { return t.BaseSeconds < 30 }

// String returns the type name.
func (t Type) String() string { return t.Name }

// catalog is ordered by descending power sensitivity.
var catalog = []Type{
	{Name: "bt.D.81", Nodes: 2, BaseSeconds: 360, Epochs: 250, PMin: NodeMinCap, PMax: 280, MaxSlowdown: 1.80, MidFrac: 0.34, SetupSeconds: 8},
	{Name: "ep.D.43", Nodes: 1, BaseSeconds: 25, Epochs: 25, PMin: NodeMinCap, PMax: 278, MaxSlowdown: 1.70, MidFrac: 0.36, SetupSeconds: 7},
	{Name: "lu.D.42", Nodes: 1, BaseSeconds: 300, Epochs: 300, PMin: NodeMinCap, PMax: 272, MaxSlowdown: 1.58, MidFrac: 0.36, SetupSeconds: 8},
	{Name: "ft.D.64", Nodes: 2, BaseSeconds: 180, Epochs: 90, PMin: NodeMinCap, PMax: 268, MaxSlowdown: 1.47, MidFrac: 0.38, SetupSeconds: 8},
	{Name: "cg.D.32", Nodes: 1, BaseSeconds: 240, Epochs: 160, PMin: NodeMinCap, PMax: 258, MaxSlowdown: 1.36, MidFrac: 0.40, SetupSeconds: 8},
	{Name: "mg.D.32", Nodes: 1, BaseSeconds: 120, Epochs: 100, PMin: NodeMinCap, PMax: 252, MaxSlowdown: 1.27, MidFrac: 0.42, SetupSeconds: 8},
	{Name: "sp.D.81", Nodes: 2, BaseSeconds: 280, Epochs: 230, PMin: NodeMinCap, PMax: 246, MaxSlowdown: 1.16, MidFrac: 0.44, SetupSeconds: 8},
	{Name: "is.D.32", Nodes: 1, BaseSeconds: 20, Epochs: 20, PMin: NodeMinCap, PMax: 236, MaxSlowdown: 1.06, MidFrac: 0.46, SetupSeconds: 7},
}

// Catalog returns all precharacterized job types in descending power
// sensitivity order. The returned slice is a copy; callers may modify it.
func Catalog() []Type {
	out := make([]Type, len(catalog))
	copy(out, catalog)
	return out
}

// LongRunning returns the catalog minus short-running types (IS, EP), the
// job mix used in the final hour-long evaluations (§6.3, §7.2).
func LongRunning() []Type {
	var out []Type
	for _, t := range catalog {
		if !t.ShortRunning() {
			out = append(out, t)
		}
	}
	return out
}

// ByName returns the catalog entry with the given name. Lookups accept
// either the full name ("bt.D.81") or the benchmark prefix ("bt").
func ByName(name string) (Type, error) {
	for _, t := range catalog {
		if t.Name == name || benchPrefix(t.Name) == name {
			return t, nil
		}
	}
	return Type{}, fmt.Errorf("workload: unknown job type %q", name)
}

// MustByName is ByName but panics on unknown names; for static experiment
// tables.
func MustByName(name string) Type {
	t, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return t
}

func benchPrefix(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// MostSensitive returns the catalog type with the highest power
// sensitivity (EP-like default for the overprediction policy of §6.1.2).
func MostSensitive() Type {
	out := catalog[0]
	for _, t := range catalog[1:] {
		if t.Sensitivity() > out.Sensitivity() {
			out = t
		}
	}
	return out
}

// LeastSensitive returns the catalog type with the lowest power
// sensitivity (IS-like default for the underprediction policy of §6.1.2).
func LeastSensitive() Type {
	out := catalog[0]
	for _, t := range catalog[1:] {
		if t.Sensitivity() < out.Sensitivity() {
			out = t
		}
	}
	return out
}

// Scale returns a copy of t with node count multiplied by f (e.g. 25 for
// the 1000-node simulations, §6.4). Node counts below 1 are clamped to 1.
func (t Type) Scale(f int) Type {
	t.Nodes *= f
	if t.Nodes < 1 {
		t.Nodes = 1
	}
	return t
}
