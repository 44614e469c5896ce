package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/dr"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// calTestEngine is the least engine calReschedule runs on: one job slot
// of type typ whose slowest node has coefficient coeff, and a calendar
// that schedules completions up to maxStep.
func calTestEngine(typ workload.Type, coeff float64, maxStep int64) *engine {
	return &engine{
		jobs:       []runningJob{{id: "j", typ: typ}},
		order:      []int32{0},
		cal:        []calJob{{coeff: coeff, due: calNever}},
		calMaxStep: maxStep,
	}
}

// naiveDue is the per-step kernel's answer to "when does this node
// finish": from progress p after step t, add delta once per step and
// return the first step at which progress reaches a whole job, or
// calNever if that is past maxStep.
func naiveDue(p, delta uint64, t, maxStep int64) int64 {
	for s := t + 1; s <= maxStep && delta > 0; s++ {
		if p += delta; p >= progressOne {
			return s
		}
	}
	return calNever
}

// TestCalendarDueMatchesNaive is the property suite for the calendar's
// closed forms. Over random rate-change sequences (random types,
// coefficients, caps, and recap intervals), after every rescale the
// calendar's progress line must pass through the per-step loop's
// progress and the scheduled due step must equal the step at which the
// loop finishes — including completions landing exactly on, and one
// past, the calendar horizon. Crafted cases cover a zero rate, due steps
// far beyond what a loop can replay, and the overflow edge: a rescale
// past a crossing must panic, never wrap.
func TestCalendarDueMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		typ := workload.Type{
			Name: "t", PMin: 140, PMax: 280,
			BaseSeconds: 1 + rng.Float64()*800,
			MaxSlowdown: 1 + 2*rng.Float64(),
		}
		if trial%2 == 0 {
			typ.BaseSeconds = math.Floor(typ.BaseSeconds) // whole-second durations
		}
		coeff := 0.1 + 1.9*rng.Float64()
		maxStep := int64(1 + rng.Intn(4000))
		e := calTestEngine(typ, coeff, maxStep)
		var p uint64 // the naive loop's progress after step now
		for now := int64(0); now <= maxStep; {
			e.jobs[0].cap = units.Power(rng.Uniform(120, 300))
			e.calReschedule(0, now)
			delta := progressDelta(coeff, progressRate(&typ, e.jobs[0].cap))
			c := e.cal[0]
			if at := c.p + uint64(now-c.base)*c.delta; at != p || c.delta != delta {
				t.Fatalf("trial %d step %d: calendar at (p=%d, delta=%d), naive (p=%d, delta=%d)",
					trial, now, at, c.delta, p, delta)
			}
			want := naiveDue(p, delta, now, maxStep)
			if c.due != want {
				t.Fatalf("trial %d step %d: due = %d, naive loop finishes at %d (maxStep %d)",
					trial, now, c.due, want, maxStep)
			}
			next := now + 1 + int64(rng.Intn(400))
			if want <= next {
				break // the job completes before its next recap
			}
			for s := now; s < next; s++ {
				p += delta
			}
			now = next
		}
	}

	// Completion exactly at the horizon is scheduled; one step past it
	// is not. 10 s uncapped at coefficient 1 finishes at step 10.
	ten := workload.Type{Name: "ten", BaseSeconds: 10, MaxSlowdown: 2, PMin: 140, PMax: 280}
	for _, tc := range []struct{ maxStep, want int64 }{{10, 10}, {9, calNever}, {0, calNever}} {
		e := calTestEngine(ten, 1, tc.maxStep)
		e.jobs[0].cap = ten.PMax
		e.calReschedule(0, 0)
		if e.cal[0].due != tc.want {
			t.Errorf("maxStep %d: due = %d, want %d", tc.maxStep, e.cal[0].due, tc.want)
		}
	}

	// A zero rate never finishes.
	frozen := ten
	frozen.BaseSeconds = math.Inf(1)
	e := calTestEngine(frozen, 1, 1000)
	e.jobs[0].cap = frozen.PMax
	e.calReschedule(0, 0)
	if e.cal[0].due != calNever {
		t.Errorf("zero-rate job scheduled at step %d", e.cal[0].due)
	}

	// Rates of a few units per step: due steps (~2⁵⁰) far beyond any
	// loop, so hold them to the arithmetic — first uncapped, then after a
	// recap to the minimum cap 2⁴⁰ steps in.
	slow := ten
	slow.BaseSeconds = 1e15
	const huge = int64(math.MaxInt64 / 2)
	e = calTestEngine(slow, 1, huge)
	e.jobs[0].cap = slow.PMax
	e.calReschedule(0, 0)
	fastDelta := progressDelta(1, progressRate(&slow, slow.PMax))
	if want := int64((progressOne + fastDelta - 1) / fastDelta); fastDelta < 2 || e.cal[0].due != want {
		t.Fatalf("slow job: delta %d, due %d, want %d", fastDelta, e.cal[0].due, want)
	}
	e.jobs[0].cap = slow.PMin
	e.calReschedule(0, 1<<40)
	slowDelta := progressDelta(1, progressRate(&slow, slow.PMin))
	p := fastDelta << 40
	want := 1<<40 + int64((progressOne-p+slowDelta-1)/slowDelta)
	if slowDelta >= fastDelta || e.cal[0].p != p || e.cal[0].due != want {
		t.Errorf("recap: delta %d p %d due %d, want delta < %d, p %d, due %d",
			slowDelta, e.cal[0].p, e.cal[0].due, fastDelta, p, want)
	}

	// Overflow edge: a half-job delta rescaled to a new rate ~2⁶² steps
	// later would wrap steps·delta; the calendar must refuse instead.
	fast := ten
	fast.BaseSeconds = 2
	e = calTestEngine(fast, 1, huge)
	e.jobs[0].cap = fast.PMax
	e.calReschedule(0, 0)
	if e.cal[0].delta != progressOne/2 || e.cal[0].due != 2 {
		t.Fatalf("fast job: delta %d due %d, want %d and 2", e.cal[0].delta, e.cal[0].due, progressOne/2)
	}
	e.jobs[0].cap = fast.PMin // a new rate, so the rescale materializes
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rescale after the completion step did not panic")
			}
		}()
		e.calReschedule(0, huge)
	}()
}

// TestIntegralBaseSecondsFinishExactly pins what rounding the per-step
// increment up buys: an uncapped job on a coefficient-1 node whose
// BaseSeconds is a whole number B runs exactly B seconds — for every B
// in 1…10⁵ in closed form, and end to end through both the engine and
// the per-second reference oracle. (A float progress chain finishes one
// step late for about half of these: ten additions of fl(0.1) stop short
// of 1.)
func TestIntegralBaseSecondsFinishExactly(t *testing.T) {
	for b := 1; b <= 100000; b++ {
		typ := workload.Type{BaseSeconds: float64(b), MaxSlowdown: 2, PMin: 140, PMax: 280}
		if got := stepsToFinish(0, progressDelta(1, progressRate(&typ, typ.PMax))); got != int64(b) {
			t.Fatalf("BaseSeconds %d finishes after %d steps", b, got)
		}
	}
	engines := []struct {
		name string
		run  func(Config) (Result, error)
	}{{"engine", Run}, {"reference", runReference}}
	for _, b := range []int{1, 3, 10, 49, 1000, 3599} {
		typ := workload.Type{Name: "whole", Nodes: 2, BaseSeconds: float64(b), Epochs: 1,
			MaxSlowdown: 2, PMin: 140, PMax: 280, MidFrac: 0.4}
		for _, eng := range engines {
			res, err := eng.run(Config{
				Nodes: 2, Types: []workload.Type{typ},
				Arrivals: []schedule.Arrival{{At: 0, JobID: "solo", TypeName: typ.Name, ClaimedType: typ.Name}},
				Bid:      dr.Bid{AvgPower: 2 * 300, Reserve: 1},
				Signal:   dr.Constant(0),
				Horizon:  time.Duration(b+10) * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != 1 {
				t.Fatalf("B=%d %s: %d jobs completed", b, eng.name, len(res.Jobs))
			}
			if exec := res.Jobs[0].End - res.Jobs[0].Start; exec != time.Duration(b)*time.Second {
				t.Errorf("B=%d %s: ran %v", b, eng.name, exec)
			}
		}
	}
}

// TestCalendarAllocsPerStep pins the calendar's steady-state allocation
// budget: with a stepped walk recapping jobs every few seconds — the
// worst case for calendar churn, every recap rescheduling every job —
// the marginal cost
// of an extra step must still be approximately zero allocations. The
// name matches the CI perf-gate filter (AllocsPerStep).
func TestCalendarAllocsPerStep(t *testing.T) {
	allocsAt := func(h time.Duration) float64 {
		cfg := steadyConfig(h, true)
		cfg.Signal = dr.NewRandomWalk(21, 4*time.Second, 0.25, 2*time.Hour)
		if _, err := Run(cfg); err != nil { // fail fast outside the measured loop
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	shortH, longH := 30*time.Second, 120*time.Second
	short, long := allocsAt(shortH), allocsAt(longH)
	extraSteps := float64((4*120 + 1) - (4*30 + 1))
	marginal := (long - short) / extraSteps
	t.Logf("allocs: %v (short) → %v (long), %.4f per calendar step", short, long, marginal)
	if marginal > 0.5 {
		t.Errorf("calendar steady-state allocations = %.3f per step, want ~0 (≤0.5)", marginal)
	}
}
