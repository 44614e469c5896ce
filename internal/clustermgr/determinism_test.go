package clustermgr

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/units"
)

const detSessions = 60

// detFleet attaches detSessions sessions to a journaling EvenPower
// manager in the given order. Each session reports a trained model whose
// PMin/PMax are fractional, so the budgeter's floating-point sums depend
// on the order it sees the jobs in.
func detFleet(t *testing.T, order []int) (*Manager, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	// FlushEvery keeps the appends buffered: the test counts them, it
	// does not need them on disk.
	s, rec, err := durable.Open(durable.Options{Dir: t.TempDir(), FlushEvery: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 0)
	cfg.Budgeter = budget.EvenPower{}
	cfg.TotalNodes = 200
	cfg.UseFeedback = true
	cfg.Store = s
	cfg.Recovered = rec.State
	cfg.Ledger = rec.Ledger
	cfg.Metrics = reg
	// Halfway up the fleet's power range, so γ is strictly inside (0, 1).
	var target float64
	busy := 0
	for i := 0; i < detSessions; i++ {
		pmin, pmax := detRange(i)
		target += float64(detNodes(i)) * (pmin + pmax) / 2
		busy += detNodes(i)
	}
	target += 70 * float64(cfg.TotalNodes-busy) // idle nodes at the default 70 W
	cfg.Target = func(time.Time) units.Power { return units.Power(target) }
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		id := fmt.Sprintf("job-%02d", i)
		j := attachFakeJob(t, m, id, "bt.D.81", detNodes(i))
		t.Cleanup(func() { j.conn.Close() })
		pmin, pmax := detRange(i)
		if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &proto.ModelUpdate{
			JobID: id, PowerWatts: 100.25 * float64(detNodes(i)), Trained: true,
			B: -0.002, C: 1.5, PMinWatts: pmin, PMaxWatts: pmax,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	updates := reg.Counter("anord_model_updates_total", "")
	waitFor(t, func() bool { return updates.Value() == detSessions })
	return m, reg
}

func detNodes(i int) int { return 1 + i%3 }

func detRange(i int) (pmin, pmax float64) {
	return 60.123 + 0.371*float64(i), 200.457 + 1.137*float64(i)
}

// detCaps reads every session's recorded cap.
func detCaps(t *testing.T, m *Manager) map[string]uint64 {
	t.Helper()
	caps := make(map[string]uint64, detSessions)
	for i := 0; i < detSessions; i++ {
		id := fmt.Sprintf("job-%02d", i)
		c, ok := m.JobCap(id)
		if !ok || c <= 0 {
			t.Fatalf("%s: cap %v, registered %v", id, c, ok)
		}
		caps[id] = math.Float64bits(c.Watts())
	}
	return caps
}

func diffCaps(t *testing.T, what string, want, got map[string]uint64) {
	t.Helper()
	n := 0
	for id, w := range want {
		if got[id] != w {
			n++
		}
	}
	if n > 0 {
		t.Errorf("%s: %d of %d caps differ bitwise", what, n, len(want))
	}
}

// TestTickIsDeterministic: with a constant target and unchanged models,
// every tick sends bit-identical caps and journals nothing after the
// first, and the attach order of the sessions does not change a cap.
func TestTickIsDeterministic(t *testing.T) {
	order := make([]int, detSessions)
	for i := range order {
		order[i] = i
	}
	m, reg := detFleet(t, order)
	appends := reg.Counter("durable_wal_appends_total", "")
	m.Tick()
	first := detCaps(t, m)
	after := appends.Value()
	for tick := 2; tick <= 10; tick++ {
		m.cfg.Clock.(*clock.Virtual).Advance(DefaultPeriod)
		m.Tick()
		diffCaps(t, fmt.Sprintf("tick %d vs tick 1", tick), first, detCaps(t, m))
	}
	if got := appends.Value(); got != after {
		t.Errorf("steady ticks appended %d WAL records, want 0", got-after)
	}

	for i := range order {
		order[i] = detSessions - 1 - i
	}
	rev, _ := detFleet(t, order)
	rev.Tick()
	diffCaps(t, "reversed attach order", first, detCaps(t, rev))
}
