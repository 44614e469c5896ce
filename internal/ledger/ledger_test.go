package ledger

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

func TestBasicAttribution(t *testing.T) {
	l := New()
	l.SetIdle(0, 4, 70) // 4 idle nodes × 70 W
	h := l.Open(JobMeta{ID: "j1", Type: "hacc", Nodes: 2, SubmitMs: 0, MinTimeS: 10}, 0)
	l.SetPower(h, 0, 500, false) // 2 nodes × 250 W
	l.SetIdle(0, 2, 70)          // job took 2 of the 4 nodes
	l.Close(h, 10_000, Completed)
	l.SetIdle(10_000, 4, 70)
	l.FinishAt(20_000)

	s := l.SnapshotAt(20_000)
	if !s.Conserved {
		t.Fatalf("not conserved: delta=%d µJ errors=%d", s.ConservationDeltaMicroJ, s.Errors)
	}
	// Job: 500 W × 10 s = 5000 J. Idle: 2×70 W × 10 s + 4×70 W × 10 s = 4200 J.
	if len(s.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(s.Jobs))
	}
	j := s.Jobs[0]
	if j.Joules != 5000 {
		t.Errorf("job joules = %v, want 5000", j.Joules)
	}
	if j.AvgWatts != 500 || j.PeakWatts != 500 {
		t.Errorf("avg/peak = %v/%v, want 500/500", j.AvgWatts, j.PeakWatts)
	}
	if j.ResidencyS != 10 || j.ThrottledS != 0 {
		t.Errorf("residency/throttled = %v/%v, want 10/0", j.ResidencyS, j.ThrottledS)
	}
	if !j.Completed || j.Stints != 1 {
		t.Errorf("completed=%v stints=%d, want true/1", j.Completed, j.Stints)
	}
	if j.Slowdown != 1 {
		t.Errorf("slowdown = %v, want 1 (sojourn 10 s / min 10 s)", j.Slowdown)
	}
	if j.EnergyDelay != 5000*10 {
		t.Errorf("energy-delay = %v, want 50000", j.EnergyDelay)
	}
	if s.IdleJoules != 4200 {
		t.Errorf("idle joules = %v, want 4200", s.IdleJoules)
	}
	if s.TotalJoules != 9200 {
		t.Errorf("total joules = %v, want 9200", s.TotalJoules)
	}
}

func TestThrottledSecondsAndPeak(t *testing.T) {
	l := New()
	h := l.Open(JobMeta{ID: "j", Nodes: 1}, 0)
	l.SetPower(h, 0, 280, false)    // uncapped
	l.SetPower(h, 5_000, 140, true) // capped for 5 s
	l.SetPower(h, 10_000, 280, false)
	l.Close(h, 12_000, Completed)
	s := l.SnapshotAt(12_000)
	j := s.Jobs[0]
	if j.ThrottledS != 5 {
		t.Errorf("throttled = %v s, want 5", j.ThrottledS)
	}
	if j.PeakWatts != 280 {
		t.Errorf("peak = %v, want 280", j.PeakWatts)
	}
	if want := 280.0*5 + 140*5 + 280*2; j.Joules != want {
		t.Errorf("joules = %v, want %v", j.Joules, want)
	}
	if !s.Conserved {
		t.Fatalf("not conserved: delta=%d", s.ConservationDeltaMicroJ)
	}
}

// TestRequeueAccumulatesOneRecord is the no-lost-no-double-counted
// invariant across a kill/requeue cycle: both stints land in one record
// and the double-entry identity holds throughout.
func TestRequeueAccumulatesOneRecord(t *testing.T) {
	l := New()
	h := l.Open(JobMeta{ID: "j", Nodes: 2}, 0)
	l.SetPower(h, 0, 400, false)
	l.Close(h, 3_000, Requeued) // fail-stop after 3 s
	// Queued 4 s (no accrual), then resumes on different nodes.
	h2 := l.Open(JobMeta{ID: "j", Nodes: 2}, 7_000)
	l.SetPower(h2, 7_000, 300, true)
	l.Close(h2, 17_000, Completed)
	s := l.SnapshotAt(17_000)
	if len(s.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 (requeue must reuse the record)", len(s.Jobs))
	}
	j := s.Jobs[0]
	if want := 400.0*3 + 300*10; j.Joules != want {
		t.Errorf("joules = %v, want %v", j.Joules, want)
	}
	if j.Stints != 2 || j.Requeues != 1 {
		t.Errorf("stints/requeues = %d/%d, want 2/1", j.Stints, j.Requeues)
	}
	if j.ResidencyS != 13 {
		t.Errorf("residency = %v, want 13 (queued gap excluded)", j.ResidencyS)
	}
	if j.ThrottledS != 10 {
		t.Errorf("throttled = %v, want 10", j.ThrottledS)
	}
	if !s.Conserved || s.Requeues != 1 {
		t.Fatalf("conserved=%v requeues=%d", s.Conserved, s.Requeues)
	}
}

func TestContractViolationsAreCountedNotIntegrated(t *testing.T) {
	l := New()
	h := l.Open(JobMeta{ID: "j", Nodes: 1}, 0)
	l.SetPower(h, 1_000, 100, false)
	l.SetPower(h, 500, 999, false) // late sample: dropped
	l.Open(JobMeta{ID: "j", Nodes: 1}, 2_000)
	l.Close(h, 3_000, Completed)
	l.Close(h, 4_000, Completed) // double close
	s := l.SnapshotAt(5_000)
	if s.LateSamples != 1 {
		t.Errorf("late samples = %d, want 1", s.LateSamples)
	}
	if s.Errors != 2 {
		t.Errorf("accounting errors = %d, want 2 (double open + double close)", s.Errors)
	}
	if s.Conserved {
		t.Error("snapshot with accounting errors must not report conserved")
	}
	if want := 100.0 * 2; s.Jobs[0].Joules != want {
		t.Errorf("joules = %v, want %v (violations must not integrate)", s.Jobs[0].Joules, want)
	}
}

func TestSnapshotDoesNotSettle(t *testing.T) {
	l := New()
	h := l.Open(JobMeta{ID: "j", Nodes: 1}, 0)
	l.SetPower(h, 0, 100, false)
	a := l.SnapshotAt(5_000)
	b := l.SnapshotAt(5_000)
	if a.TotalJoules != 500 || b.TotalJoules != 500 {
		t.Errorf("snapshots = %v/%v J, want 500 (pending accrual, read twice)", a.TotalJoules, b.TotalJoules)
	}
	if got := l.TotalJoulesAt(10_000); got != 1000 {
		t.Errorf("TotalJoulesAt(10s) = %v, want 1000", got)
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	if l.Enabled() {
		t.Fatal("nil ledger reports enabled")
	}
	h := l.Open(JobMeta{ID: "j"}, 0)
	if h.Valid() {
		t.Fatal("nil ledger returned a valid handle")
	}
	l.SetPower(h, 0, 100, false)
	l.SetIdle(0, 1, 70)
	l.Close(h, 1, Completed)
	l.FinishAt(2)
	if got := l.TotalJoulesAt(3); got != 0 {
		t.Fatalf("nil total = %v", got)
	}
	s := l.SnapshotAt(3)
	if !s.Conserved || len(s.Jobs) != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
	// Zero handle against a real ledger is likewise inert.
	rl := New()
	rl.SetPower(Handle{}, 0, 100, false)
	rl.Close(Handle{}, 1, Completed)
	if s := rl.SnapshotAt(1); s.TotalMicroJ != 0 || s.Errors != 0 {
		t.Fatalf("zero handle perturbed the ledger: %+v", s)
	}
}

func TestTopOrdersByEnergy(t *testing.T) {
	l := New()
	for i, w := range []float64{100, 300, 200} {
		id := string(rune('a' + i))
		h := l.Open(JobMeta{ID: id, Nodes: 1}, 0)
		l.SetPower(h, 0, w, false)
		l.Close(h, 10_000, Completed)
	}
	s := l.SnapshotAt(10_000)
	top := s.Top(2)
	if len(top) != 2 || top[0].ID != "b" || top[1].ID != "c" {
		t.Fatalf("top(2) = %+v, want b then c", top)
	}
	if s.Jobs[0].ID != "a" {
		t.Fatalf("snapshot jobs reordered by Top: %+v", s.Jobs)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	l := New()
	h := l.Open(JobMeta{ID: "j", Nodes: 1}, 0)
	l.SetPower(h, 0, 100, false)
	srv := l.Handler(func() int64 { return 10_000 })
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/accounting", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if s.TotalJoules != 1000 || !s.Conserved {
		t.Fatalf("served snapshot: %+v", s)
	}
}

func TestFixMWRounds(t *testing.T) {
	for _, tc := range []struct {
		w    float64
		want int64
	}{{0, 0}, {70, 70_000}, {0.0004, 0}, {0.0006, 1}, {279.9996, 280_000}} {
		if got := MilliWatts(tc.w); got != tc.want {
			t.Errorf("MilliWatts(%v) = %d, want %d", tc.w, got, tc.want)
		}
	}
}
