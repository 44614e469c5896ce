package clustermgr

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ledger"
	"repro/internal/proto"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestLedgerAccountsJobsAndIdle drives the manager on a virtual clock and
// checks the live-tier energy attribution: idle nodes accrue IdlePower,
// a registered job accrues its last-reported power, the tight cap marks
// it throttled, and the double-entry audit stays exact throughout.
func TestLedgerAccountsJobsAndIdle(t *testing.T) {
	v := clock.NewVirtual(t0)
	// 14 idle nodes + a 300 W job budget: the 2-node job reporting 400 W
	// sits above its whole-job cap, i.e. throttled.
	cfg := testConfig(v, units.Power(14*70+300))
	led := ledger.New()
	cfg.Ledger = led
	var track trackLog
	cfg.Track = track.record
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two seconds of empty cluster: idle energy only.
	m.Tick()
	v.Advance(2 * time.Second)
	m.Tick()
	snap := led.SnapshotAt(v.Now().UnixMilli())
	if !snap.Conserved {
		t.Fatalf("audit broken on empty cluster: delta=%d µJ", snap.ConservationDeltaMicroJ)
	}
	if want := 16.0 * 70 * 2; snap.IdleJoules != want || len(snap.Jobs) != 0 {
		t.Fatalf("idle-only snapshot: idle=%v J (want %v), jobs=%d", snap.IdleJoules, want, len(snap.Jobs))
	}

	// One 2-node job reporting 400 W from t=2 s.
	j := attachFakeJob(t, m, "p", "bt.D.81", 2)
	update := proto.ModelUpdateFor("p", workload.MustByName("bt").RelativeModel(), false)
	update.PowerWatts = 400
	if err := j.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &update}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		m.Tick()
		pts := track.points()
		return pts[len(pts)-1].Measured == 14*70+400
	})
	m.Tick() // one more tick at t=2: the cap from the previous tick marks the job throttled

	v.Advance(3 * time.Second)
	m.Tick()
	snap = led.SnapshotAt(v.Now().UnixMilli())
	if !snap.Conserved {
		t.Fatalf("audit broken with a job: delta=%d µJ, errors=%d", snap.ConservationDeltaMicroJ, snap.Errors)
	}
	if len(snap.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(snap.Jobs))
	}
	je := snap.Jobs[0]
	if je.ID != "p" || je.Joules != 400*3 || !je.Resident {
		t.Fatalf("job account = %+v, want resident 1200 J", je)
	}
	if je.ThrottledS != 3 {
		t.Errorf("throttled %v s, want 3 (capped below reported power)", je.ThrottledS)
	}
	if want := 16.0*70*2 + 14*70*3; snap.IdleJoules != want {
		t.Errorf("idle = %v J, want %v", snap.IdleJoules, want)
	}

	// Endpoint drop: the record detaches but keeps its energy.
	j.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
	snap = led.SnapshotAt(v.Now().UnixMilli())
	if je := snap.Jobs[0]; je.Resident || je.Joules != 1200 || je.ResidencyS != 3 {
		t.Fatalf("detached account = %+v, want non-resident, 1200 J over 3 s", je)
	}
	if !snap.Conserved || snap.Closes != 1 {
		t.Fatalf("post-detach audit: conserved=%v closes=%d", snap.Conserved, snap.Closes)
	}
}

// TestLedgerSupersedeKeepsOneRecord covers the reconnect-supersede path:
// a fresh Hello over a live session must inherit the open account — one
// record, one stint, no double-open errors — and the eventual disconnect
// closes it exactly once.
func TestLedgerSupersedeKeepsOneRecord(t *testing.T) {
	v := clock.NewVirtual(t0)
	cfg := testConfig(v, 3000)
	led := ledger.New()
	cfg.Ledger = led
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1 := attachFakeJob(t, m, "dup", "bt.D.81", 2)
	m.Tick()

	// Second Hello for the same job: supersedes the live session, whose
	// transport the manager closes (observed as j1's recv loop exiting).
	j2 := attachFakeJob(t, m, "dup", "bt.D.81", 2)
	<-j1.done

	v.Advance(2 * time.Second)
	m.Tick()
	snap := led.SnapshotAt(v.Now().UnixMilli())
	if len(snap.Jobs) != 1 || snap.Opens != 1 || snap.Errors != 0 {
		t.Fatalf("after supersede: jobs=%d opens=%d errors=%d, want one clean account",
			len(snap.Jobs), snap.Opens, snap.Errors)
	}
	if je := snap.Jobs[0]; je.Stints != 1 || !je.Resident {
		t.Fatalf("account = %+v, want one resident stint", je)
	}

	j2.conn.Close()
	waitFor(t, func() bool { return m.ActiveJobs() == 0 })
	snap = led.SnapshotAt(v.Now().UnixMilli())
	if snap.Closes != 1 || snap.Errors != 0 || !snap.Conserved {
		t.Fatalf("after disconnect: closes=%d errors=%d conserved=%v, want exactly one close",
			snap.Closes, snap.Errors, snap.Conserved)
	}
	if je := snap.Jobs[0]; je.Resident {
		t.Fatal("account still resident after its only session closed")
	}
}
