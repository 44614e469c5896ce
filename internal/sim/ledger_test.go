package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/telemetry"
)

// ledgerEndMs returns the settlement horizon of a finished run: one
// second past the last tracking row, matching Run's FinishAt.
func ledgerEndMs(res Result) int64 {
	return res.Tracking[len(res.Tracking)-1].Time.Add(time.Second).UnixMilli()
}

// trackingMicroJ integrates the run's measured power in the ledger's
// units: each emitted row is one second (1000 ms) at its measured
// milliwatts.
func trackingMicroJ(res Result) int64 {
	var uj int64
	for _, p := range res.Tracking {
		uj += ledger.MilliWatts(p.Measured.Watts()) * 1000
	}
	return uj
}

// TestLedgerConservationBitExact is the acceptance-criteria audit: a
// faulted, perf-varied run (requeues exercise the close/reopen path)
// must produce a ledger whose double-entry identity holds exactly —
// Σ(per-job µJ) + idle µJ == total µJ — and whose entire snapshot is
// bit-identical across repeated runs. The total must also equal the
// integral of the measured power series to the microjoule: measurement
// sums the very milliwatt rates the ledger integrates.
func TestLedgerConservationBitExact(t *testing.T) {
	var base ledger.Snapshot
	for run := 0; run < 2; run++ {
		cfg := smallConfig(t, 7, 0.1)
		cfg.Failures = failureSchedule()
		led := ledger.New()
		cfg.Ledger = led
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requeues == 0 {
			t.Fatal("failure schedule killed no running jobs; widen it")
		}
		snap := led.SnapshotAt(ledgerEndMs(res))
		if !snap.Conserved {
			t.Fatalf("conservation broken: delta=%d µJ, errors=%d", snap.ConservationDeltaMicroJ, snap.Errors)
		}
		if snap.Requeues != int64(res.Requeues) {
			t.Errorf("ledger saw %d requeues, sim %d", snap.Requeues, res.Requeues)
		}
		if integral := trackingMicroJ(res); snap.TotalMicroJ != integral {
			t.Errorf("ledger total %d µJ != measured power integral %d µJ", snap.TotalMicroJ, integral)
		}
		if run == 0 {
			base = snap
		} else if !reflect.DeepEqual(base, snap) {
			t.Error("ledger snapshot is not bit-identical across repeated runs")
		}
	}
}

// TestLedgerEventDrivenMatchesFullStepping holds the engine's ledger
// settlement — rates set only when they change, idle gaps and failures
// inside them fast-forwarded — to the reference engine, which sets every
// rate every second.
func TestLedgerEventDrivenMatchesFullStepping(t *testing.T) {
	cfg := sparseConfig(3)
	cfg.Failures = failureOverlays[2].events
	want := reference(t, cfg)
	got, err := simulate(cfg, Run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.snap, want.snap) {
		t.Fatal("event-driven attribution diverges from full stepping")
	}
}

// TestLedgerAttachmentChangesNoResult is the DeepEqual determinism
// guard: the ledger is strictly observational, so attaching one (with
// and without a failure schedule) must leave every simulator output
// byte-identical.
func TestLedgerAttachmentChangesNoResult(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		mk := func() Config {
			cfg := smallConfig(t, 11, 0.1)
			if faulted {
				cfg.Failures = failureSchedule()
			}
			return cfg
		}
		bare, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		cfg := mk()
		cfg.Ledger = ledger.New()
		attached, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, attached) {
			t.Errorf("faulted=%v: attaching a ledger changed the simulation result", faulted)
		}
	}
}

// TestLedgerMatchesJobRecords cross-checks accounts against the
// scheduler's own lifecycle records: completed single-stint jobs must
// show residency exactly End−Start, average watts within the physical
// envelope, and the completed-job counts must agree.
func TestLedgerMatchesJobRecords(t *testing.T) {
	cfg := smallConfig(t, 5, 0.1)
	led := ledger.New()
	cfg.Ledger = led
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := led.SnapshotAt(ledgerEndMs(res))
	byID := map[string]ledger.JobEnergy{}
	completed := 0
	for _, j := range snap.Jobs {
		byID[j.ID] = j
		if j.Completed {
			completed++
		}
	}
	if completed != len(res.Jobs) {
		t.Fatalf("ledger shows %d completed jobs, sim %d", completed, len(res.Jobs))
	}
	types := map[string]float64{}
	for _, typ := range cfg.Types {
		types[typ.Name] = typ.PMax.Watts()
	}
	for _, jr := range res.Jobs {
		je, ok := byID[jr.ID]
		if !ok {
			t.Fatalf("completed job %s missing from ledger", jr.ID)
		}
		if je.Stints == 1 {
			if want := (jr.End - jr.Start).Seconds(); je.ResidencyS != want {
				t.Errorf("job %s: residency %v s, want End−Start = %v s", jr.ID, je.ResidencyS, want)
			}
		}
		if maxW := types[jr.TypeName] * float64(jr.Nodes); je.AvgWatts > maxW+0.001 || je.Joules <= 0 {
			t.Errorf("job %s: avg %v W (max %v W), joules %v — outside the physical envelope",
				jr.ID, je.AvgWatts, maxW, je.Joules)
		}
	}
}

// TestLedgerEnergyTelemetrySeries checks the cumulative energy series:
// one sample per simulated second, monotone, ending at the ledger's
// settled total — and absent entirely when no ledger is attached.
func TestLedgerEnergyTelemetrySeries(t *testing.T) {
	cfg := smallConfig(t, 9, 0.1)
	led := ledger.New()
	cfg.Ledger = led
	st := telemetry.NewStore(telemetry.Resolution{Step: 1, Buckets: 1 << 16}, telemetry.Resolution{Step: 60, Buckets: 1 << 10})
	cfg.Telemetry = st
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := st.Series("sim_energy_total_joules").Snapshot(1, 0)
	if len(pts) != len(res.Tracking) {
		t.Fatalf("energy series has %d samples, tracking has %d rows", len(pts), len(res.Tracking))
	}
	prev := -1.0
	for i, p := range pts {
		if p.Last < prev {
			t.Fatalf("sample %d: cumulative energy decreased (%v → %v)", i, prev, p.Last)
		}
		prev = p.Last
	}
	snap := led.SnapshotAt(ledgerEndMs(res))
	if last := pts[len(pts)-1].Last; last != snap.TotalJoules {
		t.Fatalf("final energy sample %v J != settled ledger total %v J", last, snap.TotalJoules)
	}
}
