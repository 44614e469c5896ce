package sim

import (
	"time"

	"repro/internal/ledger"
)

// Energy-ledger hooks. Every call in this file runs in the serial
// sections of the step loop (start/complete/failure handling and the
// post-measure settle), visiting jobs in sorted-ID order, so ledger
// output is bit-identical at any shard count and GOMAXPROCS. The hooks
// read engine state but never write it, preserving the observational
// contract: attaching a ledger changes no simulation result.

// ledgerOpen registers a newly started job under its table slot. The
// handle table grows with the job table and reuses slots the same way.
func (e *engine) ledgerOpen(slot int32, now time.Time) {
	for len(e.ledH) < len(e.jobs) {
		e.ledH = append(e.ledH, ledger.Handle{})
	}
	rj := &e.jobs[slot]
	e.ledH[slot] = e.cfg.Ledger.Open(ledger.JobMeta{
		ID: rj.id, Type: rj.job.TypeName, Nodes: rj.job.Nodes,
		SubmitMs: rj.job.Submit.UnixMilli(), MinTimeS: rj.job.MinTime,
	}, now.UnixMilli())
}

// ledgerClose ends a slot's residency (completion or requeue).
func (e *engine) ledgerClose(slot int32, now time.Time, reason ledger.CloseReason) {
	e.cfg.Ledger.Close(e.ledH[slot], now.UnixMilli(), reason)
}

// ledgerSettle refreshes every running job's rate and the idle pool
// after a measurement. The ledger quantizes exactly the per-job and idle
// wattages measure summed, so its total rate equals the measured
// milliwatts and its total energy equals the tracking series' integral
// to the microjoule; a job is throttled when its cap pins it below the
// type's uncapped draw. Unchanged rates return in O(1) inside the
// ledger, so a re-measure that moved nothing (or only some jobs) costs
// proportionally little.
func (e *engine) ledgerSettle(now time.Time) {
	ms := now.UnixMilli()
	for _, slot := range e.order {
		rj := &e.jobs[slot]
		e.cfg.Ledger.SetPower(e.ledH[slot], ms, rj.watts(), rj.power < rj.typ.PMax)
	}
	idle := len(e.nodeJob) - e.measuredBusy - e.down
	e.cfg.Ledger.SetIdle(ms, idle, e.cfg.IdlePower.Watts())
}
