// Durable control-plane integration: the manager journals every state
// change (sessions, trained models, caps, measured rates, DR bid) to a
// durable.Store, seeds itself from the state a previous controller
// generation recovered, and fences traffic across generations with the
// controller epoch.
//
// Lock ordering: Store appends block on file I/O, so no Append ever runs
// while m.mu is held — record values are captured under the lock and
// journaled after release.
package clustermgr

import (
	"math"
	"time"

	"repro/internal/durable"
	"repro/internal/proto"
	"repro/internal/units"
)

// append journals records in one store call, nil-safe and outside any
// manager lock.
func (m *Manager) append(recs ...durable.Record) {
	if m.cfg.Store == nil || len(recs) == 0 {
		return
	}
	if err := m.cfg.Store.Append(recs...); err != nil {
		m.cfg.Log.Warnf("durable: wal append of %d records failed: %v", len(recs), err)
	}
}

// durableOn reports whether durability semantics (recovered-state
// seeding, per-type model reuse) are active. Gated so managers without a
// store keep byte-identical behavior with earlier revisions.
func (m *Manager) durableOn() bool {
	return m.cfg.Store != nil || m.cfg.Recovered != nil
}

// Epoch is this manager's controller-fencing epoch (zero = unfenced).
func (m *Manager) Epoch() uint64 { return m.cfg.Epoch }

// quantMW mirrors the ledger's power quantization so power records are
// journaled only when the integer rate the ledger would see changes —
// replay then reproduces the account bit-exactly with no duplicate
// settlement points.
func quantMW(watts float64) int64 { return int64(math.Round(watts * 1e3)) }

// seedFromRecovered initializes the adoption state from the recovered
// control-plane image. Called once from NewManager.
func (m *Manager) seedFromRecovered() {
	rec := m.cfg.Recovered
	if rec == nil {
		return
	}
	for id, s := range rec.Sessions {
		if s == nil || id == "" {
			continue
		}
		cp := *s
		cp.Open = false
		m.recovered[id] = &cp
	}
	for name, ms := range rec.TypeTrained {
		if ms.Valid() {
			m.typeTrained[name] = ms
		}
	}
	if rec.Bid != nil && m.cfg.Bid == nil {
		bid := *rec.Bid
		m.cfg.Bid = &bid
	}
}

// adoptRecovered seeds a fresh registration from this job's recovered
// session (model, last cap) and claims it. Caller holds m.mu.
func (m *Manager) adoptRecovered(j *jobState, now int64) (capW float64, adopted bool) {
	rec, ok := m.recovered[j.id]
	if !ok {
		return 0, false
	}
	delete(m.recovered, j.id)
	if rec.Trained && rec.Model.Valid() {
		j.online = rec.Model.Model()
		j.trained = true
		j.lastUpdate = msToTime(rec.Model.UpdatedMs)
		j.walModel, j.walModelSet = rec.Model, true
	}
	j.lastCap = units.Power(rec.CapW)
	return rec.CapW, true
}

// ControlState captures the manager's full durable image: live and
// still-unclaimed recovered sessions, per-type trained models, the DR
// bid, and the settled energy ledger. It is the state function handed to
// Store.Snapshot / Maintain and the body served at /durable.
func (m *Manager) ControlState() *durable.ControlState {
	nowMs := m.cfg.Clock.Now().UnixMilli()
	st := &durable.ControlState{
		Epoch:       m.cfg.Epoch,
		LastMs:      nowMs,
		Sessions:    make(map[string]*durable.SessionState),
		TypeTrained: make(map[string]durable.ModelState),
	}
	m.mu.Lock()
	for id, rec := range m.recovered {
		cp := *rec
		st.Sessions[id] = &cp
	}
	for id, j := range m.jobs {
		s := &durable.SessionState{
			Job: id, Type: j.typeName, Nodes: j.nodes,
			Open:        true,
			ConnectedMs: j.connectedMs,
			CapW:        j.lastCap.Watts(),
		}
		if j.trained {
			s.Trained = true
			s.Model = durable.ModelStateOf(j.online, j.lastUpdate.UnixMilli())
		}
		st.Sessions[id] = s
	}
	for name, ms := range m.typeTrained {
		st.TypeTrained[name] = ms
	}
	if m.cfg.Bid != nil {
		bid := *m.cfg.Bid
		st.Bid = &bid
	}
	m.mu.Unlock()
	st.Ledger = m.cfg.Ledger.ExportState(nowMs)
	return st
}

// CloseSessions closes every registered endpoint connection — the
// graceful-drain path: handlers deregister (journaling byes and closing
// ledger stints), after which Wait returns.
func (m *Manager) CloseSessions() {
	m.mu.Lock()
	conns := make([]*proto.Conn, 0, len(m.jobs))
	for _, j := range m.jobs {
		conns = append(conns, j.conn)
	}
	m.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// RecoveredSessions returns how many recovered sessions are still
// waiting for their endpoints to reconnect.
func (m *Manager) RecoveredSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recovered)
}

// msToTime converts journal milliseconds back to a wall time.
func msToTime(ms int64) time.Time { return time.UnixMilli(ms) }

// sessionRecord builds the hello/bye journal entry for a session event.
func sessionRecord(kind string, j *jobState, atMs int64) durable.Record {
	return durable.Record{
		Kind: kind, AtMs: atMs,
		Job: j.id, Type: j.typeName, Nodes: j.nodes,
	}
}
