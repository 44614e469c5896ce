package durable

import (
	"encoding/json"
	"math"

	"repro/internal/ledger"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Record kinds. Unknown kinds are skipped on replay so newer writers
// stay readable by older readers, mirroring proto's ErrUnknownKind.
const (
	// KindEpoch opens every segment: a new controller generation began.
	// Replaying one is the crash boundary — open stints close, the idle
	// rate zeroes, and every session is marked detached.
	KindEpoch = "epoch"
	// KindHello / KindBye bracket a job session.
	KindHello = "hello"
	KindBye   = "bye"
	// KindModel records a trained power-performance model (per job and,
	// through its Type, per workload type).
	KindModel = "model"
	// KindCap records the last budget cap sent to a job.
	KindCap = "cap"
	// KindPower / KindIdle mirror the ledger's rate changes so replay
	// rebuilds the energy accounts exactly.
	KindPower = "power"
	KindIdle  = "idle"
	// KindBid records the demand-response bid the controller is serving.
	KindBid = "bid"
)

// Record is one WAL entry. One flat struct covers every kind; unused
// fields stay at their zero value and are elided from the JSON payload.
type Record struct {
	Kind  string `json:"k"`
	AtMs  int64  `json:"t,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`

	Job   string `json:"job,omitempty"`
	Type  string `json:"type,omitempty"`
	Nodes int    `json:"nodes,omitempty"`

	// CapW: last cap sent (kind cap). PowerW: measured job draw (kind
	// power) or per-node idle draw (kind idle, with Nodes idle nodes).
	CapW      float64 `json:"cap_w,omitempty"`
	PowerW    float64 `json:"power_w,omitempty"`
	Throttled bool    `json:"throttled,omitempty"`
	Reason    string  `json:"reason,omitempty"`

	Model *ModelState `json:"model,omitempty"`

	// Demand-response bid (kind bid).
	AvgW     float64 `json:"avg_w,omitempty"`
	ReserveW float64 `json:"reserve_w,omitempty"`
}

// ModelState is a serializable perfmodel.Model.
type ModelState struct {
	A         float64 `json:"a"`
	B         float64 `json:"b"`
	C         float64 `json:"c"`
	PMinW     float64 `json:"p_min_w"`
	PMaxW     float64 `json:"p_max_w"`
	UpdatedMs int64   `json:"updated_ms,omitempty"`
}

// ModelStateOf captures a model for persistence.
func ModelStateOf(m perfmodel.Model, atMs int64) ModelState {
	return ModelState{
		A: m.A, B: m.B, C: m.C,
		PMinW: m.PMin.Watts(), PMaxW: m.PMax.Watts(),
		UpdatedMs: atMs,
	}
}

// Model converts back to the budgeter's form.
func (m ModelState) Model() perfmodel.Model {
	return perfmodel.Model{
		A: m.A, B: m.B, C: m.C,
		PMin: units.Power(m.PMinW), PMax: units.Power(m.PMaxW),
	}
}

// Valid reports whether the state decodes to a usable model: every
// coefficient finite and the power range well-formed. Replay drops
// invalid models (a bit-flipped WAL must never seed the budgeter with
// NaN caps).
func (m ModelState) Valid() bool {
	for _, v := range []float64{m.A, m.B, m.C, m.PMinW, m.PMaxW} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return m.Model().Validate() == nil
}

// SessionState is one job session as the controller last knew it.
type SessionState struct {
	Job   string `json:"job"`
	Type  string `json:"type,omitempty"`
	Nodes int    `json:"nodes,omitempty"`
	// Open: the session was connected when the state was captured. After
	// a restart every recovered session starts detached (Open=false)
	// until its endpoint re-Hellos.
	Open        bool       `json:"open,omitempty"`
	ConnectedMs int64      `json:"connected_ms,omitempty"`
	CapW        float64    `json:"cap_w,omitempty"`
	Trained     bool       `json:"trained,omitempty"`
	Model       ModelState `json:"model,omitempty"`
}

// BidState is the demand-response bid the controller was serving.
type BidState struct {
	AvgW     float64 `json:"avg_w,omitempty"`
	ReserveW float64 `json:"reserve_w,omitempty"`
	SinceMs  int64   `json:"since_ms,omitempty"`
}

// ControlState is the full recoverable control-plane image: what a
// snapshot stores and what WAL replay rebuilds.
type ControlState struct {
	// Epoch is the highest controller generation recorded. Open bumps it
	// by one for the new process and fences everything older.
	Epoch  uint64 `json:"epoch"`
	LastMs int64  `json:"last_ms,omitempty"`

	Sessions    map[string]*SessionState `json:"sessions,omitempty"`
	TypeTrained map[string]ModelState    `json:"type_trained,omitempty"`
	Bid         *BidState                `json:"bid,omitempty"`

	Ledger ledger.State `json:"ledger"`
}

func newControlState() *ControlState {
	return &ControlState{
		Sessions:    make(map[string]*SessionState),
		TypeTrained: make(map[string]ModelState),
	}
}

// normalize makes a decoded (snapshot) state safe to mutate: nil maps
// from an empty JSON image become allocated ones.
func (st *ControlState) normalize() {
	if st.Sessions == nil {
		st.Sessions = make(map[string]*SessionState)
	}
	if st.TypeTrained == nil {
		st.TypeTrained = make(map[string]ModelState)
	}
	for id, s := range st.Sessions {
		if s == nil {
			delete(st.Sessions, id)
		}
	}
}

// Replay bounds. Records outside them are corrupt (bit-flipped lengths
// decode as plausible JSON numbers), not meaningful state: dropping
// them keeps the integer energy arithmetic inside int64.
const (
	maxReplayWatts = 1e9 // 1 GW per account
	maxReplayNodes = 1 << 24
	maxReplayAtMs  = 1 << 50 // ~35k years of milliseconds
	maxReplayEpoch = 1 << 32 // leaves headroom below uint64 overflow
)

func saneWatts(w float64) bool { return w >= 0 && w <= maxReplayWatts && !math.IsNaN(w) }
func saneAtMs(t int64) bool    { return t >= 0 && t <= maxReplayAtMs }

// replayer folds WAL records into a ControlState and a live ledger.
type replayer struct {
	st  *ControlState
	led *ledger.Ledger
	// resident mirrors the ledger's open residencies so replay never
	// double-opens or closes a closed account (which would count
	// accounting errors and fail the conservation audit) even when the
	// session map and ledger image disagree at a snapshot boundary.
	resident map[string]bool
	// records applied (valid kind, passed sanity checks).
	applied int
	skipped int
	// rec is the record applyPayload decodes into, reused so that
	// neither decoder allocates one per payload.
	rec Record
}

func newReplayer(st *ControlState) *replayer {
	st.normalize()
	rp := &replayer{st: st, led: ledger.Restore(st.Ledger), resident: make(map[string]bool)}
	for _, j := range st.Ledger.Jobs {
		if j.Resident {
			rp.resident[j.ID] = true
		}
	}
	return rp
}

// applyPayload decodes one WAL payload: the canonical form directly,
// anything else through json.Unmarshal. Undecodable or insane payloads
// are counted and skipped — replay must survive arbitrary bytes.
func (rp *replayer) applyPayload(payload []byte) {
	rec := &rp.rec
	if !decodeRecord(payload, rec) && json.Unmarshal(payload, rec) != nil {
		rp.skipped++
		return
	}
	rp.apply(*rec)
}

func (rp *replayer) apply(rec Record) {
	st := rp.st
	if !saneAtMs(rec.AtMs) {
		rp.skipped++
		return
	}
	// Replay time is monotone: a record timestamped before the replay
	// front (duplicated records from a snapshot/rotation overlap, or a
	// corrupted clock) applies at the front instead. Integrating with a
	// rolled-back per-account clock against a monotone aggregate clock
	// would silently break the conservation identity.
	if rec.AtMs > st.LastMs {
		st.LastMs = rec.AtMs
	} else {
		rec.AtMs = st.LastMs
	}
	switch rec.Kind {
	case KindEpoch:
		if rec.Epoch > maxReplayEpoch {
			rp.skipped++
			return
		}
		// Crash boundary: everything the previous generation had open
		// closes at the last instant it was known alive.
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
		rp.led.CloseAllResidents(st.LastMs, ledger.Detached)
		rp.led.SetIdle(st.LastMs, 0, 0)
		rp.resident = make(map[string]bool)
		for _, s := range st.Sessions {
			s.Open = false
		}
	case KindHello:
		if rec.Job == "" || rec.Nodes < 0 || rec.Nodes > maxReplayNodes {
			rp.skipped++
			return
		}
		s := st.Sessions[rec.Job]
		if s == nil {
			s = &SessionState{Job: rec.Job}
			st.Sessions[rec.Job] = s
		}
		s.Type, s.Nodes, s.ConnectedMs = rec.Type, rec.Nodes, rec.AtMs
		s.Open = true
		if !rp.resident[rec.Job] {
			rp.led.Open(ledger.JobMeta{ID: rec.Job, Type: rec.Type, Nodes: rec.Nodes}, rec.AtMs)
			rp.resident[rec.Job] = true
		}
	case KindBye:
		if s := st.Sessions[rec.Job]; s != nil {
			s.Open = false
		}
		if rp.resident[rec.Job] {
			rp.led.Close(rp.led.Handle(rec.Job), rec.AtMs, ledger.Detached)
			rp.resident[rec.Job] = false
		}
	case KindModel:
		if rec.Model == nil || !rec.Model.Valid() {
			rp.skipped++
			return
		}
		if s := st.Sessions[rec.Job]; s != nil {
			s.Trained = true
			s.Model = *rec.Model
		}
		if rec.Type != "" {
			st.TypeTrained[rec.Type] = *rec.Model
		}
	case KindCap:
		if !saneWatts(rec.CapW) {
			rp.skipped++
			return
		}
		if s := st.Sessions[rec.Job]; s != nil {
			s.CapW = rec.CapW
		}
	case KindPower:
		if !saneWatts(rec.PowerW) {
			rp.skipped++
			return
		}
		if rp.resident[rec.Job] {
			rp.led.SetPower(rp.led.Handle(rec.Job), rec.AtMs, rec.PowerW, rec.Throttled)
		}
	case KindIdle:
		if rec.Nodes < 0 || rec.Nodes > maxReplayNodes || !saneWatts(rec.PowerW) {
			rp.skipped++
			return
		}
		rp.led.SetIdle(rec.AtMs, rec.Nodes, rec.PowerW)
	case KindBid:
		if !saneWatts(rec.AvgW) || !saneWatts(rec.ReserveW) {
			rp.skipped++
			return
		}
		st.Bid = &BidState{AvgW: rec.AvgW, ReserveW: rec.ReserveW, SinceMs: rec.AtMs}
	default:
		rp.skipped++
		return
	}
	rp.applied++
}

// finish settles the replayed ledger into the state image and returns
// both. The ledger is live — the restarted controller keeps accounting
// into it.
func (rp *replayer) finish() (*ControlState, *ledger.Ledger) {
	rp.st.Ledger = rp.led.ExportState(rp.st.LastMs)
	return rp.st, rp.led
}
