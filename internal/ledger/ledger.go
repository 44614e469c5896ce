// Package ledger implements streaming per-job energy attribution with a
// conservation audit: every joule the cluster draws is charged to exactly
// one job (while it holds nodes) or to the idle pool, and the sum of
// those charges must reproduce the cluster-wide power integral.
//
// # Fixed-point accounting
//
// The audit's core identity — Σ(per-job energy) + idle energy ≡ total
// energy — cannot be asserted bit-exactly over float64 sums: float
// addition is not associative, so two decompositions of the same
// physical quantity legitimately differ in their last bits depending on
// summation order. The ledger therefore accounts in integers: power
// rates are quantized once, at the source, to int64 milliwatts
// (MilliWatts), time advances in int64 milliseconds, and energy
// accumulates in int64 microjoules (1 mW·ms = 1 µJ). Integer addition is
// exact and associative, so the conservation identity holds bit-exactly
// regardless of call order, shard count, or GOMAXPROCS — any violation
// is a bookkeeping bug (a double-close, a missed settlement on requeue),
// which is precisely what the audit exists to catch. The simulator
// measures cluster power as the sum of the very same milliwatt rates it
// hands the ledger, so its per-second measurements integrate to the
// ledger's total exactly, to the microjoule.
//
// Capacity: int64 microjoules overflow at ~9.2e18 µJ ≈ 9.2e12 J — a
// 300 MW cluster running for about 8.5 hours, far beyond any simulated
// horizon or daemon session this stack runs. Rates are settled at every
// change, so intermediate rate×interval products stay well inside the
// same bound.
//
// # Double-entry bookkeeping
//
// Two independent integer accumulations run side by side: each job (and
// the idle pool) integrates its own piecewise-constant rate lazily —
// settled only when the rate changes, the job closes, or a report is
// taken — while an aggregate total integrates the sum of all open rates,
// settled before any rate changes. Clean simulator steps and idle
// fast-forward windows therefore cost the ledger nothing, keeping
// attribution ~0 allocs (and ~0 work) per step; the two ledgers meet at
// audit time, where they must agree to the microjoule.
//
// All methods are nil-safe no-ops on a nil *Ledger, mirroring the
// observability layers this package rides along with.
package ledger

import (
	"math"
	"sort"
	"sync"
)

// CloseReason says why a job stopped holding nodes.
type CloseReason uint8

const (
	// Completed: the job ran to completion.
	Completed CloseReason = iota
	// Requeued: a fail-stop killed the job; it returns to the queue and
	// a later Open resumes accounting into the same record, so energy
	// spent before the failure is neither lost nor double-counted.
	Requeued
	// Detached: the endpoint disconnected (live daemons); the job may or
	// may not be done. A reconnect re-opens the same record.
	Detached
)

// Handle identifies one open job residency. The zero Handle is invalid
// and every method treats it as a no-op, so callers can store handles
// unconditionally whether or not a ledger is attached.
type Handle struct{ idx int32 }

// Valid reports whether the handle refers to a ledger record.
func (h Handle) Valid() bool { return h.idx != 0 }

// JobMeta describes a job at Open time. SubmitMs and MinTimeS are
// optional (zero disables the slowdown/energy-delay figures).
type JobMeta struct {
	// ID is the stable job identifier; requeues and reconnects that
	// re-open the same ID accumulate into one record.
	ID string
	// Type is the workload type name (informational).
	Type string
	// Nodes is the job's node count.
	Nodes int
	// SubmitMs is the queue-entry time in ledger milliseconds.
	SubmitMs int64
	// MinTimeS is the job's minimum (uncapped) runtime in seconds,
	// the denominator of the slowdown figure.
	MinTimeS float64
}

// Ledger is a streaming energy attribution engine. One instance serves
// one simulation run or one daemon session; all methods are safe for
// concurrent use and nil-safe.
//
// Timestamps are int64 milliseconds on any monotone scale the caller
// chooses — virtual (simulator) or wall Unix milliseconds (daemons).
// Only differences matter. Samples that move a rate backwards in time
// are dropped and counted (LateSamples), never integrated negatively.
type Ledger struct {
	mu   sync.Mutex
	byID map[string]int32
	recs []record

	// Aggregate entry: total energy integrated from the running sum of
	// all open rates (jobs + idle), settled before any rate changes.
	totalUJ        int64
	totalRateMW    int64
	totalSettledMs int64

	// Idle pool entry.
	idleUJ        int64
	idleRateMW    int64
	idleSettledMs int64
	idleNodes     int

	started bool
	startMs int64

	// Bookkeeping counters surfaced by Snapshot; the error counters are
	// caller-contract violations (double open, close/sample on a
	// non-resident job) that would otherwise silently skew attribution.
	opens, closes, requeues int64
	lateSamples             int64
	accountingErrs          int64
}

// record is one job's accumulated account across every residency stint.
type record struct {
	id       string
	typeName string
	nodes    int32
	stints   int32
	requeues int32

	resident  bool
	throttled bool
	completed bool

	uj          int64 // settled energy, µJ
	rateMW      int64 // current total job power, mW (0 when not resident)
	settledMs   int64
	peakMW      int64
	residencyMs int64
	throttledMs int64

	submitMs     int64
	minTimeMs    int64
	firstStartMs int64
	lastEndMs    int64
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{byID: make(map[string]int32)} }

// Enabled reports whether the ledger is non-nil, mirroring the obs
// tracer's idiom for cheap call-site gating.
func (l *Ledger) Enabled() bool { return l != nil }

// LastMs returns the most recent accounting time the ledger has
// settled to. Virtual-time callers (the simulator's /accounting mount)
// use it as the snapshot "now" so a live dashboard never integrates
// past the simulation front; it can trail the true front by one
// rate-change interval, which under-reports but never mis-attributes.
func (l *Ledger) LastMs() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalSettledMs
}

// MilliWatts quantizes watts to integer milliwatts, rounding to nearest.
// This is the single point where float power enters integer accounting;
// callers that sum rates of their own (the simulator's measurement) use
// it so their sums and the ledger's agree exactly.
func MilliWatts(watts float64) int64 { return int64(math.Round(watts * 1e3)) }

func (l *Ledger) noteStart(atMs int64) {
	if !l.started {
		l.started = true
		l.startMs = atMs
		l.totalSettledMs = atMs
		l.idleSettledMs = atMs
	}
}

// settleTotal integrates the aggregate rate up to atMs. Must run before
// any rate (job or idle) changes.
func (l *Ledger) settleTotal(atMs int64) {
	if dt := atMs - l.totalSettledMs; dt > 0 {
		l.totalUJ += l.totalRateMW * dt
		l.totalSettledMs = atMs
	}
}

func (l *Ledger) settleIdle(atMs int64) {
	if dt := atMs - l.idleSettledMs; dt > 0 {
		l.idleUJ += l.idleRateMW * dt
		l.idleSettledMs = atMs
	}
}

func (l *Ledger) settleRec(r *record, atMs int64) {
	dt := atMs - r.settledMs
	if dt <= 0 {
		return
	}
	r.uj += r.rateMW * dt
	if r.resident {
		r.residencyMs += dt
		if r.throttled {
			r.throttledMs += dt
		}
	}
	r.settledMs = atMs
}

// Open starts (or, after a requeue/detach, resumes) attribution for a
// job at atMs. The job's rate is zero until the first SetPower. Opening
// an already-resident job is a contract violation: it is counted and
// the existing residency continues unchanged.
func (l *Ledger) Open(m JobMeta, atMs int64) Handle {
	if l == nil {
		return Handle{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.noteStart(atMs)
	idx, ok := l.byID[m.ID]
	if !ok {
		idx = int32(len(l.recs))
		l.recs = append(l.recs, record{
			id: m.ID, typeName: m.Type, nodes: int32(m.Nodes),
			submitMs: m.SubmitMs, minTimeMs: int64(math.Round(m.MinTimeS * 1e3)),
			firstStartMs: atMs, settledMs: atMs,
		})
		l.byID[m.ID] = idx
	}
	r := &l.recs[idx]
	if r.resident {
		l.accountingErrs++
		return Handle{idx: idx + 1}
	}
	// Rate has been zero since the last Close, so the skipped interval
	// integrates to nothing; restart the settlement clock here so
	// residency time excludes the queued gap.
	r.settledMs = atMs
	r.resident = true
	r.stints++
	r.nodes = int32(m.Nodes)
	l.opens++
	return Handle{idx: idx + 1}
}

// SetPower updates a job's total draw (watts across all its nodes) from
// atMs onward, and whether the job is currently pinned at a power cap
// below its uncapped maximum (throttled). Unchanged rates return
// without settling, so per-step refreshes of a quiet cluster are O(1)
// comparisons.
func (l *Ledger) SetPower(h Handle, atMs int64, jobWatts float64, throttled bool) {
	if l == nil || h.idx == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := &l.recs[h.idx-1]
	if !r.resident {
		l.accountingErrs++
		return
	}
	if atMs < r.settledMs {
		l.lateSamples++
		return
	}
	rate := MilliWatts(jobWatts)
	if rate == r.rateMW && throttled == r.throttled {
		return
	}
	l.settleTotal(atMs)
	l.settleRec(r, atMs)
	l.totalRateMW += rate - r.rateMW
	r.rateMW = rate
	r.throttled = throttled
	if rate > r.peakMW {
		r.peakMW = rate
	}
}

// Close ends a job's residency at atMs: its account is settled, its
// rate leaves the aggregate, and the reason is recorded. Closing a
// non-resident job is counted as an accounting error and ignored.
func (l *Ledger) Close(h Handle, atMs int64, reason CloseReason) {
	if l == nil || h.idx == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := &l.recs[h.idx-1]
	if !r.resident {
		l.accountingErrs++
		return
	}
	l.settleTotal(atMs)
	l.settleRec(r, atMs)
	l.totalRateMW -= r.rateMW
	r.rateMW = 0
	r.resident = false
	r.throttled = false
	r.lastEndMs = atMs
	switch reason {
	case Completed:
		r.completed = true
	case Requeued:
		r.requeues++
		l.requeues++
	}
	l.closes++
}

// SetIdle updates the idle pool: nodes idle nodes each drawing
// perNodeWatts from atMs onward. The rate is nodes × fix(perNodeWatts),
// so the quantization error stays one half-milliwatt per node.
func (l *Ledger) SetIdle(atMs int64, nodes int, perNodeWatts float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.noteStart(atMs)
	if atMs < l.idleSettledMs {
		l.lateSamples++
		return
	}
	rate := int64(nodes) * MilliWatts(perNodeWatts)
	l.idleNodes = nodes
	if rate == l.idleRateMW {
		return
	}
	l.settleTotal(atMs)
	l.settleIdle(atMs)
	l.totalRateMW += rate - l.idleRateMW
	l.idleRateMW = rate
}

// FinishAt settles every account through atMs — the end of the run (the
// simulator passes one second past its last emitted row, matching the
// power integral's closed sum). Open jobs stay open; a snapshot taken
// at the same instant integrates nothing further.
func (l *Ledger) FinishAt(atMs int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.settleTotal(atMs)
	l.settleIdle(atMs)
	for i := range l.recs {
		l.settleRec(&l.recs[i], atMs)
	}
}

// TotalJoulesAt returns cumulative attributed energy as of atMs without
// settling anything — an O(1) read the simulator records as a telemetry
// series every step.
func (l *Ledger) TotalJoulesAt(atMs int64) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	uj := l.totalUJ
	if dt := atMs - l.totalSettledMs; dt > 0 {
		uj += l.totalRateMW * dt
	}
	return float64(uj) / 1e6
}

// pendingUJ is energy accrued since an account's last settlement.
func pendingUJ(rateMW, settledMs, atMs int64) int64 {
	if dt := atMs - settledMs; dt > 0 {
		return rateMW * dt
	}
	return 0
}

// SnapshotAt reports the full ledger state as of atMs without mutating
// any settlement clock, so concurrent reads (the /accounting handler)
// never perturb the accounts they observe. Jobs appear in ascending ID
// order, making snapshots of a deterministic run byte-comparable.
func (l *Ledger) SnapshotAt(atMs int64) Snapshot {
	if l == nil {
		return Snapshot{AtMs: atMs, Conserved: true, Jobs: []JobEnergy{}}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{
		AtMs:        atMs,
		StartMs:     l.startMs,
		IdleNodes:   l.idleNodes,
		Opens:       l.opens,
		Closes:      l.closes,
		Requeues:    l.requeues,
		LateSamples: l.lateSamples,
		Errors:      l.accountingErrs,
		Jobs:        make([]JobEnergy, 0, len(l.recs)),
	}
	s.TotalMicroJ = l.totalUJ + pendingUJ(l.totalRateMW, l.totalSettledMs, atMs)
	s.IdleMicroJ = l.idleUJ + pendingUJ(l.idleRateMW, l.idleSettledMs, atMs)
	for i := range l.recs {
		r := &l.recs[i]
		uj := r.uj + pendingUJ(r.rateMW, r.settledMs, atMs)
		s.JobsMicroJ += uj
		je := JobEnergy{
			ID: r.id, Type: r.typeName, Nodes: int(r.nodes),
			Joules:    float64(uj) / 1e6,
			PeakWatts: float64(r.peakMW) / 1e3,
			Stints:    int(r.stints), Requeues: int(r.requeues),
			Completed: r.completed, Resident: r.resident,
			SubmitMs: r.submitMs, FirstStartMs: r.firstStartMs, LastEndMs: r.lastEndMs,
		}
		resMs := r.residencyMs
		thrMs := r.throttledMs
		if r.resident {
			if dt := atMs - r.settledMs; dt > 0 {
				resMs += dt
				if r.throttled {
					thrMs += dt
				}
			}
		}
		je.ResidencyS = float64(resMs) / 1e3
		je.ThrottledS = float64(thrMs) / 1e3
		if resMs > 0 {
			je.AvgWatts = je.Joules / je.ResidencyS
		}
		end := r.lastEndMs
		if r.resident {
			end = atMs
		}
		if end > r.submitMs && (r.completed || r.resident) {
			sojournS := float64(end-r.submitMs) / 1e3
			je.EnergyDelay = je.Joules * sojournS
			if r.minTimeMs > 0 {
				je.Slowdown = float64(end-r.submitMs) / float64(r.minTimeMs)
			}
		}
		s.Jobs = append(s.Jobs, je)
		if r.resident {
			s.OpenJobs++
		}
	}
	sort.Slice(s.Jobs, func(i, j int) bool { return s.Jobs[i].ID < s.Jobs[j].ID })
	s.TotalJoules = float64(s.TotalMicroJ) / 1e6
	s.JobsJoules = float64(s.JobsMicroJ) / 1e6
	s.IdleJoules = float64(s.IdleMicroJ) / 1e6
	s.ConservationDeltaMicroJ = s.TotalMicroJ - s.JobsMicroJ - s.IdleMicroJ
	s.Conserved = s.ConservationDeltaMicroJ == 0 && s.Errors == 0
	return s
}
