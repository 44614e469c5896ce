package durable

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
)

// On-disk layout of a state directory:
//
//	wal-<seq>.log    CRC-framed record segments; one per process
//	                 generation plus one per compaction rotation. A new
//	                 generation never appends to an old segment (its
//	                 tail may be torn), it opens the next one.
//	snap-<seq>.snap  CRC-framed ControlState snapshots. snap-N covers
//	                 every record in segments with seq ≤ N, so recovery
//	                 is "newest valid snapshot + replay of later
//	                 segments". The two newest snapshots are kept so a
//	                 torn snapshot write falls back one generation.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	keepSnaps  = 2
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", segPrefix, seq, segSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return seq, err == nil
}

// Options configures Open.
type Options struct {
	// Dir is the state directory; created if missing.
	Dir string
	// FlushEvery bounds how long an appended record may sit unsynced —
	// the crash-loss window. Zero or negative syncs on every append.
	FlushEvery time.Duration
	// SnapshotEvery is the compaction cadence for Maintain. Zero or
	// negative disables periodic snapshots (explicit Snapshot calls and
	// the open-time compaction still run).
	SnapshotEvery time.Duration
	// Metrics/Log are optional and nil-safe.
	Metrics *obs.Registry
	Log     *obs.Logger

	// noSync skips fsync for in-package tests (the fuzz harness opens
	// thousands of stores); production callers cannot set it.
	noSync bool
}

// Recovery reports what Open rebuilt from the state directory.
type Recovery struct {
	// State is the recovered control-plane image with Epoch already
	// bumped for this generation; Ledger is the live restored ledger.
	// Both are handed to the manager, not serialized with the summary.
	State  *ControlState  `json:"-"`
	Ledger *ledger.Ledger `json:"-"`
	// Epoch is the new generation's fencing epoch (== State.Epoch).
	Epoch uint64 `json:"epoch"`

	Sessions    int           `json:"sessions"`      // recovered sessions
	Models      int           `json:"models"`        // trained models recovered (sessions + types)
	WALRecords  int           `json:"wal_records"`   // records replayed from segments
	Segments    int           `json:"segments"`      // segments replayed
	TornTail    bool          `json:"torn_tail"`     // a segment ended mid-frame (expected after SIGKILL)
	Corrupt     int           `json:"corrupt"`       // segments or snapshots with CRC/magic damage
	UsedSnapSeq uint64        `json:"used_snap_seq"` // snapshot generation recovery started from
	Duration    time.Duration `json:"duration_ns"`
}

type storeMetrics struct {
	appends, bytes, syncs  *obs.Counter
	snapshots, snapErrs    *obs.Counter
	tornTails, corruptions *obs.Counter
	recoverySeconds        *obs.Gauge
	recoveredSessions      *obs.Gauge
	recoveredRecords       *obs.Gauge
	epoch                  *obs.Gauge
}

func newStoreMetrics(r *obs.Registry) storeMetrics {
	return storeMetrics{
		appends:           r.Counter("durable_wal_appends_total", "Records appended to the control-plane WAL."),
		bytes:             r.Counter("durable_wal_bytes_total", "Bytes appended to the control-plane WAL."),
		syncs:             r.Counter("durable_wal_syncs_total", "fsync batches flushed to the WAL."),
		snapshots:         r.Counter("durable_snapshots_total", "Compacting snapshots written."),
		snapErrs:          r.Counter("durable_snapshot_errors_total", "Snapshot writes that failed."),
		tornTails:         r.Counter("durable_torn_tails_total", "WAL segments recovered with a torn final frame."),
		corruptions:       r.Counter("durable_corrupt_files_total", "WAL segments or snapshots dropped for CRC/magic damage."),
		recoverySeconds:   r.Gauge("durable_recovery_seconds", "Wall time of the last recovery (open)."),
		recoveredSessions: r.Gauge("durable_recovered_sessions", "Sessions recovered at the last open."),
		recoveredRecords:  r.Gauge("durable_recovered_wal_records", "WAL records replayed at the last open."),
		epoch:             r.Gauge("durable_controller_epoch", "This controller generation's fencing epoch."),
	}
}

// Store is the live handle: an open WAL segment accepting appends, plus
// the snapshot/rotation machinery. Safe for concurrent use.
type Store struct {
	opt Options
	met storeMetrics

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      uint64 // current segment
	epoch    uint64
	dirty    bool      // buffered or unsynced bytes exist
	lastSync time.Time // wall clock; only used for flush pacing
	lastSnap time.Time
	closed   bool
	// wbuf holds the frame appendLocked encodes; it is not kept above
	// maxKeptBuf.
	wbuf []byte

	recovery Recovery
}

// Open recovers the state directory and starts a new generation: the
// newest valid snapshot is loaded, later segments are replayed (torn
// tails tolerated, corruption dropped), the controller epoch is bumped,
// a fresh segment is opened with the new epoch as its first durable
// record, and the recovered image is re-snapshotted so crash loops
// never replay more than one generation of WAL.
func Open(opt Options) (*Store, *Recovery, error) {
	start := time.Now()
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{opt: opt, met: newStoreMetrics(opt.Metrics), lastSnap: start}
	log := opt.Log

	entries, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, nil, err
	}
	var segs, snaps []uint64
	maxSeq := uint64(0)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first

	rec := &s.recovery

	// Newest snapshot that decodes cleanly wins; damaged ones fall back.
	st := newControlState()
	snapSeq := uint64(0)
	for _, seq := range snaps {
		loaded, err := readSnapshot(filepath.Join(opt.Dir, snapName(seq)))
		if err != nil {
			rec.Corrupt++
			s.met.corruptions.Inc()
			log.Warnf("durable: snapshot %s unusable (%v), falling back", snapName(seq), err)
			continue
		}
		st = loaded
		snapSeq = seq
		rec.UsedSnapSeq = seq
		break
	}

	// Replay every segment after the snapshot, oldest first.
	rp := newReplayer(st)
	for _, seq := range segs {
		if seq <= snapSeq {
			continue
		}
		res, err := s.replaySegment(filepath.Join(opt.Dir, segName(seq)), rp)
		if err != nil {
			rec.Corrupt++
			s.met.corruptions.Inc()
			log.Warnf("durable: segment %s unusable (%v), skipping", segName(seq), err)
			continue
		}
		rec.Segments++
		rec.WALRecords += res.frames
		if res.torn {
			rec.TornTail = true
			s.met.tornTails.Inc()
		}
		if res.corrupt {
			rec.Corrupt++
			s.met.corruptions.Inc()
		}
	}

	// New generation: bump the epoch and apply the boundary to the
	// replayed state (stints close, sessions detach) before anything of
	// this generation is recorded.
	epochRec := Record{Kind: KindEpoch, AtMs: rp.st.LastMs, Epoch: rp.st.Epoch + 1}
	rp.apply(epochRec)
	st, led := rp.finish()
	s.epoch = st.Epoch

	// Open the new segment with the epoch record as its first frame.
	s.seq = maxSeq + 1
	if err := s.openSegment(); err != nil {
		return nil, nil, err
	}
	if err := s.appendLocked(&epochRec); err != nil {
		s.f.Close()
		return nil, nil, err
	}
	if err := s.syncLocked(); err != nil {
		s.f.Close()
		return nil, nil, err
	}
	if !opt.noSync {
		syncDir(opt.Dir)
	}

	// Compact: everything recovered becomes one snapshot covering all
	// prior segments, so the next open replays only this generation.
	if err := s.writeSnapshot(s.seq-1, st); err != nil {
		s.met.snapErrs.Inc()
		log.Warnf("durable: open-time compaction snapshot failed: %v", err)
	}

	rec.State = st
	rec.Ledger = led
	rec.Epoch = st.Epoch
	rec.Sessions = len(st.Sessions)
	rec.Models = len(st.TypeTrained)
	for _, sess := range st.Sessions {
		if sess.Trained {
			rec.Models++
		}
	}
	rec.Duration = time.Since(start)
	s.met.recoverySeconds.Set(rec.Duration.Seconds())
	s.met.recoveredSessions.Set(float64(rec.Sessions))
	s.met.recoveredRecords.Set(float64(rec.WALRecords))
	s.met.epoch.Set(float64(s.epoch))
	s.lastSync = time.Now()
	out := s.recovery
	return s, &out, nil
}

func (s *Store) replaySegment(path string, rp *replayer) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, err
	}
	defer f.Close()
	return scanFrames(bufio.NewReaderSize(f, 64<<10), walMagic, func(payload []byte) error {
		rp.applyPayload(payload)
		return nil
	})
}

func (s *Store) openSegment() error {
	f, err := os.OpenFile(filepath.Join(s.opt.Dir, segName(s.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, 64<<10)
	if _, err := s.w.WriteString(walMagic); err != nil {
		f.Close()
		return err
	}
	s.dirty = true
	return nil
}

// Epoch is this generation's fencing epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// Append logs records, in order, under one lock. Durability is bounded
// by FlushEvery: the records are buffered and synced when the window
// expires (or before Append returns when FlushEvery ≤ 0). A record that
// fails, such as one with a NaN or infinite float, is dropped; the rest
// are still logged and the first error is returned.
func (s *Store) Append(recs ...Record) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	var err error
	for i := range recs {
		if e := s.appendLocked(&recs[i]); err == nil {
			err = e
		}
	}
	if s.opt.FlushEvery <= 0 || time.Since(s.lastSync) >= s.opt.FlushEvery {
		if e := s.syncLocked(); err == nil {
			err = e
		}
	}
	return err
}

// appendLocked encodes rec straight into its frame in s.wbuf and buffers
// the frame for the segment.
func (s *Store) appendLocked(rec *Record) error {
	frame, err := appendRecord(append(s.wbuf[:0], make([]byte, frameHeader)...), rec)
	if err != nil {
		return err
	}
	sealFrame(frame)
	if cap(frame) <= maxKeptBuf {
		s.wbuf = frame
	}
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	s.dirty = true
	s.met.appends.Inc()
	s.met.bytes.Add(uint64(len(frame)))
	return nil
}

// Flush forces buffered records to stable storage.
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if !s.opt.noSync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.dirty = false
	s.lastSync = time.Now()
	s.met.syncs.Inc()
	return nil
}

// Maintain runs the store's periodic duties from the controller's tick:
// flush the WAL when the bounded-loss window expired, and compact (state
// snapshot + segment rotation) when the snapshot cadence expired. state
// is only invoked when a snapshot is actually due; it must capture the
// current control-plane image.
func (s *Store) Maintain(state func() *ControlState) {
	if s == nil {
		return
	}
	s.mu.Lock()
	flushDue := s.dirty && s.opt.FlushEvery > 0 && time.Since(s.lastSync) >= s.opt.FlushEvery
	snapDue := s.opt.SnapshotEvery > 0 && time.Since(s.lastSnap) >= s.opt.SnapshotEvery
	if flushDue && !snapDue {
		if err := s.syncLocked(); err != nil {
			s.opt.Log.Warnf("durable: wal flush failed: %v", err)
		}
	}
	s.mu.Unlock()
	if snapDue {
		if err := s.Snapshot(state); err != nil {
			s.opt.Log.Warnf("durable: periodic snapshot failed: %v", err)
		}
	}
}

// Snapshot compacts the log: the current segment is sealed, a new one
// opened, and the control-plane image written as a snapshot covering
// everything up to the seal. Records appended while the image is being
// captured land in the new segment; replaying them over the snapshot is
// harmless (every record kind re-applies idempotently).
func (s *Store) Snapshot(state func() *ControlState) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return os.ErrClosed
	}
	if err := s.syncLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.f.Close(); err != nil {
		s.mu.Unlock()
		return err
	}
	covered := s.seq
	s.seq++
	if err := s.openSegment(); err != nil {
		s.mu.Unlock()
		return err
	}
	if err := s.syncLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if !s.opt.noSync {
		syncDir(s.opt.Dir)
	}
	s.mu.Unlock()

	st := state()
	if st == nil {
		return nil
	}
	return s.writeSnapshot(covered, st)
}

// writeSnapshot persists st as snap-<covered> (atomic tmp+rename) and
// prunes: all but the newest keepSnaps snapshots, and every segment
// already covered by the oldest kept snapshot.
func (s *Store) writeSnapshot(covered uint64, st *ControlState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	path := filepath.Join(s.opt.Dir, snapName(covered))
	tmp := path + ".tmp"
	buf := appendFrame([]byte(snapMagic), payload)
	write := writeFileSync
	if s.opt.noSync {
		write = func(p string, b []byte) error { return os.WriteFile(p, b, 0o644) }
	}
	if err := write(tmp, buf); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if !s.opt.noSync {
		syncDir(s.opt.Dir)
	}
	s.met.snapshots.Inc()

	s.mu.Lock()
	s.lastSnap = time.Now()
	s.mu.Unlock()
	s.prune()
	return nil
}

// prune deletes snapshots beyond the newest keepSnaps and segments
// covered by the oldest kept snapshot. Best-effort: a failed unlink
// costs disk, not correctness.
func (s *Store) prune() {
	entries, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return
	}
	var snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	if len(snaps) == 0 {
		return
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	keepFloor := snaps[0]
	if len(snaps) > keepSnaps {
		for _, seq := range snaps[keepSnaps:] {
			os.Remove(filepath.Join(s.opt.Dir, snapName(seq)))
		}
	}
	if len(snaps) >= keepSnaps {
		keepFloor = snaps[keepSnaps-1]
	} else {
		keepFloor = snaps[len(snaps)-1]
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq <= keepFloor {
			os.Remove(filepath.Join(s.opt.Dir, segName(seq)))
		}
	}
}

// Close flushes and closes the WAL. Callers wanting a clean compaction
// point call Snapshot first.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.syncLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// readSnapshot loads one CRC-framed ControlState file.
func readSnapshot(path string) (*ControlState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st *ControlState
	res, err := scanFrames(bufio.NewReaderSize(f, 64<<10), snapMagic, func(payload []byte) error {
		loaded := newControlState()
		if err := json.Unmarshal(payload, loaded); err != nil {
			return err
		}
		st = loaded
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st == nil || res.frames == 0 || res.torn || res.corrupt {
		return nil, fmt.Errorf("durable: snapshot %s torn or corrupt", filepath.Base(path))
	}
	st.normalize()
	return st, nil
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates are durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Status is the JSON served at /durable: the live store counters plus a
// freshly captured control-plane image.
type Status struct {
	Epoch      uint64        `json:"epoch"`
	Segment    uint64        `json:"segment"`
	Recovery   Recovery      `json:"recovery"`
	State      *ControlState `json:"state,omitempty"`
	CapturedMs int64         `json:"captured_ms"`
}

// StatusHandler serves recovery/fencing status and, when state is
// non-nil, the current control-plane image.
func (s *Store) StatusHandler(state func() *ControlState) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := Status{Epoch: s.epoch, CapturedMs: time.Now().UnixMilli()}
		s.mu.Lock()
		st.Segment = s.seq
		st.Recovery = s.recovery
		s.mu.Unlock()
		st.Recovery.State, st.Recovery.Ledger = nil, nil
		if state != nil {
			st.State = state()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
