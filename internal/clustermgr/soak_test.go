package clustermgr

import (
	"io"
	"io/fs"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestSoakRetentionFlat runs a fully wired manager — durable store,
// ledger, metrics registry, telemetry rollups, and an event tracer — for
// several simulated days at the default 2 s period, with a few fixed
// sessions over net.Pipe, and requires that nothing it retains grows with
// uptime: heap after GC, goroutines, and the state directory are sampled
// at the end of each day and must stay flat after the first.
//
// The race detector slows each tick about tenfold, so under it a "day"
// lasts one simulated hour: the same wiring still runs for races, and the
// full-length run without it enforces the bounds.
//
// The sessions never change, so this covers per-tick retention only.
// Per-job growth under churn is still open: the ledger keeps a record for
// every job it has ever seen, and every snapshot exports them all.
func TestSoakRetentionFlat(t *testing.T) {
	const (
		days     = 3
		period   = DefaultPeriod
		sessions = 2
		// A per-tick retention of even 8 bytes grows the heap by 345 KB
		// a day; one tracking point per tick grows it by about 1.7 MB.
		heapSlack = 256 << 10
	)
	perDay := int(24 * time.Hour / period)
	if raceEnabled {
		perDay /= 24
	}
	dir := t.TempDir()
	v := clock.NewVirtual(t0)
	store, rec, err := durable.Open(durable.Options{Dir: dir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := testConfig(v, 0)
	// The target steps every hour, so caps change and the WAL grows
	// between the daily snapshots that compact it.
	cfg.Target = func(now time.Time) units.Power {
		return units.Power(1800 + 40*(now.Sub(t0)/time.Hour%6))
	}
	cfg.Period = period
	cfg.Store, cfg.Recovered, cfg.Ledger = store, rec.State, rec.Ledger
	cfg.Metrics = obs.NewRegistry()
	cfg.Telemetry = telemetry.NewStore()
	cfg.Tracer = obs.NewTracer(io.Discard, "soak")
	cfg.Reserve = 500
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sessions {
		a, b := net.Pipe()
		m.AttachConn(proto.NewConn(a))
		peer := proto.NewConn(b)
		defer peer.Close()
		id := string(rune('a' + i))
		if err := peer.Send(proto.Envelope{Kind: proto.KindHello, Hello: &proto.Hello{
			JobID: id, TypeName: "bt.D.81", Nodes: 2,
		}}); err != nil {
			t.Fatal(err)
		}
		go func() { // read and drop every cap
			for {
				if _, err := peer.Recv(); err != nil {
					return
				}
			}
		}()
		waitFor(t, func() bool { return hasJob(m, id) })
	}

	type sample struct {
		heap       uint64
		goroutines int
		diskBytes  int64
	}
	var daily []sample
	var ms runtime.MemStats
	for day := 1; day <= days; day++ {
		for range perDay {
			v.Advance(period)
			m.Tick()
		}
		// The store's own snapshot cadence runs on wall time; compact
		// once per simulated day instead.
		if err := store.Snapshot(m.ControlState); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		s := sample{heap: ms.HeapAlloc, goroutines: runtime.NumGoroutine(), diskBytes: dirBytes(t, dir)}
		t.Logf("day %d: heap %d KB, %d goroutines, state dir %d KB", day, s.heap>>10, s.goroutines, s.diskBytes>>10)
		daily = append(daily, s)
	}
	if m.ActiveJobs() != sessions {
		t.Fatalf("ActiveJobs = %d, want %d", m.ActiveJobs(), sessions)
	}

	first := daily[0]
	for i, s := range daily[1:] {
		day := i + 2
		if s.heap > first.heap+heapSlack {
			t.Errorf("day %d: heap %d KB, %d KB above day 1 (slack %d KB)",
				day, s.heap>>10, (s.heap-first.heap)>>10, heapSlack>>10)
		}
		if s.goroutines > first.goroutines {
			t.Errorf("day %d: %d goroutines, day 1 had %d", day, s.goroutines, first.goroutines)
		}
	}
	// The store keeps two snapshots and the WAL since the older one, so
	// the directory reaches its steady size at the end of day two.
	for i, s := range daily[2:] {
		if base := daily[1].diskBytes; s.diskBytes > base+base/10 {
			t.Errorf("day %d: state dir %d KB, day 2 had %d KB", i+3, s.diskBytes>>10, base>>10)
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
