package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Crash recovery, the durable read path beside the control cycle's write
// path. Set-up runs a control stack for a fixed number of cycles with
// periodic snapshots off, flushes, and copies the state directory as it
// would be found after a kill -9. Each timed iteration starts from a copy
// of that image:
//
//	t0  durable.Open: newest snapshot + WAL replay, epoch bump, compaction
//	t1  NewManager{Recovered} + Serve; nproc dialers reconnect every
//	    endpoint under its old job ID; wait for every mailbox to hold the
//	    cap its job had before the crash
//	t2
//
// recover = t2-t0.

type recoverSection struct {
	fleet      fleet
	seed       uint64
	image      string
	caps       []float64 // pre-crash per-node cap by job index
	epoch      uint64    // the crashed generation's epoch
	stateBytes int64
	setup      time.Duration
}

// prepareRecover builds the crash image under dir by running the fleet
// for exactly cycles control cycles.
func prepareRecover(f fleet, dir string, seed uint64, cycles int) (*recoverSection, error) {
	begin := time.Now()
	live := filepath.Join(dir, "live")
	s, err := startCtrl(f, live, seed, 0, cycles, false)
	if err != nil {
		return nil, err
	}
	r := &recoverSection{fleet: f, seed: seed, image: filepath.Join(dir, "image"), epoch: s.ctl.store.Epoch()}
	err = s.ctl.store.Flush()
	for _, j := range s.rig.jobs {
		cap, _ := s.ctl.mgr.JobCap(j.spec.id)
		r.caps = append(r.caps, cap.Watts())
	}
	if err == nil {
		r.stateBytes, err = copyDir(live, r.image)
	}
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(live); err != nil {
		return nil, err
	}
	r.setup = time.Since(begin)
	return r, nil
}

// copyDir copies the regular files of src into a fresh dst and returns
// their total size.
func copyDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		n, err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// recoverTimes is one iteration's stage durations in milliseconds, and
// the number of WAL records the replay read.
type recoverTimes struct {
	total, replay, adopt float64
	records              int
}

// iterate recovers one copy of the crash image in work and checks the
// outcome. It returns the number of sessions that failed.
func (r *recoverSection) iterate(work string, rec *recorder, id int) (recoverTimes, int, error) {
	var rt recoverTimes
	if _, err := copyDir(r.image, work); err != nil {
		return rt, 0, err
	}
	defer os.RemoveAll(work)
	J := len(r.fleet.jobs)

	ctl, err := startController(work, 30*time.Second, r.fleet.totalNodes, nil)
	if err != nil {
		return rt, 0, err
	}
	rig, err := connectFleet(r.fleet, ctl.ln.Addr().String(), r.seed, false, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		ctl.stop()
		return rt, 0, err
	}
	next := 0
	restored := spinUntil(func() bool {
		for ; next < J; next++ {
			p, seq := rig.jobs[next].mailbox.ReadPolicy()
			if seq == 0 || math.Abs(p.PowerCap.Watts()-r.caps[next]) > 1e-9 {
				return false
			}
		}
		return true
	})
	t2 := time.Now()

	failed := 0
	if !restored {
		failed += J - next
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed++
			fmt.Fprintf(os.Stderr, "recover check failed: "+format+"\n", args...)
		}
	}
	check(ctl.rec.Epoch == r.epoch+1, "epoch %d after a crash in epoch %d", ctl.rec.Epoch, r.epoch)
	adopted := ctl.counter("anord_recovered_sessions_adopted_total")
	check(adopted == uint64(J), "%d of %d sessions adopted", adopted, J)
	check(ctl.mgr.RecoveredSessions() == 0, "%d recovered sessions left unclaimed", ctl.mgr.RecoveredSessions())
	check(ctl.led.SnapshotAt(time.Now().UnixMilli()).Conserved, "ledger not conserved across the crash")
	if failed > J {
		failed = J
	}

	rt.total, rt.replay, rt.adopt = ms(t2.Sub(ctl.openStart)), ms(ctl.openEnd.Sub(ctl.openStart)), ms(t2.Sub(ctl.openEnd))
	rt.records = ctl.rec.WALRecords
	if rec != nil {
		root := rec.add("recover", ctl.openStart, t2, -1, id)
		rec.add("durable.open", ctl.openStart, ctl.openEnd, root, id)
		rec.add("clustermgr.adopt", ctl.openEnd, t2, root, id)
	}
	rig.stop()
	return rt, failed, ctl.stop()
}

type recoverResult struct {
	jobs              int
	iters             []recoverTimes
	attempted, failed int
}

// run times iterations for budget (at least minIters, at most maxIters
// when positive), each in its own copy of the image under dir.
func (r *recoverSection) run(dir string, budget time.Duration, minIters, maxIters int, rec *recorder) (recoverResult, error) {
	res := recoverResult{jobs: len(r.fleet.jobs)}
	begin := time.Now()
	for i := 0; more(i, begin, budget, minIters, maxIters); i++ {
		rt, failed, err := r.iterate(filepath.Join(dir, fmt.Sprintf("work-%d", i)), rec, i)
		if err != nil {
			return res, err
		}
		res.iters = append(res.iters, rt)
		res.attempted += res.jobs
		res.failed += failed
	}
	return res, nil
}
