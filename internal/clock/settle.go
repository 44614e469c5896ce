package clock

import (
	"bytes"
	"runtime"
	"strconv"
	"time"
)

// settleState is what Settle remembers between calls.
type settleState struct {
	root       int64 // first caller of Settle; the world is its descendants
	goroutines int   // runtime.NumGoroutine() when the world last settled
	buf        []byte
}

// Busy adds delta to the work in flight outside the clock: bytes written
// to an in-process pipe and not yet read, or a reader still handling what
// it read. Settle does not trust its cheap test while any is in flight.
func (v *Virtual) Busy(delta int64) { v.busy.Add(delta) }

// Settle blocks until the goroutines v paces have settled, or done is
// closed. The world is every goroutine started, directly or through
// others, by the goroutine that first called Settle on v; it has settled
// when all of them are blocked, so nothing changes until the clock
// moves. A driver calls Settle before each Step so that a goroutine woken
// at T finishes its reaction, and schedules its next wait, before the
// clock passes T.
//
// A cheap test runs on every poll: each waiter fired since the last
// settle has been followed by a new After, no Busy work is in flight and
// the process runs as many goroutines as it did then. Between ticks the
// goroutines of this repository block only on the clock, on in-process
// pipes that report Busy, or on joins that start or end goroutines, so
// the test passes only once they are all blocked. (A select that leaves
// a fresh clock wait for a channel that is already ready, with no
// goroutine starting or ending, would fool it; none does.) When the test
// keeps failing (a woken goroutine exited, a job started, an abandoned
// wait fired), a goroutine dump decides instead: taken while the runtime
// has every goroutine stopped, it shows whether any goroutine of the
// world is running or runnable. A goroutine whose creator has exited
// cannot be placed and counts as part of the world.
func (v *Virtual) Settle(done <-chan struct{}) {
	v.mu.Lock()
	if !v.tracking {
		v.tracking = true
		v.settled.root = goroutineID()
		v.settled.goroutines = -1 // the first settle takes a dump
	}
	v.mu.Unlock()
	var last [3]int64
	still, patience := 0, 200
	for i := 1; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		v.mu.Lock()
		woken := v.woken
		v.mu.Unlock()
		cur := [3]int64{int64(woken), v.busy.Load(), int64(runtime.NumGoroutine())}
		if cur[0] == 0 && cur[1] == 0 && int(cur[2]) == v.settled.goroutines {
			return
		}
		if cur != last {
			last, still = cur, 0
		} else if still++; still >= patience {
			if !v.worldRunning() {
				v.mu.Lock()
				v.woken = 0
				v.mu.Unlock()
				v.settled.goroutines = runtime.NumGoroutine()
				return
			}
			// Still working: dump less often, but keep checking.
			still, patience = 0, min(2*patience, 6400)
		}
		// Real sleeps now and then let goroutines whose threads the
		// host has descheduled catch up.
		if i%200 == 0 {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// worldRunning reports whether a goroutine of Settle's world other than
// the caller is running or runnable, from one consistent goroutine dump.
func (v *Virtual) worldRunning() bool {
	s := &v.settled
	if s.buf == nil {
		s.buf = make([]byte, 64<<10)
	}
	var dump []byte
	for {
		n := runtime.Stack(s.buf, true)
		if n < len(s.buf) {
			dump = s.buf[:n]
			break
		}
		s.buf = make([]byte, 2*len(s.buf))
	}

	self := int64(-1)
	parent := map[int64]int64{} // -1: no creator (main and runtime roots)
	var running []int64
	for len(dump) > 0 {
		var rec []byte
		rec, dump, _ = bytes.Cut(dump, []byte("\n\n"))
		id, state, ok := parseHeader(rec)
		if !ok {
			continue
		}
		if self < 0 {
			self = id // runtime.Stack lists the calling goroutine first
		}
		parent[id] = creator(rec)
		if id != self && state != "" && !isWait(state) {
			running = append(running, id)
		}
	}
	for _, id := range running {
		for g := id; ; {
			if g == s.root {
				return true
			}
			p := parent[g]
			if p < 0 {
				break // a root outside the world
			}
			if _, alive := parent[p]; !alive {
				return true // orphan: cannot rule it out
			}
			g = p
		}
	}
	return false
}

// parseHeader splits a dump record's "goroutine N [state, ...]:" line.
func parseHeader(rec []byte) (id int64, state string, ok bool) {
	line, _, _ := bytes.Cut(rec, []byte("\n"))
	rest, found := bytes.CutPrefix(line, []byte("goroutine "))
	if !found {
		return 0, "", false
	}
	num, rest, found := bytes.Cut(rest, []byte(" ["))
	if !found {
		return 0, "", false
	}
	id, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return 0, "", false
	}
	st, _, _ := bytes.Cut(rest, []byte("]"))
	st, _, _ = bytes.Cut(st, []byte(","))
	return id, string(st), true
}

// creator returns the ID in a record's "created by F in goroutine N"
// line, or -1 when there is none.
func creator(rec []byte) int64 {
	_, line, found := bytes.Cut(rec, []byte("\ncreated by "))
	if !found {
		return -1
	}
	line, _, _ = bytes.Cut(line, []byte("\n"))
	_, num, found := bytes.Cut(line, []byte(" in goroutine "))
	if !found {
		return -1
	}
	id, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// isWait reports whether a dumped goroutine state is a wait reason. The
// scheduler states below are the only others a dump shows.
func isWait(state string) bool {
	switch state {
	case "running", "runnable", "syscall", "copystack", "preempted":
		return false
	}
	return true
}

// goroutineID returns the calling goroutine's ID.
func goroutineID() int64 {
	var b [64]byte
	id, _, _ := parseHeader(b[:runtime.Stack(b[:], false)])
	return id
}
