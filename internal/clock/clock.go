// Package clock abstracts time for the ANOR framework. Every control loop
// — the cluster manager, the job-tier modeler, GEOPM agents, and the
// synthetic benchmarks — is paced through a Clock, so the full daemon stack
// can run against real wall-clock time in production or against a virtual
// clock that compresses an hour-long experiment into milliseconds of test
// time.
package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current time and timed waits.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the clock time once d has
	// elapsed on this clock. Non-positive durations fire immediately.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks the caller for d on this clock.
	Sleep(d time.Duration)
}

// Real is the wall-clock implementation of Clock.
type Real struct{}

// Now returns time.Now.
func (Real) Now() time.Time { return time.Now() }

// After wraps time.After, firing immediately for non-positive durations.
func (Real) After(d time.Duration) <-chan time.Time {
	if d <= 0 {
		ch := make(chan time.Time, 1)
		ch <- time.Now()
		return ch
	}
	return time.After(d)
}

// Sleep wraps time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a manually advanced clock. Goroutines block on After/Sleep
// until a driver calls Advance (or Step) to move time forward; this gives
// deterministic, fast simulation of long-running control loops. A driver
// that cannot count the goroutines it paces calls Settle before each
// Step.
//
// The zero value is not usable; create one with NewVirtual.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int // tiebreak so equal deadlines fire FIFO
	blocked int // waiters currently enqueued; see WaitForWaiters
	cond    *sync.Cond

	// Settle's bookkeeping (settle.go). tracking turns it on; woken
	// counts fired waiters not yet followed by a new After.
	tracking bool
	woken    int
	busy     atomic.Int64
	settled  settleState
}

type waiter struct {
	at  time.Time
	seq int
	ch  chan time.Time
}

type waiterHeap []waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(waiter)) }
func (h *waiterHeap) Pop() any     { old := *h; n := len(old); w := old[n-1]; *h = old[:n-1]; return w }

// NewVirtual returns a virtual clock starting at the given time.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{now: start}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// Now returns the virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After returns a channel that fires when the virtual clock reaches
// now+d. Non-positive durations fire immediately with the current time.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	defer v.mu.Unlock()
	if d <= 0 {
		ch <- v.now
		return ch
	}
	heap.Push(&v.waiters, waiter{at: v.now.Add(d), seq: v.seq, ch: ch})
	v.seq++
	v.blocked++
	if v.woken > 0 {
		v.woken-- // a woken goroutine waiting again, as Settle assumes
	}
	v.cond.Broadcast()
	return ch
}

// Sleep blocks until the virtual clock has advanced by d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the virtual clock forward by d, firing every waiter whose
// deadline is reached, in deadline order. It returns the number of waiters
// fired.
func (v *Virtual) Advance(d time.Duration) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	target := v.now.Add(d)
	fired := 0
	for len(v.waiters) > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(waiter)
		v.now = w.at
		w.ch <- w.at
		v.blocked--
		fired++
	}
	if v.tracking {
		v.woken += fired
	}
	v.now = target
	return fired
}

// Step advances the clock to the next pending deadline, firing exactly the
// waiters scheduled at that instant. It returns false when no waiters are
// pending.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.waiters) == 0 {
		return false
	}
	at := v.waiters[0].at
	for len(v.waiters) > 0 && v.waiters[0].at.Equal(at) {
		w := heap.Pop(&v.waiters).(waiter)
		w.ch <- w.at
		v.blocked--
		if v.tracking {
			v.woken++
		}
	}
	if at.After(v.now) {
		v.now = at
	}
	return true
}

// WaitForWaiters blocks until at least n goroutines are waiting on this
// clock. Drivers use it to know every simulated component has parked on its
// next tick before advancing time, avoiding racy lockstep.
func (v *Virtual) WaitForWaiters(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.blocked < n {
		v.cond.Wait()
	}
}

// PendingWaiters reports how many goroutines are currently parked on this
// clock.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.blocked
}
