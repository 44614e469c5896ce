package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestVirtualWokenSeesAdvancedTime checks that a goroutine woken by
// Advance or Step reads the time the clock moved to, not an earlier one,
// however early in the firing it runs.
func TestVirtualWokenSeesAdvancedTime(t *testing.T) {
	const n = 2000
	v := NewVirtual(epoch)
	seen := make(chan time.Time, n)
	wake := func(d time.Duration) {
		go func() {
			<-v.After(d)
			seen <- v.Now()
		}()
	}
	check := func(how string, want time.Time) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := <-seen; !got.Equal(want) {
				t.Fatalf("goroutine woken by %s read %v, want %v", how, got.Sub(epoch), want.Sub(epoch))
			}
		}
	}

	for i := 0; i < n; i++ {
		wake(time.Duration(i+1) * time.Millisecond)
	}
	v.WaitForWaiters(n)
	v.Advance(time.Hour)
	check("Advance", epoch.Add(time.Hour))

	for i := 0; i < n; i++ {
		wake(time.Second)
	}
	v.WaitForWaiters(n)
	last := v.After(2 * time.Second)
	v.Step()
	check("Step", epoch.Add(time.Hour+time.Second))
	v.Step()
	<-last
}

// TestVirtualNowNeverGoesBack races readers of Now (and of After(0))
// against Advance, Step and After. Every instant the clock moves to is a
// multiple of 10 ms; the waiters Advance fires in between are not, and no
// reader may see them, nor see time go backwards.
func TestVirtualNowNeverGoesBack(t *testing.T) {
	const tick = 10 * time.Millisecond
	v := NewVirtual(epoch)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := epoch
			for i := 0; !stop.Load(); i++ {
				now := v.Now()
				if r%2 == 1 && i%8 == 0 {
					now = <-v.After(0)
					v.After(tick) // a waiter on the grid, for Step to fire
				}
				if now.Before(last) || now.Sub(epoch)%tick != 0 {
					errs <- now.Sub(epoch).String() + " after " + last.Sub(epoch).String()
					return
				}
				last = now
			}
		}(r)
	}
	for i := 0; i < 2000 && len(errs) == 0; i++ {
		v.After(3 * time.Millisecond)
		v.After(7 * time.Millisecond)
		v.Advance(tick)
		v.After(tick)
		v.Step()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("a reader saw %s", e)
	}
}

func TestVirtualNowZeroAlloc(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(time.Second)
	if n := testing.AllocsPerRun(100, func() { _ = v.Now() }); n != 0 {
		t.Errorf("Virtual.Now allocates %v times, want 0", n)
	}
}
