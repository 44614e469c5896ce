package core

import (
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestDriveCompletesSleepingWork(t *testing.T) {
	v := clock.NewVirtual(t0)
	var ticks atomic.Int64
	start := time.Now()
	Drive(v, func() {
		for i := 0; i < 500; i++ {
			v.Sleep(time.Second)
			ticks.Add(1)
		}
	})
	if got := ticks.Load(); got != 500 {
		t.Errorf("ticks = %d, want 500", got)
	}
	if elapsed := v.Now().Sub(t0); elapsed != 500*time.Second {
		t.Errorf("virtual elapsed = %v", elapsed)
	}
	if real := time.Since(start); real > 30*time.Second {
		t.Errorf("Drive took %v of real time for 500 virtual seconds", real)
	}
}

func TestDriveHandlesConcurrentSleepers(t *testing.T) {
	v := clock.NewVirtual(t0)
	var done atomic.Int64
	Drive(v, func() {
		ch := make(chan struct{})
		for g := 0; g < 10; g++ {
			go func(g int) {
				for i := 0; i < 50; i++ {
					v.Sleep(time.Duration(g+1) * 100 * time.Millisecond)
				}
				done.Add(1)
				ch <- struct{}{}
			}(g)
		}
		for g := 0; g < 10; g++ {
			<-ch
		}
	})
	if got := done.Load(); got != 10 {
		t.Errorf("finished sleepers = %d, want 10", got)
	}
}

func TestDriveReturnsImmediatelyForFastFn(t *testing.T) {
	v := clock.NewVirtual(t0)
	ran := false
	Drive(v, func() { ran = true })
	if !ran {
		t.Error("fn did not run")
	}
}

// spin burns real time without blocking, the way a goroutine looks to
// Drive while the host has its thread descheduled.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// ticker keeps a waiter pending every 10 virtual milliseconds, so a
// driver that steps too early visibly moves the clock.
func ticker(v *clock.Virtual, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-v.After(10 * time.Millisecond):
		}
	}
}

func TestDriveWaitsForSlowReactions(t *testing.T) {
	v := clock.NewVirtual(t0)
	var late atomic.Int64
	Drive(v, func() {
		stop := make(chan struct{})
		go ticker(v, stop)
		for i := 1; i <= 20; i++ {
			v.Sleep(time.Second)
			spin(2 * time.Millisecond)
			if got := v.Now().Sub(t0); got != time.Duration(i)*time.Second {
				late.Add(1)
			}
		}
		close(stop)
	})
	if n := late.Load(); n > 0 {
		t.Errorf("clock moved during %d of 20 reactions", n)
	}
}

func TestDriveWaitsForPipeFrames(t *testing.T) {
	v := clock.NewVirtual(t0)
	var late atomic.Int64
	Drive(v, func() {
		stop := make(chan struct{})
		go ticker(v, stop)
		a, b := pipe(v)
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			var frame [8]byte
			for {
				if _, err := io.ReadFull(b, frame[:]); err != nil {
					return
				}
				spin(2 * time.Millisecond)
				if got := v.Now().Sub(t0); got != time.Duration(frame[0])*time.Second {
					late.Add(1)
				}
			}
		}()
		for i := 1; i <= 20; i++ {
			v.Sleep(time.Second)
			if _, err := a.Write([]byte{byte(i), 0, 0, 0, 0, 0, 0, 0}); err != nil {
				t.Error(err)
				break
			}
		}
		a.Close()
		<-handled
		b.Close()
		close(stop)
	})
	if n := late.Load(); n > 0 {
		t.Errorf("clock moved while %d of 20 frames were handled", n)
	}
}

func TestDriveSurvivesAbandonedWaits(t *testing.T) {
	// A goroutine that leaves a wait for another event strands a waiter
	// that later fires into nobody's channel; Drive must still settle,
	// and the abandoned waits must not delay the real ones.
	v := clock.NewVirtual(t0)
	Drive(v, func() {
		for i := 0; i < 20; i++ {
			wake := make(chan struct{})
			go func() {
				v.Sleep(250 * time.Millisecond)
				close(wake)
			}()
			select {
			case <-wake:
			case <-v.After(500 * time.Millisecond):
				t.Error("abandoned wait won")
			}
			v.Sleep(time.Second)
		}
	})
	if got := v.Now().Sub(t0); got != 25*time.Second {
		t.Errorf("virtual elapsed = %v, want 25s", got)
	}
}
