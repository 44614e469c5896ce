package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

// spin burns real time without blocking.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func TestSettleWaitsForItsWorld(t *testing.T) {
	v := NewVirtual(epoch)
	var finished atomic.Bool
	block := make(chan struct{})
	defer close(block)
	go func() {
		spin(20 * time.Millisecond)
		finished.Store(true)
		<-block
	}()
	v.Settle(nil)
	if !finished.Load() {
		t.Error("Settle returned while a goroutine of its world was running")
	}
}

func TestSettleIgnoresGoroutinesOutsideItsWorld(t *testing.T) {
	// The spinner is the driver's sibling, not its descendant.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	settled := make(chan struct{})
	go func() {
		v := NewVirtual(epoch)
		v.Settle(nil)
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("Settle waited on a goroutine outside its world")
	}
}

func TestSettleReturnsWhenDone(t *testing.T) {
	v := NewVirtual(epoch)
	stop := make(chan struct{})
	defer close(stop)
	go func() { // never blocks
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	done := make(chan struct{})
	close(done)
	v.Settle(done)
}
