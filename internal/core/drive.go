package core

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Drive runs fn while advancing the virtual clock v, firing each pending
// deadline in order until fn returns. Before every firing it waits for
// the emulated world to settle (clock.Virtual.Settle): every goroutine
// the caller started, fn's and the cluster's included, is blocked. A
// component that wakes at virtual time T therefore finishes its work,
// frames it exchanges with other tiers included, and schedules its next
// wait before the clock moves past T, however the host schedules
// threads. Call NewCluster from the goroutine that calls Drive.
//
// Drive is how hour-long cluster experiments (§6.3) run in seconds of
// wall time.
func Drive(v *clock.Virtual, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	for {
		v.Settle(done)
		select {
		case <-done:
			return
		default:
		}
		if !v.Step() {
			// Settled with nothing on the clock: the world waits on
			// something outside virtual time.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// pipe returns the two ends of an in-process connection. On a virtual
// clock both ends report their traffic to it as Busy work, which Settle
// needs to know a frame is still being handled.
func pipe(clk clock.Clock) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	v, ok := clk.(*clock.Virtual)
	if !ok {
		return a, b
	}
	return &pacedConn{Conn: a, v: v}, &pacedConn{Conn: b, v: v}
}

// pacedConn counts a pipe end's traffic as Busy work: each byte from
// Write until a Read takes it, and the reader from the Read that returns
// data until its next Read or Close, the time it spends handling it.
type pacedConn struct {
	net.Conn
	v       *clock.Virtual
	holding atomic.Bool
}

func (c *pacedConn) Write(p []byte) (int, error) {
	c.v.Busy(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.v.Busy(-int64(len(p) - n)) // bytes no reader will take
	return n, err
}

func (c *pacedConn) Read(p []byte) (int, error) {
	c.release()
	n, err := c.Conn.Read(p)
	if n > 0 {
		// One update, so the count never dips to zero between the
		// bytes leaving the pipe and the reader owning them.
		c.holding.Store(true)
		c.v.Busy(1 - int64(n))
	}
	return n, err
}

func (c *pacedConn) Close() error {
	c.release()
	return c.Conn.Close()
}

func (c *pacedConn) release() {
	if c.holding.CompareAndSwap(true, false) {
		c.v.Busy(-1)
	}
}
