package main

import (
	"net"
	"sync/atomic"
)

// wireCount counts Write calls and bytes on one direction of the control
// connections. It counts only while on is set, so a traced pass can count
// the cycles it traces and leave the others alone.
type wireCount struct {
	on     *atomic.Bool
	writes atomic.Int64
	bytes  atomic.Int64
}

// countingConn is a net.Conn whose writes are counted. Deadlines and
// reads pass through the embedded connection.
type countingConn struct {
	net.Conn
	c *wireCount
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.c.on.Load() {
		c.c.writes.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

// countingListener hands out counting connections: everything the
// manager writes to its endpoints goes through one.
type countingListener struct {
	net.Listener
	c *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.c}, nil
}
