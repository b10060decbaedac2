package main

import (
	"net"
	"sync/atomic"
	"time"
)

// countingListener wraps the listener handed to cloudsim.NewServerConfig
// and counts, over every accepted connection, the bytes and the Read and
// Write calls the server makes.
type countingListener struct {
	net.Listener
	c wireCounters
}

type wireCounters struct {
	bytesIn, bytesOut, reads, writes atomic.Int64
	lastRead                         atomic.Int64 // unix nanos of the last Read that returned data
}

func newCountingListener(l net.Listener) *countingListener {
	return &countingListener{Listener: l}
}

// Accept wraps each connection in a countingConn.
func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, c: &l.c}, nil
}

// wireStats is a snapshot of the counters.
type wireStats struct {
	bytesIn, bytesOut, reads, writes int64
	lastRead                         time.Time
}

func (l *countingListener) stats() wireStats {
	return wireStats{
		bytesIn:  l.c.bytesIn.Load(),
		bytesOut: l.c.bytesOut.Load(),
		reads:    l.c.reads.Load(),
		writes:   l.c.writes.Load(),
		lastRead: time.Unix(0, l.c.lastRead.Load()),
	}
}

// sub returns the counts since base; lastRead stays absolute.
func (s wireStats) sub(base wireStats) wireStats {
	return wireStats{
		bytesIn:  s.bytesIn - base.bytesIn,
		bytesOut: s.bytesOut - base.bytesOut,
		reads:    s.reads - base.reads,
		writes:   s.writes - base.writes,
		lastRead: s.lastRead,
	}
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	if n > 0 {
		c.c.bytesIn.Add(int64(n))
		c.c.lastRead.Store(time.Now().UnixNano())
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytesOut.Add(int64(n))
	return n, err
}
