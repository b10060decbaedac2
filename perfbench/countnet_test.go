package main

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// TestCountingListenerCountsLoopbackExchange drives a known ping-pong over
// loopback and checks the server-side byte and call counts exactly. Each
// message is sent only after the previous reply has arrived, so every
// server Read returns exactly one message.
func TestCountingListenerCountsLoopbackExchange(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := newCountingListener(inner)
	defer cl.Close()
	start := time.Now()

	served := make(chan error, 1)
	go func() {
		c, err := cl.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		served <- func() error {
			buf := make([]byte, 7)
			if _, err := c.Read(buf[:5]); err != nil { // "hello"
				return err
			}
			if _, err := c.Write([]byte("abc")); err != nil {
				return err
			}
			if _, err := c.Write([]byte("defg")); err != nil {
				return err
			}
			if _, err := c.Read(buf[:7]); err != nil { // "goodbye"
				return err
			}
			if _, err := c.Write([]byte("ok")); err != nil {
				return err
			}
			if n, err := c.Read(buf); err != io.EOF || n != 0 {
				return fmt.Errorf("read after the client closed: %d bytes, %v", n, err)
			}
			return nil
		}()
	}()

	c, err := net.Dial("tcp", cl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 7)
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, reply); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("goodbye")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, reply[:2]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	got := cl.stats()
	want := wireStats{bytesIn: 12, bytesOut: 9, reads: 3, writes: 3}
	if got.bytesIn != want.bytesIn || got.bytesOut != want.bytesOut || got.reads != want.reads || got.writes != want.writes {
		t.Fatalf("counted in=%d out=%d reads=%d writes=%d, want in=%d out=%d reads=%d writes=%d",
			got.bytesIn, got.bytesOut, got.reads, got.writes, want.bytesIn, want.bytesOut, want.reads, want.writes)
	}
	if got.lastRead.Before(start) {
		t.Fatalf("last data read at %v, before the exchange began at %v", got.lastRead, start)
	}
	if d := got.sub(got); d.bytesIn != 0 || d.reads != 0 || !d.lastRead.Equal(got.lastRead) {
		t.Fatalf("sub of itself = %+v", d)
	}
}
