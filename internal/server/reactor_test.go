package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"montage/internal/epoch"
)

// dialReactor starts the server's accept loop (once) and returns a TCP
// client plus the server-side conn the reactor serves it on. sockbuf > 0
// pins the client's receive and the server's send buffer to that size,
// so a client that stops reading fills the path after a few hundred
// kilobytes instead of the megabytes autotuning would allow.
func dialReactor(t *testing.T, s *Server, sockbuf int) (*testClient, *conn) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("reactor path is linux-only")
	}
	if s.Addr() == nil {
		if _, err := s.Listen(); err != nil {
			t.Fatal(err)
		}
		go s.Serve()
	}
	before := map[*conn]bool{}
	for _, c := range s.liveConns() {
		before[c] = true
	}
	nc, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if sockbuf > 0 {
		if err := nc.(*net.TCPConn).SetReadBuffer(sockbuf); err != nil {
			t.Fatal(err)
		}
	}
	tc := &testClient{t: t, c: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	var sc *conn
	waitFor(t, "the accepted connection", func() bool {
		for _, c := range s.liveConns() {
			if !before[c] {
				sc = c
			}
		}
		return sc != nil
	})
	if sockbuf > 0 {
		if err := sc.nc.(*net.TCPConn).SetWriteBuffer(sockbuf); err != nil {
			t.Fatal(err)
		}
	}
	return tc, sc
}

// dialStream is dialReactor's twin for the stream source: the server
// side of a loopback TCP connection is served on a streamSource, as
// every connection is off Linux, instead of going on the reactor.
func dialStream(t *testing.T, s *Server, sockbuf int) (*testClient, *conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		if sockbuf > 0 {
			nc.(*net.TCPConn).SetWriteBuffer(sockbuf)
		}
		c := s.newConn(nc)
		newStreamSource(c).start()
		accepted <- c
	}()
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if sockbuf > 0 {
		if err := nc.(*net.TCPConn).SetReadBuffer(sockbuf); err != nil {
			t.Fatal(err)
		}
	}
	sc := <-accepted
	if sc == nil {
		t.Fatal("accept failed")
	}
	return &testClient{t: t, c: nc, br: bufio.NewReaderSize(nc, 64<<10)}, sc
}

// dialer opens a served TCP connection: dialReactor or dialStream.
type dialer func(t *testing.T, s *Server, sockbuf int) (*testClient, *conn)

// TestStreamSourceWindows runs the reactor's window tests over the
// stream source: one pump and one flush serve both, so the same
// interleavings must hold on pipes and off Linux.
func TestStreamSourceWindows(t *testing.T) {
	t.Run("AckSettlesUnderRunningPump", func(t *testing.T) { ackSettlesUnderRunningPump(t, dialStream) })
	t.Run("ThrottleStall", func(t *testing.T) { throttleStall(t, dialStream) })
	t.Run("SlowReaderDoesNotHoldTheLot", func(t *testing.T) { slowReaderDoesNotHoldTheLot(t, dialStream) })
	t.Run("HangUpBehindDataClosesConn", func(t *testing.T) { hangUpBehindDataClosesConn(t, dialStream) })
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// state reads the connection's reactor flags under its lock.
func (c *conn) state() (pumping, parked, wantWrite bool, qlen int) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.pumpRunning, c.readParked, c.wantWrite, c.qlen
}

func shard0(s *Server) *epoch.Sys {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.pool.Shard(0).Epochs()
}

// TestAckSettlesUnderRunningPump: an epoch-wait ack that settles while
// the connection's pump is in the middle of a command is flushed by the
// parking-lot subscriber itself — it neither waits for the pump nor
// leaves the response for a pump that may be past its last flush — and
// the pump then finishes and releases its claim with nothing stranded.
func TestAckSettlesUnderRunningPump(t *testing.T) {
	ackSettlesUnderRunningPump(t, dialReactor)
}

func ackSettlesUnderRunningPump(t *testing.T, dial dialer) {
	// An hour-long epoch: only the test's own advances persist anything.
	s := newTestServer(t, Config{EpochLength: time.Hour})
	c, sc := dial(t, s, 0)
	c.send("durability epoch-wait\r\n")
	c.expect("OK")
	c.send("set a 0 0 1\r\nx\r\n")
	waitFor(t, "the set's ack to park", func() bool {
		return s.rec.Snapshot().Server.ParkWaiters >= 1
	})
	es := shard0(s)

	// Hold the pump inside its next command: executors take s.mu shared.
	s.mu.Lock()
	held := true
	defer func() {
		if held {
			s.mu.Unlock()
		}
	}()
	c.send("get a\r\n")
	waitFor(t, "the pump to pick up the get", func() bool {
		pumping, _, _, _ := sc.state()
		return pumping
	})

	es.Advance()
	es.Advance() // a's epoch is durable: the lot subscriber settles its ack
	c.expect("STORED")
	if pumping, _, _, _ := sc.state(); !pumping {
		t.Fatal("the pump was not running when the ack arrived: the window was not exercised")
	}

	held = false
	s.mu.Unlock()
	c.expect("VALUE a 0 1", "x", "END")
	waitFor(t, "the pump to release its claim with an empty queue", func() bool {
		pumping, _, _, qlen := sc.state()
		return !pumping && qlen == 0
	})
}

// TestThrottleStallReactor is TestThrottleStall on the reactor: a client
// pipelines more than pipelineCap commands in one burst and only then
// reads. With small responses the pump's own flush drains the queue and
// the pump carries on without ever parking; with large ones the socket
// fills, the pump parks, and the poller's flush on the writable edge
// resumes it. Either way every command is answered.
func TestThrottleStallReactor(t *testing.T) { throttleStall(t, dialReactor) }

func throttleStall(t *testing.T, dial dialer) {
	const n = pipelineCap + 40
	for _, big := range []bool{false, true} {
		name := "own-flush"
		if big {
			name = "parked-on-socket"
		}
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			c, sc := dial(t, s, 64<<10)
			if big {
				// A full pipeline of 8 KB responses is 2 MB: several times
				// what the path can hold.
				c.send("set k 0 0 %d\r\n%s\r\n", 8<<10, strings.Repeat("v", 8<<10))
				c.expect("STORED")
			}
			c.send("%s", strings.Repeat("get k\r\n", n))
			if big {
				waitFor(t, "the pump to park behind a full socket", func() bool {
					_, parked, wantWrite, _ := sc.state()
					return parked && wantWrite
				})
			}
			got := 0
			for got < n {
				if c.line() == "END" {
					got++
				}
			}
			waitFor(t, "the pump to go idle", func() bool {
				pumping, parked, _, qlen := sc.state()
				return !pumping && !parked && qlen == 0
			})
		})
	}
}

// TestSlowReaderDoesNotHoldTheLot: a client that stops reading leaves
// the parking-lot subscriber's flush parked on EAGAIN, not blocked in
// it, so the acks of every other connection released by the same tick
// still go out; when the slow client reads again, the writable edge
// finishes its queue.
func TestSlowReaderDoesNotHoldTheLot(t *testing.T) {
	slowReaderDoesNotHoldTheLot(t, dialReactor)
}

func slowReaderDoesNotHoldTheLot(t *testing.T, dial dialer) {
	s := newTestServer(t, Config{EpochLength: time.Hour})
	slow, sc := dial(t, s, 64<<10)
	const gets = 200 // x 8 KB = 1.6 MB behind one parked ack
	slow.send("set big 0 0 %d\r\n%s\r\n", 8<<10, strings.Repeat("v", 8<<10))
	slow.expect("STORED")
	slow.send("durability epoch-wait\r\n")
	slow.expect("OK")
	var req bytes.Buffer
	req.WriteString("set x 0 0 1\r\nx\r\n")
	for i := 0; i < gets; i++ {
		req.WriteString("get big\r\n")
	}
	slow.send("%s", req.String())
	waitFor(t, "the slow client's pipeline to queue behind its parked ack", func() bool {
		_, _, _, qlen := sc.state()
		return qlen == gets+1
	})

	other, _ := dial(t, s, 0)
	other.send("durability epoch-wait\r\n")
	other.expect("OK")
	other.send("set y 0 0 1\r\ny\r\n")
	waitFor(t, "both acks to park", func() bool {
		return s.rec.Snapshot().Server.ParkWaiters >= 2
	})

	es := shard0(s)
	es.Advance()
	es.Advance()
	// Registered after the slow connection, so fired after it: this ack
	// arrives only if the subscriber came back from the slow flush.
	other.expect("STORED")
	// The transport's buffers may still be filling (a stream source's
	// writer takes one buffer-full per edge): the slow queue must end up
	// parked, not merely be parked at this instant.
	waitFor(t, "the slow connection to park on a full transport", func() bool {
		_, _, wantWrite, qlen := sc.state()
		return wantWrite && qlen > 0
	})

	slow.expect("STORED")
	for i := 0; i < gets; i++ {
		slow.expect(fmt.Sprintf("VALUE big 0 %d", 8<<10))
		slow.line() // the value
		slow.expect("END")
	}
	waitFor(t, "the slow connection's queue to drain", func() bool {
		_, _, wantWrite, qlen := sc.state()
		return !wantWrite && qlen == 0
	})
}

// TestSyncGroupCommitUnderPersistDelay guards the surplus rule. With an
// emulated 1 ms persist latency a sync ack sleeps through two advances,
// so one connection cannot pass ~500 ops/s; several connections pass it
// only if their Syncs overlap and share advances (group commit through
// advMu). A reactor that served every connection serially on the poller
// would hold eight connections at the one-connection rate.
func TestSyncGroupCommitUnderPersistDelay(t *testing.T) {
	s := newTestServer(t, Config{
		MaxConns:     16,
		EpochLength:  10 * time.Millisecond,
		PersistDelay: time.Millisecond,
	})
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	rate := func(conns int) float64 {
		res, err := RunLoad(LoadConfig{
			Addr: s.Addr().String(), Conns: conns, Duration: time.Second,
			Records: 64, Mode: AckSync, ReadFrac: 0,
		})
		if err != nil || res.Errors != 0 {
			t.Fatalf("load with %d connections: %v %+v", conns, err, res)
		}
		return res.OpsPerSec
	}
	one, eight := rate(1), rate(8)
	t.Logf("sync acks at 1 ms persist delay: %.0f ops/s on 1 connection, %.0f on 8", one, eight)
	if eight < 1.3*one {
		t.Fatalf("8 connections reach %.0f ops/s, 1 connection %.0f: syncs are not overlapping", eight, one)
	}
}

// TestHangUpBehindDataClosesConn: a client sends a request and
// half-closes while the poller is busy, so data and FIN reach the pump
// as one readable edge. The short read answers the request; because the
// edge carried the hang-up, the pump must read on to EOF and close — no
// later edge would ever report the FIN, and the connection would stay
// open for good.
func TestHangUpBehindDataClosesConn(t *testing.T) {
	hangUpBehindDataClosesConn(t, dialReactor)
}

func hangUpBehindDataClosesConn(t *testing.T, dial dialer) {
	s := newTestServer(t, Config{})
	busy, bc := dial(t, s, 0)
	c, _ := dial(t, s, 0)

	// Park the poller inside busy's get: executors take s.mu shared.
	s.mu.Lock()
	busy.send("get k\r\n")
	waitFor(t, "the poller to pick up the blocking get", func() bool {
		pumping, _, _, _ := bc.state()
		return pumping
	})
	c.send("get k\r\n")
	if err := c.c.(*net.TCPConn).CloseWrite(); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // both segments are in the socket
	s.mu.Unlock()

	busy.expect("END")
	c.expect("END")
	c.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("after the reply to a half-closed client: %v, want EOF", err)
	}
}
