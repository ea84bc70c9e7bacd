package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNegativeExptime covers the satellite bugfix: memcached semantics
// say a negative exptime means "stored but immediately expired", and the
// old expiryFor treated every ttl <= 0 as "never expires".
func TestNegativeExptime(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s, 0)

	c.send("set doomed 0 -1 5\r\nhello\r\n")
	c.expect("STORED")
	c.send("get doomed\r\n")
	c.expect("END")

	c.send("set touched 0 0 5\r\nhello\r\n")
	c.expect("STORED")
	c.send("get touched\r\n")
	c.expect("VALUE touched 0 5", "hello", "END")
	c.send("touch touched -1\r\n")
	c.expect("TOUCHED")
	c.send("get touched\r\n")
	c.expect("END")

	// An absolute unix exptime in the past (above the 30-day relative
	// cutoff) expires the same way. 1000000000 is 2001-09-09.
	c.send("set past 0 1000000000 5\r\nhello\r\n")
	c.expect("STORED")
	c.send("get past\r\n")
	c.expect("END")
}

// TestDeadSocketUnderParkedAcks covers the satellite teardown fix: a
// connection that dies while epoch-wait acks are parked on the shard lot
// must cancel its lot slots and count the lost acks as aborted — not
// keep the (dead) connection in the lot's fan-out for whole epochs, and
// not leak the teardown into a hang.
func TestDeadSocketUnderParkedAcks(t *testing.T) {
	// An hour-long epoch guarantees the parked acks cannot resolve
	// naturally during the test: only cancellation can settle them.
	s := newTestServer(t, Config{EpochLength: time.Hour})
	cl, sv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveConn(sv, 0)
	}()
	br := bufio.NewReader(cl)
	send := func(format string, args ...interface{}) {
		t.Helper()
		if _, err := fmt.Fprintf(cl, format, args...); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send("durability epoch_wait\r\n")
	cl.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := br.ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
		t.Fatalf("durability: %q %v", line, err)
	}

	const parked = 3
	for i := 0; i < parked; i++ {
		send("set k%d 0 0 1\r\nx\r\n", i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.rec.Snapshot().Server.ParkWaiters < parked {
		if time.Now().After(deadline) {
			t.Fatalf("acks never parked: %d/%d", s.rec.Snapshot().Server.ParkWaiters, parked)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the transport under the server (read error, not clean EOF).
	sv.Close()
	cl.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serveConn hung on a dead socket with parked acks")
	}

	snap := s.rec.Snapshot()
	if snap.Server.AcksAborted != parked {
		t.Fatalf("acks_aborted = %d, want %d", snap.Server.AcksAborted, parked)
	}
	if snap.Server.AcksEpoch != 0 {
		t.Fatalf("acks_epoch_wait = %d, want 0 (epoch never persisted)", snap.Server.AcksEpoch)
	}
}

// TestCrashDuringNoreplyPipeline covers the satellite framing fix: when
// a crash aborts parked epoch-wait acks, the crash-lost response may
// only replace a pending that actually carries response bytes. A
// noreply write never enqueues a response at all, so a pipeline mixing
// noreply and replied writes must stay perfectly framed across a crash.
func TestCrashDuringNoreplyPipeline(t *testing.T) {
	s := newTestServer(t, Config{AllowCrash: true, EpochLength: time.Hour})
	c := dialPipe(t, s, 0)

	c.send("durability epoch_wait\r\n")
	c.expect("OK")
	// Pipeline: two noreply sets (no responses), one replied set (parks),
	// then crash. The replied set's ack aborts into CRASH_LOST; the
	// noreply sets must contribute nothing to the response stream.
	c.send("set a 0 0 1 noreply\r\nx\r\nset b 0 0 1\r\ny\r\nset c 0 0 1 noreply\r\nz\r\ncrash\r\nversion\r\n")
	c.expect(
		"SERVER_ERROR crash: write may not be durable", // set b, aborted by the crash
		"OK",                  // crash
		"VERSION montage/0.2", // framing intact after the pipeline
	)
}

// TestConnChurnFlusherPool churns ~1k short-lived TCP connections
// through the reactor (poller, surplus workers, inline flushes)
// concurrently — the race detector's view of accept/pump/flush/teardown
// interleavings.
func TestConnChurnFlusherPool(t *testing.T) {
	s := newTestServer(t, Config{MaxConns: 2048, EpochLength: time.Millisecond})
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	addr := s.Addr().String()

	const (
		workers = 32
		perConn = 32 // conns each worker opens sequentially
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					errs <- fmt.Errorf("dial: %w", err)
					return
				}
				nc.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(nc)
				key := fmt.Sprintf("k%d-%d", w, i)
				fmt.Fprintf(nc, "set %s 0 0 5\r\nhello\r\nget %s\r\n", key, key)
				for _, want := range []string{"STORED", "VALUE " + key + " 0 5", "hello", "END"} {
					line, err := br.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("conn %s: read: %w", key, err)
						nc.Close()
						return
					}
					if got := strings.TrimRight(line, "\r\n"); got != want {
						errs <- fmt.Errorf("conn %s: got %q, want %q", key, got, want)
						nc.Close()
						return
					}
				}
				// Half quit cleanly, half just hang up.
				if i%2 == 0 {
					fmt.Fprintf(nc, "quit\r\n")
				}
				nc.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGoroutineCountBounded pins the tentpole scaling claim: idle
// connections cost no goroutines on the reactor path — the server's
// goroutine count scales with cores, not connections.
func TestGoroutineCountBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reactor path is linux-only")
	}
	s := newTestServer(t, Config{MaxConns: 1024, EpochLength: 10 * time.Millisecond})
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	addr := s.Addr().String()

	base := runtime.NumGoroutine()
	const conns = 500
	open := make([]net.Conn, 0, conns)
	defer func() {
		for _, nc := range open {
			nc.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		open = append(open, nc)
	}
	// Prove they are live served connections, not just SYN backlog.
	nc := open[0]
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	fmt.Fprintf(nc, "version\r\n")
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version over reactor conn: %q %v", line, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.rec.Snapshot()
		if snap.Server.Conns-snap.Server.ConnsClosed >= conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d conns registered", snap.Server.Conns-snap.Server.ConnsClosed)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Budget: the surplus workers (≤16), the poller, and slack for epoch
	// daemons — nothing per connection.
	grew := runtime.NumGoroutine() - base
	if grew > 64 {
		t.Fatalf("%d idle conns grew goroutines by %d (want O(cores), ≤64)", conns, grew)
	}
}

// TestThrottleStall pins the blocking driver's resume after a throttle:
// a client pipelines more than pipelineCap commands in one burst and then
// only reads. The commands left buffered when ingest throttled must run
// once the queue drains, without waiting for socket input that will
// never come.
func TestThrottleStall(t *testing.T) {
	srv := newTestServer(t, Config{})
	cl, sv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(sv, 0)
	}()
	const n = pipelineCap + 40
	var req bytes.Buffer
	for i := 0; i < n; i++ {
		req.WriteString("get k\r\n")
	}
	go cl.Write(req.Bytes())
	br := bufio.NewReader(cl)
	got := 0
	errc := make(chan error, 1)
	go func() {
		for got < n {
			_, err := br.ReadString('\n')
			if err != nil {
				errc <- err
				return
			}
			got++
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("read error after %d responses: %v", got, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("stalled: got %d of %d responses", got, n)
	}
	cl.Close()
	<-done
}
