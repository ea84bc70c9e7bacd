package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"montage/internal/memtext"
)

// newTestServer builds a small montage-backed server (no listener; the
// tests drive serveConn — the stream source — directly over pipes
// unless they Listen themselves).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.ArenaSize == 0 {
		cfg.ArenaSize = 1 << 24
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 256
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 4
	}
	if cfg.EpochLength == 0 {
		cfg.EpochLength = time.Millisecond
	}
	if cfg.MaxItemSize == 0 {
		cfg.MaxItemSize = 64 << 10
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(time.Second) })
	return s
}

// testClient drives one serveConn over an in-memory pipe.
type testClient struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
	wg sync.WaitGroup
}

func dialPipe(t *testing.T, s *Server) *testClient {
	t.Helper()
	cl, sv := net.Pipe()
	tc := &testClient{t: t, c: cl, br: bufio.NewReader(cl)}
	tc.wg.Add(1)
	go func() {
		defer tc.wg.Done()
		s.serveConn(sv)
	}()
	t.Cleanup(func() {
		cl.Close()
		tc.wg.Wait()
	})
	return tc
}

func (tc *testClient) send(format string, args ...interface{}) {
	tc.t.Helper()
	if _, err := io.WriteString(tc.c, fmt.Sprintf(format, args...)); err != nil {
		tc.t.Fatalf("send: %v", err)
	}
}

func (tc *testClient) line() string {
	tc.t.Helper()
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := tc.br.ReadString('\n')
	if err != nil {
		tc.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

func (tc *testClient) expect(want ...string) {
	tc.t.Helper()
	for _, w := range want {
		if got := tc.line(); got != w {
			tc.t.Fatalf("got %q, want %q", got, w)
		}
	}
}

func TestSetGetDelete(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	c.send("set greet 42 0 5\r\nhello\r\n")
	c.expect("STORED")
	c.send("get greet\r\n")
	c.expect("VALUE greet 42 5", "hello", "END")
	c.send("get missing\r\n")
	c.expect("END")
	c.send("get greet missing greet\r\n")
	c.expect("VALUE greet 42 5", "hello", "VALUE greet 42 5", "hello", "END")
	c.send("delete greet\r\n")
	c.expect("DELETED")
	c.send("delete greet\r\n")
	c.expect("NOT_FOUND")
	c.send("get greet\r\n")
	c.expect("END")
}

func TestAddReplaceCASOverWire(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	c.send("add k 0 0 2\r\nv1\r\n")
	c.expect("STORED")
	c.send("add k 0 0 2\r\nv2\r\n")
	c.expect("NOT_STORED")
	c.send("replace k 0 0 2\r\nv3\r\n")
	c.expect("STORED")
	c.send("replace missing 0 0 1\r\nx\r\n")
	c.expect("NOT_STORED")

	c.send("gets k\r\n")
	head := c.line() // VALUE k 0 2 <cas>
	fields := strings.Fields(head)
	if len(fields) != 5 || fields[0] != "VALUE" {
		t.Fatalf("gets header %q", head)
	}
	cas := fields[4]
	c.expect("v3", "END")

	c.send("cas k 0 0 2 %s\r\nv4\r\n", cas)
	c.expect("STORED")
	c.send("cas k 0 0 2 %s\r\nv5\r\n", cas) // stale token
	c.expect("EXISTS")
	c.send("cas missing 0 0 1 %s\r\nx\r\n", cas)
	c.expect("NOT_FOUND")
	c.send("get k\r\n")
	c.expect("VALUE k 0 2", "v4", "END")
}

func TestNoreplyAndPipelining(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	// A pipelined burst: noreply commands produce nothing; the rest come
	// back in order.
	c.send("set a 0 0 1 noreply\r\nA\r\n" +
		"set b 0 0 1\r\nB\r\n" +
		"delete missing noreply\r\n" +
		"get a b\r\n" +
		"version\r\n")
	c.expect("STORED",
		"VALUE a 0 1", "A", "VALUE b 0 1", "B", "END",
		"VERSION montage/0.2")
}

func TestTouchAndExpiry(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	// Negative exptime stores the item already expired.
	c.send("set dead 0 -1 1\r\nx\r\n")
	c.expect("STORED")
	c.send("get dead\r\n")
	c.expect("END")

	c.send("set live 0 3600 1\r\ny\r\n")
	c.expect("STORED")
	c.send("touch live 7200\r\n")
	c.expect("TOUCHED")
	c.send("touch missing 60\r\n")
	c.expect("NOT_FOUND")
	c.send("get live\r\n")
	c.expect("VALUE live 0 1", "y", "END")
}

func TestDurabilityModes(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	c.send("durability\r\n")
	c.expect("DURABILITY buffered")
	c.send("durability sync\r\n")
	c.expect("OK")
	c.send("set k 0 0 1\r\nv\r\n")
	c.expect("STORED")
	c.send("durability epoch-wait\r\n")
	c.expect("OK")
	c.send("set k 0 0 1\r\nw\r\n")
	c.expect("STORED") // parked until the 1ms epoch clock persists it
	c.send("durability bogus\r\n")
	c.expect("CLIENT_ERROR unknown durability mode \"bogus\" (want buffered, sync, or epoch-wait)")

	snap := s.Recorder().Snapshot()
	if snap.Server.AcksSync != 1 || snap.Server.AcksEpoch != 1 {
		t.Fatalf("ack counters sync=%d epoch=%d", snap.Server.AcksSync, snap.Server.AcksEpoch)
	}
	if snap.Latency.AckSyncNs.Count != 1 || snap.Latency.AckEpochNs.Count != 1 {
		t.Fatalf("ack histograms sync=%d epoch=%d",
			snap.Latency.AckSyncNs.Count, snap.Latency.AckEpochNs.Count)
	}
}

func TestProtocolErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	c.send("bogus\r\n")
	c.expect("ERROR")
	c.send("set k notanumber 0 1\r\n")
	c.expect("CLIENT_ERROR bad flags")
	c.send("set %s 0 0 1\r\nx\r\n", strings.Repeat("k", 300))
	// The header was rejected before its length was trusted, so the body
	// line "x" falls through as an unknown command.
	c.expect("CLIENT_ERROR bad key", "ERROR")
	c.send("get\r\n")
	c.expect("CLIENT_ERROR bad command line format")
	// Torn body: terminator missing. The connection stays up; the spilled
	// bytes fail as commands.
	c.send("set k 0 0 2\r\nvvNOPE\r\n")
	c.expect("CLIENT_ERROR bad data chunk")
	c.send("version\r\n")
	// The dangling "PE\r\n" (2 body bytes + 2 terminator bytes were
	// consumed) parses as an unknown command first.
	c.expect("ERROR", "VERSION montage/0.2")

	if snap := s.Recorder().Snapshot(); snap.Server.ProtoErrors < 4 {
		t.Fatalf("proto errors = %d, want >= 4", snap.Server.ProtoErrors)
	}
}

func TestOversizedValue(t *testing.T) {
	s := newTestServer(t, Config{MaxItemSize: 1024})
	c := dialPipe(t, s)

	big := strings.Repeat("x", 2048)
	c.send("set k 0 0 2048\r\n%s\r\n", big)
	c.expect("SERVER_ERROR object too large for cache")
	// The body was swallowed: the connection is still framed.
	c.send("set k 0 0 2\r\nok\r\n")
	c.expect("STORED")
}

func TestLineTooLongClosesConn(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	// The pipe is unbuffered, so the oversized line must be written from a
	// goroutine: the server stops reading mid-line to respond.
	go io.WriteString(c.c, "get "+strings.Repeat("k ", memtext.MaxLineLen)+"\r\n")
	c.expect("SERVER_ERROR line too long")
	if _, err := c.br.ReadString('\n'); err == nil {
		t.Fatal("connection survived an unframeable line")
	}
}

func TestStatsAndFlushAll(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)

	c.send("set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\n")
	c.expect("STORED", "STORED")
	stats := c.stats()
	if stats["curr_items"] != "2" {
		t.Fatalf("curr_items = %q", stats["curr_items"])
	}
	if stats["backend"] != "montage" || stats["durability"] != "buffered" {
		t.Fatalf("backend=%q durability=%q", stats["backend"], stats["durability"])
	}
	if stats["epoch"] == "" || stats["persisted_epoch"] == "" {
		t.Fatal("missing epoch watermarks in stats")
	}
	c.send("flush_all\r\n")
	c.expect("OK")
	c.send("get a b\r\n")
	c.expect("END")
}

func TestTransientBackendDegradesToBuffered(t *testing.T) {
	s := newTestServer(t, Config{Backend: "dram"})
	c := dialPipe(t, s)

	c.send("durability sync\r\n")
	c.expect("OK")
	c.send("set k 0 0 1\r\nv\r\n")
	c.expect("STORED")
	c.send("get k\r\n")
	c.expect("VALUE k 0 1", "v", "END")
	// No epochs behind a transient backend: no sync acks were recorded.
	if got := s.Recorder().Snapshot().Server.AcksSync; got != 0 {
		t.Fatalf("transient backend recorded %d sync acks", got)
	}
}

func TestQuitAndTCPServe(t *testing.T) {
	s := newTestServer(t, Config{})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()

	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	io.WriteString(nc, "set k 0 0 1\r\nv\r\nquit\r\n")
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
		t.Fatalf("over TCP: %q %v", line, err)
	}
	// quit closes the connection server-side.
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("connection survived quit")
	}
	nc.Close()

	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}
