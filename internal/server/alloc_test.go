package server

import (
	"io"
	"net"
	"testing"
	"time"

	"montage/internal/memtext"
)

// allocConn builds a conn wired to a drained pipe whose ingest path the
// test drives directly: requests are appended to the input buffer and
// consumed by ingest, responses drained from the write queue by hand.
// This measures exactly the serving hot path — tokenize, dispatch,
// kvstore, response render, enqueue, batch pop — with no goroutine
// scheduling noise.
func allocConn(t testing.TB, s *Server) *conn {
	t.Helper()
	cl, sv := net.Pipe()
	go io.Copy(io.Discard, cl)
	t.Cleanup(func() { cl.Close(); sv.Close() })
	return s.newConn(sv, 0)
}

// step feeds one request through ingest and drains the response queue.
func (c *conn) step(t testing.TB, req []byte) {
	c.in = append(c.in, req...)
	if err := c.ingest(0); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	c.wmu.Lock()
	c.popReadyLocked()
	c.wmu.Unlock()
	for i, p := range c.batch {
		releasePending(p)
		c.batch[i] = nil
	}
}

// TestAllocsGetSteadyState pins the tentpole claim: a steady-state get
// on the montage backend allocates nothing — the key is borrowed from
// the read buffer, the value is rendered from a borrowed view into a
// pooled response buffer, and the pending is recycled.
func TestAllocsGetSteadyState(t *testing.T) {
	// A long epoch keeps the background advancer quiet during the
	// measurement window (its own allocations are not the hot path).
	s := newTestServer(t, Config{EpochLength: 10 * time.Second})
	c := allocConn(t, s)

	c.step(t, []byte("set k 7 0 10\r\nvalue-data\r\n"))
	req := []byte("get k\r\n")
	c.step(t, req) // warm pools, scratch, token slice

	allocs := testing.AllocsPerRun(200, func() {
		c.step(t, req)
	})
	if allocs != 0 {
		t.Fatalf("steady-state get allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocsSetSteadyState pins the set side on the dram backend, where
// an overwrite updates the stored value in place. (A montage set
// inherently allocates: it creates a fresh persistent payload block per
// update by design.)
func TestAllocsSetSteadyState(t *testing.T) {
	s := newTestServer(t, Config{Backend: "dram", EpochLength: 10 * time.Second})
	c := allocConn(t, s)

	req := []byte("set k 7 0 10\r\nvalue-data\r\n")
	c.step(t, req) // insert + warm scratch
	c.step(t, req) // first overwrite

	allocs := testing.AllocsPerRun(200, func() {
		c.step(t, req)
	})
	if allocs != 0 {
		t.Fatalf("steady-state set allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkParse measures the zero-alloc tokenizer + storage-header
// parse in isolation; `-benchmem` in CI gates it at 0 allocs/op.
func BenchmarkParse(b *testing.B) {
	line := []byte("set some:bench:key:123 42 0 100 noreply")
	var tok [][]byte
	var sa storageArgs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok = memtext.AppendFields(tok[:0], line)
		if _, err := parseStorageFields(tok[1:], false, &sa); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeGet measures the full single-connection ingest path.
func BenchmarkServeGet(b *testing.B) {
	s, err := New(Config{
		ArenaSize:   1 << 24,
		Buckets:     256,
		MaxConns:    4,
		EpochLength: 10 * time.Second,
		MaxItemSize: 64 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	cl, sv := net.Pipe()
	go io.Copy(io.Discard, cl)
	defer cl.Close()
	c := s.newConn(sv, 0)

	drain := func() {
		c.wmu.Lock()
		c.popReadyLocked()
		c.wmu.Unlock()
		for i, p := range c.batch {
			releasePending(p)
			c.batch[i] = nil
		}
	}
	c.in = append(c.in, "set k 7 0 10\r\nvalue-data\r\n"...)
	if err := c.ingest(0); err != nil {
		b.Fatal(err)
	}
	drain()
	req := []byte("get k\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.in = append(c.in, req...)
		if err := c.ingest(0); err != nil {
			b.Fatal(err)
		}
		drain()
	}
}
