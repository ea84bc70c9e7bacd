package server

import (
	"testing"
	"time"

	"montage/internal/memtext"
)

// discard is a source that takes every byte at once: flush runs its
// whole path — batch, writev, pop, release — with no transport behind it.
type discard struct{}

func (discard) start()                   {}
func (discard) read([]byte) (int, error) { return 0, errAgain }
func (discard) writev(bufs [][]byte) (int, error) {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	return n, nil
}
func (discard) rearm() {}
func (discard) sever() {}
func (discard) close() {}

// allocConn builds a conn over a discard source whose ingest path the
// test drives directly: requests are appended to the input buffer and
// consumed by ingest, responses flushed into the discard source. This
// measures exactly the serving hot path — tokenize, dispatch, kvstore,
// response render, enqueue, flush — with no goroutine scheduling noise.
func allocConn(s *Server) *conn {
	c := s.newConn(nil)
	c.src = discard{}
	return c
}

// step feeds one request through ingest and flushes the responses.
func (c *conn) step(t testing.TB, req []byte) {
	c.in = append(c.in, req...)
	if err := c.ingest(0); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	c.flush()
}

// TestAllocsGetSteadyState pins the tentpole claim: a steady-state get
// on the montage backend allocates nothing — the key is borrowed from
// the read buffer, the value is rendered from a borrowed view into a
// pooled response buffer, and the pending is recycled.
func TestAllocsGetSteadyState(t *testing.T) {
	// A long epoch keeps the background advancer quiet during the
	// measurement window (its own allocations are not the hot path).
	s := newTestServer(t, Config{EpochLength: 10 * time.Second})
	c := allocConn(s)

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
	c := allocConn(s)

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
	var h memtext.Storage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok = memtext.AppendFields(tok[:0], line)
		if _, err := memtext.ParseStorage(tok[1:], false, &h); err != nil {
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
	c := allocConn(s)
	c.step(b, []byte("set k 7 0 10\r\nvalue-data\r\n"))
	req := []byte("get k\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step(b, req)
	}
}
