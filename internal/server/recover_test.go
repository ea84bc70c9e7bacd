package server

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stats sends the stats command and returns its STAT lines.
func (tc *testClient) stats() map[string]string {
	tc.t.Helper()
	tc.send("stats\r\n")
	stats := map[string]string{}
	for {
		line := tc.line()
		if line == "END" {
			return stats
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			tc.t.Fatalf("bad stat line %q", line)
		}
		stats[f[1]] = f[2]
	}
}

// preload stores n items of 100 bytes through the store and makes them
// durable.
func preload(tb testing.TB, s *Server, n int) {
	tb.Helper()
	val := make([]byte, 104) // 4 bytes of flags, then the data
	for i := 0; i < n; i++ {
		if err := s.Store().Set(0, fmt.Sprintf("key-%012d", i), val); err != nil {
			tb.Fatal(err)
		}
	}
	s.Sync()
}

// TestCurrItemsCountsLiveKeys: curr_items comes from the hashmaps' own
// counters, so it has to follow every way a key appears or goes —
// insert, overwrite, delete, flush_all, and a crash that drops a write.
func TestCurrItemsCountsLiveKeys(t *testing.T) {
	for _, shards := range []int{1, 3} {
		// An hour-long epoch: only sync-mode acks make anything durable.
		s := newTestServer(t, Config{Shards: shards, AllowCrash: true, EpochLength: time.Hour})
		c := dialPipe(t, s, 0)
		check := func(when string, want int) {
			t.Helper()
			if got := c.stats()["curr_items"]; got != strconv.Itoa(want) || len(s.Store().Keys(0)) != want {
				t.Fatalf("%d shards, %s: curr_items %s with %d keys listed, want %d", shards, when, got, len(s.Store().Keys(0)), want)
			}
		}
		c.send("durability sync\r\n")
		c.expect("OK")
		for _, k := range []string{"a", "b", "c", "a"} {
			c.send("set %s 0 0 1\r\nx\r\n", k)
			c.expect("STORED")
		}
		check("after three inserts and an overwrite", 3)
		c.send("delete b\r\n")
		c.expect("DELETED")
		check("after a delete", 2)
		c.send("flush_all\r\n")
		c.expect("OK")
		check("after flush_all", 0)
		c.send("set d 0 0 1\r\nx\r\nset e 0 0 1\r\nx\r\n")
		c.expect("STORED", "STORED")
		c.send("durability buffered\r\n")
		c.expect("OK")
		c.send("set lost 0 0 1\r\nx\r\n")
		c.expect("STORED")
		check("before the crash", 3)
		c.send("crash\r\n")
		c.expect("OK")
		check("after the crash dropped the buffered write", 2)
	}
}

// TestRecoveryPhasesCoverCrashCommand: the four recovery counters are
// meant to name all of a crash command's time, so at a size where the
// fixed costs are small their sum is the wall time within 15 %.
func TestRecoveryPhasesCoverCrashCommand(t *testing.T) {
	s := newTestServer(t, Config{AllowCrash: true, ArenaSize: 64 << 20, Buckets: 4096})
	preload(t, s, 50000)
	c := dialPipe(t, s, 0)
	before := c.stats()
	start := time.Now()
	c.send("crash\r\n")
	c.expect("OK")
	wall := time.Since(start)
	after := c.stats()
	var named time.Duration
	for _, k := range []string{"recovery_sweep_ns", "recovery_filter_ns", "recovery_invalidate_ns", "recovery_rebuild_ns"} {
		a, _ := strconv.ParseInt(after[k], 10, 64)
		b, _ := strconv.ParseInt(before[k], 10, 64)
		if a <= b {
			t.Fatalf("%s did not move across the crash: %q -> %q", k, before[k], after[k])
		}
		named += time.Duration(a - b)
	}
	if after["curr_items"] != "50000" {
		t.Fatalf("curr_items after recovery = %s", after["curr_items"])
	}
	t.Logf("crash took %v, the four phases name %v", wall, named)
	if gap := wall - named; gap < 0 || gap > wall*15/100 {
		t.Fatalf("crash took %v, the four phases name %v: %.0f%% unaccounted, want under 15%%", wall, named, 100*float64(gap)/float64(wall))
	}
}

// BenchmarkStatsCommand: with 100 k items stored, a stats command costs
// what its forty lines of text cost — curr_items reads a counter. It
// used to list every key, copying every value on the way.
func BenchmarkStatsCommand(b *testing.B) {
	s, err := New(Config{ArenaSize: 256 << 20, Buckets: 4096, MaxConns: 4, EpochLength: 10 * time.Second, MaxItemSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(time.Second)
	preload(b, s, 100000)
	c := allocConn(b, s)
	req := []byte("stats\r\n")
	c.step(b, req)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step(b, req)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(b.N); per > 1000 {
		b.Fatalf("stats allocates %.0f objects per call at 100 k items: it walks the store", per)
	}
}
