package kvstore

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"montage/internal/core"
	"montage/internal/pmem"
	"montage/internal/pool"
)

// Recovery fixtures mirror what montage-serve recovers in the repo
// benchmark: one shard, ten thread ids, 4096 buckets, 16-byte keys.
const (
	recoverThreads = 10
	recoverBuckets = 4096
)

// crashedPool loads n items of valLen bytes into a fresh one-shard pool,
// makes them durable and pulls the plug.
func crashedPool(tb testing.TB, n, valLen int) *pool.Pool {
	tb.Helper()
	p, err := pool.New(pool.Config{Core: core.Config{ArenaSize: 256 << 20, MaxThreads: recoverThreads}})
	if err != nil {
		tb.Fatal(err)
	}
	s := New(NewShardedBackend(p, recoverBuckets), 0)
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		if err := s.Set(0, fmt.Sprintf("key-%012d", i), val); err != nil {
			tb.Fatal(err)
		}
	}
	p.Sync(0)
	p.Crash(pmem.CrashDropAll)
	return p
}

// recoverStore is the server's crash path below the listener.
func recoverStore(tb testing.TB, p *pool.Pool) (*pool.Pool, *Store) {
	tb.Helper()
	p2, chunks, err := p.Recover(recoverThreads)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := RecoverShardedStore(p2, recoverBuckets, chunks)
	if err != nil {
		tb.Fatal(err)
	}
	return p2, s
}

// BenchmarkRecover100k times crash → answering for 100 k items of 100 B
// through pool.Recover and RecoverShardedStore. A recovered pool crashed
// again holds the same durable state, so every iteration does the same
// work.
func BenchmarkRecover100k(b *testing.B) {
	const n = 100000
	p := crashedPool(b, n, 100)
	b.ReportAllocs()
	var before, after runtime.MemStats
	var total time.Duration
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		p2, s := recoverStore(b, p)
		total += time.Since(t0)
		if s.Len() != n {
			b.Fatalf("recovered %d items, want %d", s.Len(), n)
		}
		p2.Crash(pmem.CrashDropAll)
		p = p2
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "ms/recover")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/n, "B/item")
	p.Abandon()
}

// TestRecoverAllocsPerSurvivor pins recovery's garbage: a survivor costs
// its PBlk, its index node and its key — three heap allocations; its data
// stays in the arena — plus a share of the per-recovery tables.
func TestRecoverAllocsPerSurvivor(t *testing.T) {
	const n = 20000
	p := crashedPool(t, n, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p2, s := recoverStore(t, p)
	runtime.ReadMemStats(&after)
	defer p2.Abandon()
	if s.Len() != n {
		t.Fatalf("recovered %d items, want %d", s.Len(), n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 3.5 {
		t.Fatalf("recovery made %.2f allocations per survivor, want <= 3.5", per)
	} else {
		t.Logf("%.2f allocations per survivor", per)
	}
}

// TestRecoverRestoresCASAndCount: the rebuilt store resumes CAS tokens
// above the largest survivor and counts what survived, on one shard and
// on several.
func TestRecoverRestoresCASAndCount(t *testing.T) {
	for _, shards := range []int{1, 3} {
		p, err := pool.New(pool.Config{Shards: shards, Core: core.Config{ArenaSize: 1 << 22, MaxThreads: 4}})
		if err != nil {
			t.Fatal(err)
		}
		s := New(NewShardedBackend(p, 16), 0)
		for i := 0; i < 50; i++ {
			if err := s.Set(0, fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if _, err := s.Delete(0, fmt.Sprintf("k%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		_, top, _ := s.GetWithCAS(0, "k49")
		p.Sync(0)
		p.Crash(pmem.CrashDropAll)
		p2, chunks, err := p.Recover(2)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := RecoverShardedStore(p2, 16, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Len() != 40 || len(s2.Keys(0)) != 40 {
			t.Fatalf("%d shards: Len %d, %d keys, want 40", shards, s2.Len(), len(s2.Keys(0)))
		}
		if err := s2.Set(0, "fresh", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, cas, _ := s2.GetWithCAS(0, "fresh"); cas != top+1 {
			t.Fatalf("%d shards: first token after recovery is %d, want %d", shards, cas, top+1)
		}
		if ns := p2.Shard(0).Recorder().Snapshot().Runtime.RecoveryRebuildNs; ns == 0 {
			t.Fatalf("%d shards: recovery_rebuild_ns not recorded", shards)
		}
		p2.Close()
	}
}
