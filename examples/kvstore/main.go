// The kvstore example runs the memcached-like store of Section 6.2 over
// a Montage backend: concurrent clients issue a YCSB-A style workload,
// the store syncs before "acknowledging" a designated important write
// (as a networked cache must before replying to a client), then the
// machine crashes and the cache recovers warm.
package main

import (
	"fmt"
	"log"
	"sync"

	"montage"
	"montage/internal/kvstore"
	"montage/internal/pds"
	"montage/internal/ycsb"
)

func main() {
	const (
		threads = 4
		records = 5000
		ops     = 20000
		buckets = 16384
	)
	cfg := montage.Config{ArenaSize: 128 << 20, MaxThreads: threads}
	sys, err := montage.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	store := kvstore.New(kvstore.NewMontageBackend(pds.NewHashMap(sys, buckets)), 0)

	// Load phase.
	for i := uint64(0); i < records; i++ {
		if err := store.Set(0, ycsb.Key(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	sys.Sync(0)
	fmt.Printf("loaded %d records\n", records)

	// Run phase: YCSB-A (50/50 read/update, zipfian keys) across threads.
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := ycsb.NewWorkloadA(records, int64(tid))
			for i := 0; i < ops/threads; i++ {
				op := w.Next()
				if op.Kind == ycsb.Read {
					store.Get(tid, op.Key)
				} else {
					if err := store.Set(tid, op.Key, []byte("updated")); err != nil {
						log.Fatal(err)
					}
				}
			}
		}(tid)
	}
	// Keep epochs ticking while workers run (benchmark-style manual
	// advancing; a real deployment would use EpochConfig.EpochLength).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			goto ran
		default:
			sys.Advance()
		}
	}
ran:
	st := store.Stats()
	fmt.Printf("ran %d ops: %d hits, %d misses, %d sets\n",
		ops, st.Hits.Load(), st.Misses.Load(), st.Sets.Load())

	// An "important" write the application must be able to acknowledge:
	// sync before replying, exactly like a database commit.
	if err := store.Set(0, "order:1234", []byte("PAID")); err != nil {
		log.Fatal(err)
	}
	sys.Sync(0)
	fmt.Println("acknowledged order:1234 after sync")

	// Crash and recover: the cache comes back warm.
	sys.Device().Crash(montage.CrashDropAll)
	sys2, chunks, err := montage.RecoverParallel(sys.Device(), cfg, threads)
	if err != nil {
		log.Fatal(err)
	}
	store2, err := kvstore.RecoverMontageStore(sys2, buckets, chunks)
	if err != nil {
		log.Fatal(err)
	}
	defer sys2.Close()
	v, ok := store2.Get(0, "order:1234")
	fmt.Printf("after crash: order:1234 = %q (present=%v)\n", v, ok)
	warm := 0
	for i := uint64(0); i < records; i++ {
		if _, ok := store2.Get(0, ycsb.Key(i)); ok {
			warm++
		}
	}
	fmt.Printf("cache recovered warm with %d/%d records\n", warm, records)
}
