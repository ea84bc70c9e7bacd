package pool_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"montage/internal/epoch"
	"montage/internal/kvstore"
	"montage/internal/pmem"
	"montage/internal/pool"
)

// The crash matrix drives a sharded store from concurrent writers, acks
// a known subset of writes through both durability paths (per-shard
// sync and per-shard epoch-wait), crashes the whole pool, and checks
// the paper's buffered-durability contract shard by shard:
//
//   - every acked write survives recovery (or is superseded only by a
//     later write to the same key),
//   - every acked delete stays deleted,
//   - nothing resurrects that was never written.
//
// It runs DropAll and Partial crashes against 1-, 2-, and 4-shard
// pools, with seeded crash RNG so Partial's losses are reproducible.
func TestShardedCrashMatrix(t *testing.T) {
	crashes := []struct {
		name string
		mode pmem.CrashMode
	}{
		{"dropall", pmem.CrashDropAll},
		{"partial", pmem.CrashPartial},
	}
	for _, shards := range []int{1, 2, 4} {
		for _, cr := range crashes {
			t.Run(fmt.Sprintf("%s/shards=%d", cr.name, shards), func(t *testing.T) {
				runCrashMatrix(t, shards, cr.mode, int64(shards)*1000+int64(len(cr.name)))
			})
		}
	}
}

// keyFate is one key's journal: what was acked last, and whether an
// unacked write followed it.
type keyFate struct {
	key     string
	acked   string // last acked value ("" = acked delete)
	unacked string // unacked value written after the ack, if any
}

func runCrashMatrix(t *testing.T, shards int, mode pmem.CrashMode, seed int64) {
	const workers = 3
	const keysPerWorker = 8

	cfg := pool.Config{
		Shards: shards,
		Core:   testCoreConfig(),
	}
	cfg.Core.MaxThreads = workers + 1
	// Real epoch daemons, fast ticks: epoch-wait acks must complete by
	// riding the persist watermark, exactly as the server's writer does.
	cfg.Core.Epoch = epoch.Config{EpochLength: 200 * time.Microsecond}
	p, err := pool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SeedCrashRNG(seed)
	store := kvstore.New(kvstore.NewShardedBackend(p, 128), 0)

	fates := make([][]keyFate, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := w
			for i := 0; i < keysPerWorker; i++ {
				f := keyFate{key: fmt.Sprintf("w%d-k%d", w, i)}
				// Two buffered (unacked) versions, then an acked third.
				for v := 1; v <= 2; v++ {
					if err := store.Set(tid, f.key, []byte(val(f.key, v))); err != nil {
						t.Error(err)
						return
					}
				}
				tag, err := store.SetTag(tid, f.key, []byte(val(f.key, 3)), 0)
				if err != nil {
					t.Error(err)
					return
				}
				f.acked = val(f.key, 3)
				// Alternate the two ack paths: forced per-shard sync vs
				// parking on the owning shard's persist watermark.
				if i%2 == 0 {
					p.Shard(tag.Shard).Sync(tid)
				} else if !p.Shard(tag.Shard).Epochs().WaitPersisted(tag.Epoch, nil) {
					t.Errorf("%s: epoch-wait ack aborted", f.key)
					return
				}
				switch i % 3 {
				case 0:
					// A trailing unacked write: may survive or vanish, but the
					// key must never regress below the acked version.
					f.unacked = val(f.key, 4)
					if err := store.Set(tid, f.key, []byte(f.unacked)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					// An acked delete: must stay deleted.
					_, dtag, err := store.DeleteTag(tid, f.key)
					if err != nil {
						t.Error(err)
						return
					}
					p.Shard(dtag.Shard).Sync(tid)
					f.acked = ""
				}
				fates[w] = append(fates[w], f)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	p.Crash(mode)
	p2, chunks, err := p.Recover(2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	store2, err := kvstore.RecoverShardedStore(p2, 128, chunks)
	if err != nil {
		t.Fatal(err)
	}

	for _, fs := range fates {
		for _, f := range fs {
			got, ok := store2.Get(0, f.key)
			if f.acked == "" {
				// Acked delete with nothing written after: resurrection is a
				// durability violation regardless of crash mode.
				if ok {
					t.Errorf("%s: acked delete resurrected as %q", f.key, got)
				}
				continue
			}
			if !ok {
				t.Errorf("%s: acked write lost (wanted %q)", f.key, f.acked)
				continue
			}
			if string(got) != f.acked && (f.unacked == "" || string(got) != f.unacked) {
				t.Errorf("%s = %q, want acked %q or trailing %q", f.key, got, f.acked, f.unacked)
			}
		}
	}

	// The recovered pool must be live on every shard.
	for i := 0; i < 4*shards; i++ {
		k := fmt.Sprintf("post-%d", i)
		if err := store2.Set(0, k, []byte("alive")); err != nil {
			t.Fatal(err)
		}
		if v, ok := store2.Get(0, k); !ok || string(v) != "alive" {
			t.Fatalf("post-recovery write %s = %q %v", k, v, ok)
		}
	}
}

func val(key string, ver int) string { return fmt.Sprintf("%s-v%d", key, ver) }
