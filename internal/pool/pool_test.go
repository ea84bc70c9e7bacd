package pool_test

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"montage/internal/core"
	"montage/internal/kvstore"
	"montage/internal/pds"
	"montage/internal/pmem"
	"montage/internal/pool"
)

func newHashMap(t *testing.T, sys *core.System) *pds.HashMap {
	t.Helper()
	return pds.NewHashMap(sys, 64)
}

func testCoreConfig() core.Config {
	return core.Config{ArenaSize: 1 << 24, MaxThreads: 4}
}

func newTestPool(t *testing.T, shards int) *pool.Pool {
	t.Helper()
	p, err := pool.New(pool.Config{Shards: shards, Core: testCoreConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardForKeyStable pins the router to FNV-1a: the hash must be
// stable across processes (unlike maphash), or a reopened pool image
// would route stored keys to the wrong shards.
func TestShardForKeyStable(t *testing.T) {
	for _, key := range []string{"", "a", "user4837", "montage-pool", "k\x00x"} {
		for _, n := range []int{1, 2, 3, 4, 8} {
			h := fnv.New64a()
			h.Write([]byte(key))
			want := int(h.Sum64() % uint64(n))
			if n == 1 {
				want = 0
			}
			if got := pool.ShardForKey(key, n); got != want {
				t.Fatalf("ShardForKey(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
	if got := pool.ShardForKey("anything", 0); got != 0 {
		t.Fatalf("ShardForKey(_, 0) = %d, want 0", got)
	}
}

func TestShardForKeyBalance(t *testing.T) {
	const n, keys = 4, 4000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[pool.ShardForKey(ycsbKey(i), n)]++
	}
	for s, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Fatalf("shard %d got %d of %d keys: router badly skewed %v", s, c, keys, counts)
		}
	}
}

func ycsbKey(i int) string { return "user" + string(rune('a'+i%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestPoolRoundTripMultiShard saves a 3-shard pool as a manifest
// directory and reopens it: every key must survive, on its original
// shard, with the shard count taken from the image rather than the
// caller's config.
func TestPoolRoundTripMultiShard(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.d")
	p := newTestPool(t, 3)
	store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = "key-" + itoa(i)
		if err := store.Set(0, keys[i], []byte("v-"+itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Save(0, dir); err != nil {
		t.Fatal(err)
	}
	p.Close()

	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "shard-00"+itoa(i)+".img")); err != nil {
			t.Fatalf("shard image %d missing: %v", i, err)
		}
	}

	// Deliberately wrong cfg.Shards: the image's count must win.
	p2, chunks, loaded, err := pool.Open(dir, pool.Config{Shards: 1, Core: testCoreConfig()}, 2)
	if err != nil || !loaded {
		t.Fatalf("Open = loaded=%v err=%v", loaded, err)
	}
	defer p2.Close()
	if p2.NumShards() != 3 {
		t.Fatalf("reopened shards = %d, want 3", p2.NumShards())
	}
	store2, err := kvstore.RecoverShardedStore(p2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok := store2.Get(0, k)
		if !ok || string(v) != "v-"+itoa(i) {
			t.Fatalf("key %s = %q %v after reopen", k, v, ok)
		}
	}
}

// TestPoolSingleShardImageCompat is the compatibility floor: a
// one-shard pool's Save must produce a plain single-file image that the
// pre-pool path (pmem.NewDeviceFromFile + core.RecoverParallel) reads,
// and a pool must open an image written by core.System.Checkpoint. No
// manifest, no directory.
func TestPoolSingleShardImageCompat(t *testing.T) {
	dir := t.TempDir()

	// Pool writes, legacy path reads.
	img1 := filepath.Join(dir, "a.img")
	p := newTestPool(t, 1)
	store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
	if err := store.Set(0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := p.Save(0, img1); err != nil {
		t.Fatal(err)
	}
	p.Close()
	fi, err := os.Stat(img1)
	if err != nil || fi.IsDir() {
		t.Fatalf("single-shard image is not a plain file: %v dir=%v", err, fi.IsDir())
	}
	dev, err := pmem.NewDeviceFromFile(img1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, chunks1, err := core.RecoverParallel(dev, testCoreConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := kvstore.RecoverMontageStore(sys, 64, chunks1)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s1.Get(0, "k"); !ok || string(v) != "v" {
		t.Fatalf("legacy reader lost pool-written key: %q %v", v, ok)
	}
	sys.Close()

	// Legacy path writes (Checkpoint), pool reads.
	img2 := filepath.Join(dir, "b.img")
	sys2, err := core.NewSystem(testCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	legacy := kvstore.New(kvstore.NewMontageBackend(newHashMap(t, sys2)), 0)
	if err := legacy.Set(0, "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Checkpoint(0, img2); err != nil {
		t.Fatal(err)
	}
	sys2.Close()
	p2, chunks2, loaded, err := pool.Open(img2, pool.Config{Shards: 4, Core: testCoreConfig()}, 2)
	if err != nil || !loaded {
		t.Fatalf("Open = loaded=%v err=%v", loaded, err)
	}
	defer p2.Close()
	if p2.NumShards() != 1 {
		t.Fatalf("single-file image opened as %d shards", p2.NumShards())
	}
	s2, err := kvstore.RecoverShardedStore(p2, 64, chunks2)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(0, "k2"); !ok || string(v) != "v2" {
		t.Fatalf("pool lost checkpoint-written key: %q %v", v, ok)
	}
}

// TestPoolOpenMissing: no image means (nil, false, nil), not an error.
func TestPoolOpenMissing(t *testing.T) {
	p, chunks, loaded, err := pool.Open(filepath.Join(t.TempDir(), "nope"), pool.Config{Core: testCoreConfig()}, 1)
	if p != nil || chunks != nil || loaded || err != nil {
		t.Fatalf("Open(missing) = %v %v %v %v", p, chunks, loaded, err)
	}
}

// TestPoolStatsAggregate checks the two recorder modes: private
// per-shard recorders merge into a labeled breakdown, and the merged
// totals cover every shard's activity.
func TestPoolStatsAggregate(t *testing.T) {
	p := newTestPool(t, 2)
	defer p.Close()
	store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
	for i := 0; i < 64; i++ {
		if err := store.Set(0, "k"+itoa(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats shards=%d per-shard=%d", st.Shards, len(st.PerShard))
	}
	var sum uint64
	for _, ps := range st.PerShard {
		if ps.Stats.Runtime.Ops == 0 {
			t.Fatalf("shard %d saw no ops; router sent everything elsewhere?", ps.Shard)
		}
		sum += ps.Stats.Runtime.Ops
	}
	if st.Total.Runtime.Ops != sum {
		t.Fatalf("merged ops %d != per-shard sum %d", st.Total.Runtime.Ops, sum)
	}
}
