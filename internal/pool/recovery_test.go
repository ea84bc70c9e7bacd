package pool_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"montage/internal/kvstore"
	"montage/internal/pmem"
	"montage/internal/pool"
	"montage/internal/ralloc"
)

// recoverMap crashes aside, rebuilds a sharded store from a recovered
// pool and returns the new pool plus its full key -> value map.
func recoverMap(t *testing.T, p *pool.Pool) (*pool.Pool, map[string]string) {
	t.Helper()
	p2, chunks, err := p.Recover(2)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.RecoverShardedStore(p2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]string)
	for _, k := range store.Keys(0) {
		if v, ok := store.Get(0, k); ok {
			m[k] = string(v)
		}
	}
	return p2, m
}

// TestRecoverIdempotent runs recovery twice over the same crash: the
// sweep must durably invalidate what it discards, so a second crash and
// recovery — with no intervening writes — reproduces exactly the same
// state (no loss, no resurrection of the discarded epochs).
func TestRecoverIdempotent(t *testing.T) {
	for _, mode := range []pmem.CrashMode{pmem.CrashDropAll, pmem.CrashPartial} {
		p := newTestPool(t, 3)
		p.SeedCrashRNG(7)
		store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
		for i := 0; i < 30; i++ {
			if err := store.Set(0, "dur-"+itoa(i), []byte("v"+itoa(i))); err != nil {
				t.Fatal(err)
			}
		}
		p.Sync(0)
		for i := 0; i < 10; i++ {
			if err := store.Set(0, "volatile-"+itoa(i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		p.Crash(mode)

		p2, first := recoverMap(t, p)
		for i := 0; i < 30; i++ {
			if first["dur-"+itoa(i)] != "v"+itoa(i) {
				t.Fatalf("mode %v: synced key dur-%d lost in first recovery", mode, i)
			}
		}

		p2.Crash(mode)
		p3, second := recoverMap(t, p2)
		if len(second) != len(first) {
			t.Fatalf("mode %v: second recovery has %d keys, first had %d", mode, len(second), len(first))
		}
		for k, v := range first {
			if second[k] != v {
				t.Fatalf("mode %v: key %q = %q after second recovery, want %q", mode, k, second[k], v)
			}
		}
		p3.Close()
	}
}

// TestOpenManifestDirIgnoresStaleShardFile pins Open to the MANIFEST's
// shard count: a leftover shard image from an earlier, wider layout
// (here a bogus shard-002.img next to a 2-shard manifest) must be
// ignored, not loaded as a third shard.
func TestOpenManifestDirIgnoresStaleShardFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool.d")
	p := newTestPool(t, 2)
	store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
	keys := make([]string, 20)
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

	// A stale third shard image: copy of shard 0 under the next index.
	img, err := os.ReadFile(filepath.Join(dir, "shard-000.img"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-002.img"), img, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, chunks, loaded, err := pool.Open(dir, pool.Config{Shards: 5, Core: testCoreConfig()}, 2)
	if err != nil || !loaded {
		t.Fatalf("Open = loaded=%v err=%v", loaded, err)
	}
	defer p2.Close()
	if p2.NumShards() != 2 {
		t.Fatalf("reopened shards = %d, want the manifest's 2", p2.NumShards())
	}
	store2, err := kvstore.RecoverShardedStore(p2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok := store2.Get(0, k)
		if !ok || string(v) != "v-"+itoa(i) {
			t.Fatalf("key %s = %q %v after reopen with stale shard file", k, v, ok)
		}
	}
	if n := len(store2.Keys(0)); n != len(keys) {
		t.Fatalf("reopened store has %d keys, want %d (stale shard leaked in?)", n, len(keys))
	}
}

// TestOpenRejectsClassIndexHeader: a saved image whose superblock header
// holds a size-class index where the block size belongs — what headers
// recorded before they recorded sizes; 9 was the 1536-byte class — fails
// to open with ralloc.ErrBadSuperblock naming that superblock. Swept at
// the stride the index names in today's table, the superblock's 1 KB
// items would come back missing, and nothing would report it.
func TestOpenRejectsClassIndexHeader(t *testing.T) {
	img := filepath.Join(t.TempDir(), "p.img")
	p := newTestPool(t, 1)
	store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 2000; i++ {
		if err := store.Set(0, "key-"+itoa(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Save(0, img); err != nil {
		t.Fatal(err)
	}
	p.Close()

	raw, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	// The superblock holding the first value; its header is the magic
	// then the block size, both little-endian uint32s.
	at := bytes.Index(raw, val)
	if at < ralloc.MetaRegionSize {
		t.Fatal("test setup: no value in the image's superblocks")
	}
	sb := (at - ralloc.MetaRegionSize) / ralloc.DefaultSuperblockSize
	binary.LittleEndian.PutUint32(raw[ralloc.MetaRegionSize+sb*ralloc.DefaultSuperblockSize+4:], 9)
	if err := os.WriteFile(img, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, chunks, _, err := pool.Open(img, pool.Config{Core: testCoreConfig()}, 2)
	if err == nil {
		defer p2.Close()
		got, err := kvstore.RecoverShardedStore(p2, 64, chunks)
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("Open recovered %d of 2000 keys and reported no error; want ralloc.ErrBadSuperblock", len(got.Keys(0)))
	}
	if !errors.Is(err, ralloc.ErrBadSuperblock) {
		t.Fatalf("Open: %v; want ralloc.ErrBadSuperblock", err)
	}
	if want := fmt.Sprintf("superblock %d records block size 9", sb); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
}
