package kvstore

import (
	"fmt"
	"time"

	"montage/internal/core"
	"montage/internal/obs"
	"montage/internal/pds"
	"montage/internal/pool"
)

// ShardedBackend persists items across a pool of independent Montage
// systems: every key routes to exactly one shard's hashmap via the
// pool's stable hash, and every mutation returns a tag naming that
// shard, so durability waits park on the owning shard's persist
// watermark only. With a one-shard pool it behaves exactly like
// MontageBackend.
type ShardedBackend struct {
	p    *pool.Pool
	maps []*pds.HashMap
}

// NewShardedBackend builds one hashmap per pool shard, each with
// nBuckets buckets.
func NewShardedBackend(p *pool.Pool, nBuckets int) *ShardedBackend {
	maps := make([]*pds.HashMap, p.NumShards())
	for i := range maps {
		maps[i] = pds.NewHashMap(p.Shard(i), nBuckets)
	}
	return &ShardedBackend{p: p, maps: maps}
}

// Pool returns the backing pool.
func (b *ShardedBackend) Pool() *pool.Pool { return b.p }

// Get implements Backend.
func (b *ShardedBackend) Get(tid int, key string) ([]byte, bool) {
	return b.maps[b.p.ShardFor(key)].Get(tid, key)
}

// GetView implements the borrowed-read fast path.
func (b *ShardedBackend) GetView(tid int, key string, v RawViewer) bool {
	return b.maps[b.p.ShardFor(key)].GetView(tid, key, v)
}

// Put implements Backend.
func (b *ShardedBackend) Put(tid int, key string, val []byte) (DurabilityTag, error) {
	shard := b.p.ShardFor(key)
	epoch, err := b.maps[shard].PutE(tid, key, val)
	return DurabilityTag{Shard: shard, Epoch: epoch}, err
}

// Delete implements Backend.
func (b *ShardedBackend) Delete(tid int, key string) (bool, DurabilityTag, error) {
	shard := b.p.ShardFor(key)
	ok, epoch, err := b.maps[shard].RemoveE(tid, key)
	return ok, DurabilityTag{Shard: shard, Epoch: epoch}, err
}

// Keys implements Backend.
func (b *ShardedBackend) Keys(tid int) []string { return mapKeys(tid, b.maps...) }

// Len implements Backend.
func (b *ShardedBackend) Len() int {
	n := 0
	for _, m := range b.maps {
		n += m.Len()
	}
	return n
}

// RecoverShardedStore rebuilds a pool-backed store after a whole-pool
// crash: chunks[shard] is that shard's survivor chunks from
// pool.Recover or pool.Open, and each shard's hashmap rebuilds from its
// own survivors only (keys never migrate — the router is stable). The
// CAS-token sequence resumes above the largest survivor across all
// shards. The rebuild's wall time goes to shard 0's recorder as
// recovery_rebuild_ns, next to the three phases core.Recover records.
func RecoverShardedStore(p *pool.Pool, nBuckets int, chunks [][][]*core.PBlk) (*Store, error) {
	start := time.Now()
	if len(chunks) != p.NumShards() {
		return nil, fmt.Errorf("kvstore: recover: %d survivor chunk sets for %d shards", len(chunks), p.NumShards())
	}
	b := &ShardedBackend{p: p, maps: make([]*pds.HashMap, p.NumShards())}
	var top uint64
	for i := range b.maps {
		m, shardTop, err := recoverMap(p.Shard(i), nBuckets, chunks[i])
		if err != nil {
			return nil, fmt.Errorf("kvstore: recover shard %d: %w", i, err)
		}
		b.maps[i], top = m, max(top, shardTop)
	}
	s := New(b, 0)
	s.casSeq.Store(top)
	p.Shard(0).Recorder().Add(0, obs.CRecoveryBuildNs, uint64(time.Since(start).Nanoseconds()))
	return s, nil
}
