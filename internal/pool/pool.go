// Package pool shards a Montage runtime into N independent epoch
// domains. Each shard is a complete core.System — its own simulated
// device, ralloc heap, epoch daemon, and (optionally) recorder — and a
// stable hash router assigns every key to exactly one shard. Epoch
// advances, persist fences, and sync waits in one shard never contend
// with another shard's, which is the idiomatic scale-out step once the
// paper's per-thread buffers and mindicator (§4) have removed the
// intra-system bottlenecks: the residual contention is the epoch domain
// itself (advMu/persistMu, the device's region lock), and the only way
// past it is more domains.
//
// Durability is per shard: a write's epoch tag is meaningful only
// against the owning shard's persist watermark, so callers carry a
// (shard, epoch) pair — see kvstore.DurabilityTag. The pool makes no
// cross-shard promises: there is no global epoch, no ordering between
// writes on different shards, and Sync(tid) is merely the conjunction
// of every shard's own sync. A single-shard pool is exactly one
// core.System with today's semantics, including the single-file image
// format.
package pool

import (
	"fmt"
	"sync"

	"montage/internal/core"
	"montage/internal/obs"
	"montage/internal/pmem"
)

// Config configures a pool.
type Config struct {
	// Shards is the number of independent epoch domains. 0 means 1.
	Shards int
	// Core configures each shard. ArenaSize and MaxThreads are per
	// shard: every shard gets its own arena of that size, and every
	// thread id below MaxThreads is valid on every shard (a thread may
	// touch any shard, since keys route by hash, not by thread). If
	// Core.Recorder is set, all shards share it and pool stats are a
	// single aggregate; if nil, each shard gets a private recorder and
	// Stats() merges them into a labeled per-shard breakdown.
	Core core.Config
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Pool is a set of independent Montage systems behind a key router.
type Pool struct {
	cfg    Config
	shards []*core.System
	// shared reports whether all shards write to one caller-supplied
	// recorder (true) or each has its own (false).
	shared bool
}

// ShardForKey routes key to a shard in [0, n). The hash is FNV-1a,
// chosen over maphash because it is stable across processes: a pool
// image written by one process must route the same keys to the same
// shards when reopened by another.
func ShardForKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// New creates a pool of cfg.Shards fresh systems.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:    cfg,
		shards: make([]*core.System, cfg.Shards),
		shared: cfg.Core.Recorder != nil,
	}
	for i := range p.shards {
		sys, err := core.NewSystem(cfg.Core)
		if err != nil {
			for _, s := range p.shards[:i] {
				s.Close()
			}
			return nil, fmt.Errorf("pool: shard %d: %w", i, err)
		}
		p.shards[i] = sys
	}
	return p, nil
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// Shard returns shard i's system.
func (p *Pool) Shard(i int) *core.System { return p.shards[i] }

// ShardFor returns the index of the shard owning key.
func (p *Pool) ShardFor(key string) int { return ShardForKey(key, len(p.shards)) }

// forEach runs fn(i) for every shard, in parallel when there is more
// than one. Shards are independent, so whole-pool operations (sync,
// close, recovery) cost one shard's latency, not the sum.
func (p *Pool) forEach(fn func(i int)) {
	if len(p.shards) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := range p.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Sync forces everything acked so far durable on every shard, in
// parallel. tid must be a valid thread id (it is used on each shard).
func (p *Pool) Sync(tid int) {
	p.forEach(func(i int) { p.shards[i].Sync(tid) })
}

// Close stops every shard's epoch daemon after a final flush.
func (p *Pool) Close() {
	p.forEach(func(i int) { p.shards[i].Close() })
}

// Abandon stops every shard's epoch daemon without flushing, as crash
// teardown requires: flushing stale pre-crash buffers would corrupt
// blocks the recovered pool may have reallocated.
func (p *Pool) Abandon() {
	p.forEach(func(i int) { p.shards[i].Abandon() })
}

// SeedCrashRNG seeds each shard's crash RNG deterministically (shard i
// gets seed+i, so shards lose different writes under CrashPartial).
func (p *Pool) SeedCrashRNG(seed int64) {
	for i, s := range p.shards {
		s.Device().SeedCrashRNG(seed + int64(i))
	}
}

// Crash simulates a whole-pool power failure: every shard's daemon is
// abandoned and every shard's device crashes with mode. The pool is
// unusable afterwards; call Recover to rebuild it on the same devices.
func (p *Pool) Crash(mode pmem.CrashMode) {
	for _, s := range p.shards {
		s.Abandon()
	}
	for _, s := range p.shards {
		s.Device().Crash(mode)
	}
}

// Recover rebuilds the pool on the crashed shards' devices, running
// each shard's recovery concurrently with workers sweep goroutines
// apiece. Each shard keeps its pre-crash recorder, so counters span
// recoveries. The survivors are returned per shard as chunks[shard] =
// that shard's RecoverParallel chunk slices; a sharded index rebuilds
// shard s from chunks[s] only.
func (p *Pool) Recover(workers int) (*Pool, [][][]*core.PBlk, error) {
	devs := make([]*pmem.Device, len(p.shards))
	cfgs := make([]core.Config, len(p.shards))
	for i, s := range p.shards {
		devs[i] = s.Device()
		cfgs[i] = p.cfg.Core
		cfgs[i].Recorder = s.Recorder()
	}
	return recoverShards(p.cfg, devs, cfgs, workers)
}

// recoverShards runs per-shard recovery concurrently and assembles the
// recovered pool plus per-shard survivor chunks.
func recoverShards(cfg Config, devs []*pmem.Device, cfgs []core.Config, workers int) (*Pool, [][][]*core.PBlk, error) {
	n := len(devs)
	p2 := &Pool{
		cfg:    cfg,
		shards: make([]*core.System, n),
		shared: cfg.Core.Recorder != nil,
	}
	p2.cfg.Shards = n
	chunks := make([][][]*core.PBlk, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p2.shards[i], chunks[i], errs[i] = core.RecoverParallel(devs[i], cfgs[i], workers)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, s := range p2.shards {
				if s != nil {
					s.Abandon()
				}
			}
			return nil, nil, fmt.Errorf("pool: recover shard %d: %w", i, err)
		}
	}
	return p2, chunks, nil
}

// ShardStats is one shard's labeled snapshot.
type ShardStats struct {
	Shard int          `json:"shard"`
	Stats obs.Snapshot `json:"stats"`
}

// PoolStats aggregates the pool's recorders.
type PoolStats struct {
	Shards int `json:"shards"`
	// Total is the pool-wide aggregate (the shared recorder's snapshot,
	// or the merge of every private per-shard recorder).
	Total obs.Snapshot `json:"total"`
	// PerShard carries one labeled snapshot per shard when the shards
	// have private recorders; nil with a shared recorder, whose counters
	// cannot be attributed to a shard after the fact.
	PerShard []ShardStats `json:"per_shard,omitempty"`
}

// Stats aggregates per-shard recorders into one labeled snapshot.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Shards: len(p.shards)}
	if p.shared {
		st.Total = p.shards[0].Recorder().Snapshot()
		return st
	}
	snaps := make([]obs.Snapshot, len(p.shards))
	st.PerShard = make([]ShardStats, len(p.shards))
	for i, s := range p.shards {
		snaps[i] = s.Recorder().Snapshot()
		st.PerShard[i] = ShardStats{Shard: i, Stats: snaps[i]}
	}
	st.Total = obs.Merge(snaps...)
	return st
}

// Snapshot returns the pool-wide aggregate snapshot.
func (p *Pool) Snapshot() obs.Snapshot { return p.Stats().Total }
