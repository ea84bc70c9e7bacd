package core

import (
	"sync"
	"time"

	"montage/internal/epoch"
	"montage/internal/obs"
	"montage/internal/payload"
	"montage/internal/pmem"
	"montage/internal/ralloc"
)

// Recover reopens a Montage system from a crashed device and returns the
// surviving payloads.
//
// If the crash occurred in epoch e (the durable clock value), all
// payloads labeled e or e-1 are discarded, implementing the paper's
// two-epoch rule: what survives is exactly the set of payloads created by
// operations that linearized before the e-1 boundary, a consistent prefix
// of pre-crash execution. Among a payload's surviving versions (blocks
// sharing a uid), only the newest counts; if that newest version is an
// anti-payload, the payload is gone. Every discarded block has its
// durable header invalidated so a subsequent crash cannot resurrect it,
// and the allocator's free lists are rebuilt around the survivors.
//
// workers parallelizes the arena sweep (the paper's k recovery
// iterators) and the per-uid pick of each payload's newest version. A
// survivor's data is its block in the arena, read in place and never
// copied (DESIGN §15). The caller hands the returned payloads to each
// data structure's rebuild routine, which reconstructs the transient
// index (constraint 6: the rebuilt concrete state must mean the same
// abstract state as the surviving payload set).
//
// After recovery, the pre-crash System (if the process still holds one)
// must be discarded without further use — in particular without calling
// Close or Sync on it: its buffered payloads reference blocks that
// recovery may have freed and reallocated, and flushing them would
// corrupt the new system's data.
func Recover(dev *pmem.Device, cfg Config, workers int) (*System, []*PBlk, error) {
	cfg = cfg.withDefaults()
	if clk := dev.Clock(); clk == nil && cfg.Costs != nil {
		// The device owns the clock; a clockless device stays clockless.
		cfg.Costs = nil
	}
	rec := recorderFor(cfg)
	// Attach before the sweep so recovery reads and the new system's
	// epoch daemon are instrumented from the start.
	dev.SetRecorder(rec)
	// The machine has restarted: lift the device's fail-stop so the sweep's
	// invalidations and the new system's clock can reach the media. Writes
	// staged before the crash stay dead behind the crash floor.
	dev.Revive()
	heap, err := ralloc.New(dev, cfg.MaxThreads, ralloc.Options{})
	if err != nil {
		return nil, nil, err
	}
	clock, err := epoch.ReadClock(dev)
	if err != nil {
		return nil, nil, err
	}
	var cutoff uint64
	if clock > 2 {
		cutoff = clock - 2
	}

	// Worker w sweeps as thread id w, and the clock has MaxThreads of them.
	workers = max(1, min(workers, cfg.MaxThreads))
	// While a block is in its cache, its sweep worker bins its index by
	// uid (uid mod workers) if it is at or below the cutoff, so each uid
	// shard's winner pick below reads only its own blocks.
	sweepers := make([]sweeper, workers)
	for w := range sweepers {
		sweepers[w].bins = make([][]int32, workers)
	}
	sweepStart := time.Now()
	blocks, err := heap.Recover(workers, cutoff, func(w, i int, b *ralloc.Block) {
		sw := &sweepers[w]
		sw.found++
		sw.maxUID = max(sw.maxUID, b.Header.UID)
		if b.Header.Epoch <= cutoff {
			s := b.Header.UID % uint64(workers)
			sw.bins[s] = append(sw.bins[s], int32(i))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	var found int
	var maxUID uint64
	for w := range sweepers {
		found += sweepers[w].found
		maxUID = max(maxUID, sweepers[w].maxUID)
	}
	rec.Add(0, obs.CRecoverySweepNs, uint64(time.Since(sweepStart).Nanoseconds()))
	rec.Add(0, obs.CRecoveredBlocks, uint64(found))

	filterStart := time.Now()
	sys := &System{cfg: cfg, dev: dev, heap: heap, clk: dev.Clock(), rec: rec}
	sys.uid.Store(maxUID)
	// One goroutine per uid shard picks each uid's newest version at or
	// below the cutoff. It walks its bins in sweep order, so blocks and
	// the PBlks it makes are touched in address order per worker, and it
	// makes a block's PBlk as soon as the block leads its uid, dropping it
	// if a later one supersedes it (most uids have one block). live[i] is
	// the survivor at blocks[i], if any; its data is the sweep's view of
	// the arena, never copied (DESIGN §15).
	live := make([]*PBlk, len(blocks))
	kept := make([]int, workers)
	var wg sync.WaitGroup
	for s := range kept {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			n, k := 0, 0
			for w := range sweepers {
				n += len(sweepers[w].bins[s])
			}
			winner := make(map[uint64]int32, n)
			for w := range sweepers {
				for _, i := range sweepers[w].bins[s] {
					b := &blocks[i]
					j, ok := winner[b.Header.UID]
					if ok && !supersedes(&b.Header, i, &blocks[j].Header, j) {
						continue
					}
					winner[b.Header.UID] = i
					if ok && live[j] != nil {
						live[j] = nil
						k--
					}
					if b.Header.Typ != payload.Delete {
						p := &PBlk{
							sys:   sys,
							addr:  b.Addr,
							epoch: b.Header.Epoch,
							uid:   b.Header.UID,
							typ:   b.Header.Typ,
							tag:   b.Header.Tag,
							data:  b.Data,
						}
						p.flushed.Store(true)
						live[i] = p
						k++
					}
				}
			}
			kept[s] = k
		}(s)
	}
	wg.Wait()

	// Address order: deterministic, for tests and rebuild partitioning.
	n := 0
	for _, k := range kept {
		n += k
	}
	survivors := make([]*PBlk, 0, n)
	inUse := heap.NewAddrSet()
	for _, p := range live {
		if p != nil {
			survivors = append(survivors, p)
			inUse.Add(p.addr)
		}
	}
	rec.Add(0, obs.CRecoveryFilterNs, uint64(time.Since(filterStart).Nanoseconds()))
	rec.Add(0, obs.CRecoveredLive, uint64(len(survivors)))

	invalStart := time.Now()
	// Invalidate every decodable block that did not survive: newer than
	// the cutoff, superseded by a newer version, nullified by an
	// anti-payload, or an anti-payload itself. Order matters for crash
	// atomicity of recovery itself: data blocks are invalidated before
	// anti-payloads, so a crash mid-sweep can leave an orphan anti
	// (harmless) but never a nullified version without its anti — which a
	// re-run of recovery would otherwise resurrect.
	var zero [8]byte
	for pass := 0; pass < 2; pass++ {
		for i := range blocks {
			b := &blocks[i]
			if b.Addr == pmem.NilAddr || live[i] != nil {
				continue
			}
			isAnti := b.Header.Typ == payload.Delete
			if (pass == 0) == isAnti {
				continue // pass 0: data blocks; pass 1: anti-payloads
			}
			if err := dev.WriteDurable(b.Addr, zero[:]); err != nil {
				return nil, nil, err
			}
		}
	}
	heap.FinishRecovery(inUse)
	rec.Add(0, obs.CRecoveryInvalNs, uint64(time.Since(invalStart).Nanoseconds()))
	rec.Inc(0, obs.CRecoveries)
	rec.Trace(0, obs.TraceRecovery, clock, uint64(len(survivors)))

	// Restart the clock strictly above its pre-crash value so epoch
	// labels are never reused.
	restart := clock + 1
	if restart < epoch.FirstEpoch {
		restart = epoch.FirstEpoch
	}
	sys.esys = epoch.NewAt(heap, cfg.Epoch, restart)
	return sys, survivors, nil
}

// sweeper is one sweep worker's share of recovery: its uid bins of block
// indexes, one per shard, the number of valid blocks it found and the
// largest uid among them, padded to a cache line of its own.
type sweeper struct {
	bins   [][]int32
	found  int
	maxUID uint64
	_      [24]byte
}

// supersedes reports whether block a, at sweep index i, replaces block
// b, at index j, as the recovered version of their shared uid: the newer
// epoch wins; within one epoch an anti-payload beats a data version, and
// otherwise the lower address does.
func supersedes(a *payload.Header, i int32, b *payload.Header, j int32) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if aDel, bDel := a.Typ == payload.Delete, b.Typ == payload.Delete; aDel != bDel {
		return aDel
	}
	return i < j
}

// FilterByTag returns the payloads whose owning-structure tag equals
// tag. When several structures share a System, each structure's rebuild
// routine takes FilterByTag(survivors, itsTag).
func FilterByTag(payloads []*PBlk, tag uint16) []*PBlk {
	var out []*PBlk
	for _, p := range payloads {
		if p.tag == tag {
			out = append(out, p)
		}
	}
	return out
}

// RecoverParallel splits the surviving payloads into k disjoint chunks
// (consecutive runs of Recover's order, no copy), mirroring the paper's k
// recovery iterators for parallel index rebuild.
func RecoverParallel(dev *pmem.Device, cfg Config, workers int) (*System, [][]*PBlk, error) {
	sys, survivors, err := Recover(dev, cfg, workers)
	if err != nil {
		return nil, nil, err
	}
	if workers < 1 {
		workers = 1
	}
	chunks := make([][]*PBlk, workers)
	for i := range chunks {
		lo, hi := i*len(survivors)/workers, (i+1)*len(survivors)/workers
		chunks[i] = survivors[lo:hi:hi]
	}
	return sys, chunks, nil
}
