package bench

import (
	"fmt"

	"montage/internal/core"
	"montage/internal/epoch"
	"montage/internal/kvstore"
	"montage/internal/obs"
	"montage/internal/pds"
	"montage/internal/simclock"
	"montage/internal/ycsb"
)

// FigWriteback profiles the device's write-combining pipeline under the
// YCSB loadgen: a write-only zipfian workload over key ranges of varying
// size drives a Montage hashmap store, and each cell reports acked
// throughput plus the combine ratio the device observed (staged
// write-backs absorbed in place per hundred that reached the durable
// arena).
//
// Two effects are on display. The per-thread to_persist buffer already
// dedups same-epoch Sets of one payload, so the device sees duplicate
// addresses only when that buffer overflows mid-epoch: the overflow
// flush stages the hot payload, a later Set dirties it again, and the
// epoch-boundary flush stages the same address a second time. The cell
// therefore runs with a deliberately small buffer, and the combine
// ratio tracks how far the zipfian working set outruns it. The series
// compare a serial drain (drain=1) against the auto-sized parallel
// drain (drain=auto), isolating what the partitioned commit is worth
// once combining has built the batch.
//
// Unlike the net/shard figures this runs in process on virtual time, so
// the throughput column reproduces shape rather than wall-clock Mops.
func FigWriteback(scale Scale, keyRanges []int) ([]Result, error) {
	if len(keyRanges) == 0 {
		keyRanges = []int{64, 1024, 16_384}
		if scale.KeyRange > 16_384 {
			keyRanges = append(keyRanges, scale.KeyRange)
		}
	}
	series := []struct {
		name    string
		workers int
	}{
		{"drain=1", 1},
		{"drain=auto", 0},
	}

	const threads = 8
	var out []Result
	for _, s := range series {
		for _, keys := range keyRanges {
			mops, ratio, stats, err := runWriteback(scale, threads, keys, s.workers)
			if err != nil {
				return nil, fmt.Errorf("writeback %s/keys=%d: %w", s.name, keys, err)
			}
			out = append(out, Result{
				Figure: "writeback", Series: s.name,
				Label: fmt.Sprintf("keys=%d", keys), X: float64(keys), Mops: mops,
				Stats: stats,
			})
			out = append(out, Result{
				Figure: "writeback-combine", Series: s.name, Unit: "combined %",
				Label: fmt.Sprintf("keys=%d", keys), X: float64(keys), Mops: ratio,
			})
		}
	}
	return out, nil
}

// runWriteback runs one cell: a write-only zipfian YCSB load over keys
// distinct keys against a fresh Montage store with the given drain
// parallelism. It returns (Mops virtual, combined write-backs per 100
// staged, the cell's runtime-counter delta).
func runWriteback(scale Scale, threads, keys, drainWorkers int) (float64, float64, *obs.Snapshot, error) {
	costs := simclock.DefaultCosts()
	sys, err := core.NewSystem(core.Config{
		ArenaSize:  scale.ArenaSize,
		MaxThreads: threads,
		Epoch: epoch.Config{
			MaxThreads: threads,
			// A small buffer makes overflow flushes — the traffic write
			// combining absorbs — common instead of exceptional.
			BufferSize:   8,
			EpochLengthV: scale.EpochLenV,
		},
		Costs:        &costs,
		DrainWorkers: drainWorkers,
		Recorder:     scale.Recorder,
	})
	if err != nil {
		return 0, 0, nil, err
	}
	defer sys.Close()
	store := kvstore.New(kvstore.NewMontageBackend(pds.NewHashMap(sys, scale.Buckets)), 0)

	val := value(scale.ValueSize)
	records := uint64(keys)
	for i := uint64(0); i < records; i++ {
		if err := store.Set(0, ycsb.Key(i), val); err != nil {
			return 0, 0, nil, err
		}
	}
	sys.Sync(0)
	sys.Clock().Reset()
	sys.Epochs().ResetVirtualTimer()
	base := sys.Stats()

	workloads := make([]*ycsb.Workload, threads)
	for tid := range workloads {
		// ReadFrac 0: every op is a Set, the path write combining serves.
		workloads[tid] = ycsb.NewWorkload(records, 0, scale.Seed+int64(tid))
	}
	var firstErr error
	mops := runWorkers(sys.Clock(), threads, scale.OpsPerThread, func(tid, i int) {
		op := workloads[tid].Next()
		if err := store.Set(tid, op.Key, val); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return 0, 0, nil, firstErr
	}

	delta := sys.Stats().Sub(base)
	// An update is "combined" when a staged write-back landed on an
	// already-staged block (the device's newest-wins coalescing).
	var ratio float64
	if wb := delta.Device.WriteBacks; wb > 0 {
		ratio = float64(delta.Device.WriteBackCoalesced) / float64(wb) * 100
	}
	return mops, ratio, &delta, nil
}
