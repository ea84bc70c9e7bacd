// Package obs is the Montage runtime's observability substrate: low-overhead
// counters, latency histograms, and a bounded epoch-lifecycle trace ring.
//
// The design follows the shape the paper's sensitivity study needs (epoch
// advance latency and drain sizes vs. throughput, Figure 9-style) while
// staying off the hot path:
//
//   - Counters are per-thread padded cells, written with a single atomic add
//     by their owning thread and aggregated only at snapshot time, so they
//     never bounce cache lines between workers.
//   - Histograms are log2-bucketed (one bucket per bit length), also
//     per-thread, so recording a latency is two atomic adds and an index
//     computation.
//   - The trace ring records rare epoch-lifecycle events (advance, sync,
//     crash, recovery) under a mutex; it is bounded and overwrites the
//     oldest entries.
//
// Every method is safe on a nil *Recorder and is a no-op when recording is
// disabled, so instrumented packages can hold an optional reference without
// branching at call sites. Both the enabled and disabled paths are
// allocation-free (asserted by tests with testing.AllocsPerRun).
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// CounterID names one monotonic counter. Counters are grouped by the
// subsystem that writes them; Snapshot.bind gives each its named field.
type CounterID int

const (
	// Epoch system (internal/epoch).
	CEpochAdvances     CounterID = iota // completed epoch advances
	CEpochSyncs                         // completed Sync calls
	CPersistQueued                      // payloads queued for write-back
	CPersistBoundary                    // payloads written back at an epoch boundary
	CPersistOverflow                    // payloads written back on buffer overflow
	CPersistWorker                      // payloads written back by their own worker (per-op policy, sync helping)
	CPersistDirect                      // payloads written back immediately (direct policy)
	CPersistDead                        // queued payloads skipped because they died before write-back
	CPersistBytes                       // payload bytes handed to the device for write-back
	CFreeQueued                         // blocks queued for delayed reclamation
	CFreeReclaimed                      // blocks reclaimed after the two-epoch delay
	CMindicatorSkips                    // boundary scans skipped thanks to the mindicator
	CMindicatorScans                    // boundary scans actually performed
	CPendClampNegative                  // pending-entry accounting went negative and was clamped (bug signal)

	// Simulated NVM device (internal/pmem).
	CWriteBacks         // WriteBack calls (staged cacheline write-backs)
	CWriteBackBytes     // bytes staged by WriteBack
	CWriteBackCoalesced // write-backs absorbed in place by an already-staged block (write combining)
	CFences             // Fence calls
	CDrains             // Drain calls (epoch-boundary full drains)
	CReads              // Read calls
	CReadBytes          // bytes read
	CCommits            // staged writes committed durable (fence/drain/durable writes)
	CCommitBytes        // bytes committed durable
	CCrashes            // simulated crashes
	CCrashDiscarded     // staged writes discarded by a crash
	CCrashDiscBytes     // bytes discarded by a crash
	CCrashKept          // staged writes committed by a partial crash (out-of-order eviction)
	CCrashKeptBytes     // bytes committed by a partial crash

	// Montage runtime (internal/core).
	COps              // operations started (BeginOp)
	COpRetries        // operations retried after ErrOldSeeNew
	CRecoveries       // recovery runs
	CRecoveredBlocks  // decodable blocks found by the recovery sweep
	CRecoveredLive    // blocks that survived the two-epoch cutoff
	CRecoverySweepNs  // ns spent sweeping the arena
	CRecoveryFilterNs // ns spent picking surviving versions
	CRecoveryInvalNs  // ns spent invalidating discarded blocks
	CRecoveryBuildNs  // ns spent rebuilding the index and store over the survivors

	// Allocator (internal/ralloc).
	CAllocs     // blocks allocated
	CAllocBytes // bytes allocated (block size, header included)
	CFrees      // blocks freed
	CFreeBytes  // bytes freed
	CCarves     // superblocks carved

	// Networked KV front end (internal/server).
	CNetConns        // connections accepted
	CNetConnsClosed  // connections closed
	CNetOpsGet       // get/gets commands served
	CNetOpsSet       // storage commands served (set/add/replace/cas)
	CNetOpsDelete    // delete commands served
	CNetOpsTouch     // touch commands served
	CNetOpsAdmin     // admin commands served (stats/version/flush_all/...)
	CNetBytesIn      // protocol bytes read from clients
	CNetBytesOut     // protocol bytes written to clients
	CNetProtoErrors  // protocol errors (bad magic, torn lines, bad args)
	CNetAcksBuffered // write acks sent in buffered mode (durable within two epochs)
	CNetAcksSync     // write acks sent after a forced Sync
	CNetAcksEpoch    // write acks parked until the epoch persisted naturally
	CNetAcksAborted  // parked acks failed by a crash before durability
	CNetParkWaiters  // epoch-wait waiters registered in the shared per-shard parking lot
	CNetCrashes      // crash injections served while the listener stayed up
	CNetFlushes      // vectored response flushes (one writev per batch of ready responses)
	CNetParseAllocs  // parse-path buffer growths (token array / input / response buffer); 0 in steady state

	// Client load generator (internal/server.RunLoad, cmd/montage-load).
	// These are recorded on the CLIENT side of the wire, so a recorder
	// shared with the server under test carries both halves of a run.
	CLoadOps    // operations acknowledged to the loadgen client
	CLoadReads  // acknowledged reads
	CLoadWrites // acknowledged writes
	CLoadErrors // SERVER_ERROR acks observed by the client

	numCounters
)

// HistID names one log-bucketed histogram.
type HistID int

const (
	HAdvanceNs     HistID = iota // epoch advance latency (wall ns)
	HWaitAllNs                   // quiescence (waitAll) stall inside an advance (wall ns)
	HAdvLockWaitNs               // advMu acquisition wait (daemon-vs-sync convoy)
	HSyncNs                      // Sync latency (wall ns)
	HFenceBatch                  // staged blocks committed per Fence
	HDrainBatch                  // staged blocks committed per Drain
	HCombineRatio                // write-backs per committed block x100 per fence/drain (100 = no combining)
	HAckSyncNs                   // sync-mode ack wait: forced Sync on the request path (wall ns)
	HAckEpochNs                  // epoch-wait-mode ack park time until the epoch persisted (wall ns)
	HPipelineDepth               // per-connection response-queue depth sampled at each enqueue
	HParkFanout                  // epoch-wait waiters woken per persist tick by the shared parking lot
	HLoadNs                      // loadgen client-observed request latency, send to ack (wall ns)
	HFlushBatch                  // responses coalesced into one vectored flush
	HFlushBytes                  // bytes written per vectored flush

	numHists
)

// histBuckets is the number of log2 buckets: bucket i holds values whose
// bit length is i (upper bound 2^i - 1), with the last bucket open-ended.
const histBuckets = 64

// histCell is one thread's cells for one histogram.
type histCell struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// threadCells holds one thread's counters and histograms. The trailing pad
// keeps adjacent threads' hottest cells (the counters at the front) off
// each other's cache lines.
type threadCells struct {
	counters [numCounters]atomic.Uint64
	hists    [numHists]histCell
	_        [64]byte
}

// Recorder collects runtime metrics for one Montage system (or, when
// shared via core.Config.Recorder, for a whole fleet of systems run in
// sequence, as the benchmark harness does).
type Recorder struct {
	enabled atomic.Bool
	// threads[0] is the background daemon (tid -1); threads[tid+1] is
	// worker tid. Out-of-range tids are clamped into the last slot so a
	// recorder shared across differently-sized systems never panics.
	threads []threadCells
	trace   traceRing
}

// New creates a recorder serving worker tids 0..maxThreads-1 plus the
// background daemon (tid -1). Recording starts enabled.
func New(maxThreads int) *Recorder {
	if maxThreads < 1 {
		maxThreads = 1
	}
	r := &Recorder{threads: make([]threadCells, maxThreads+1)}
	r.trace.init(DefaultTraceCap)
	r.enabled.Store(true)
	return r
}

// SetEnabled turns recording on or off. Disabled recording is a no-op on
// every path (counters, histograms, trace) and is allocation-free.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether the recorder is non-nil and recording.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// cells returns the cell block for tid, clamping unknown tids.
func (r *Recorder) cells(tid int) *threadCells {
	slot := tid + 1
	if slot < 0 {
		slot = 0
	} else if slot >= len(r.threads) {
		slot = len(r.threads) - 1
	}
	return &r.threads[slot]
}

// Add adds n to counter c on thread tid's cell.
func (r *Recorder) Add(tid int, c CounterID, n uint64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.cells(tid).counters[c].Add(n)
}

// Inc adds 1 to counter c on thread tid's cell.
func (r *Recorder) Inc(tid int, c CounterID) { r.Add(tid, c, 1) }

// Observe records value v into histogram h on thread tid's cell.
func (r *Recorder) Observe(tid int, h HistID, v uint64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	hc := &r.cells(tid).hists[h]
	hc.count.Add(1)
	hc.sum.Add(v)
	idx := bits.Len64(v)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	hc.buckets[idx].Add(1)
}

// Start returns a wall-clock reference for a latency measurement, or 0
// when recording is off (so the paired ObserveSince is also free).
func (r *Recorder) Start() int64 {
	if r == nil || !r.enabled.Load() {
		return 0
	}
	return time.Now().UnixNano()
}

// ObserveSince records the nanoseconds elapsed since start (a value
// returned by Start) into histogram h, and returns the elapsed time. A
// zero start is a no-op.
func (r *Recorder) ObserveSince(tid int, h HistID, start int64) int64 {
	if start == 0 || r == nil || !r.enabled.Load() {
		return 0
	}
	el := time.Now().UnixNano() - start
	if el < 0 {
		el = 0
	}
	r.Observe(tid, h, uint64(el))
	return el
}
