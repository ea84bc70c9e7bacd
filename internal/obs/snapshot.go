package obs

import "time"

// rawHist is an aggregated histogram.
type rawHist struct {
	count   uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// rawStats is the flat aggregate a snapshot is built from; keeping it on
// the Snapshot lets Sub produce exact interval deltas (including correct
// percentiles recomputed from bucket differences).
type rawStats struct {
	counters [numCounters]uint64
	hists    [numHists]rawHist
}

// EpochStats are the epoch system's counters.
type EpochStats struct {
	Advances        uint64 `json:"advances"`
	Syncs           uint64 `json:"syncs"`
	PersistQueued   uint64 `json:"persist_queued"`
	PersistBoundary uint64 `json:"persist_boundary"`
	PersistOverflow uint64 `json:"persist_overflow"`
	PersistWorker   uint64 `json:"persist_worker"`
	PersistDirect   uint64 `json:"persist_direct"`
	PersistDead     uint64 `json:"persist_dead_skipped"`
	PersistBytes    uint64 `json:"persist_bytes"`
	// PersistPending is derived: payloads queued but not yet written back
	// (or skipped as dead) anywhere in the system.
	PersistPending    uint64 `json:"persist_pending"`
	FreeQueued        uint64 `json:"free_queued"`
	FreeReclaimed     uint64 `json:"free_reclaimed"`
	MindicatorSkips   uint64 `json:"mindicator_skips"`
	MindicatorScans   uint64 `json:"mindicator_scans"`
	PendClampNegative uint64 `json:"pend_clamp_negative"`
}

// DeviceStats are the simulated NVM device's counters.
type DeviceStats struct {
	WriteBacks     uint64 `json:"write_backs"`
	WriteBackBytes uint64 `json:"write_back_bytes"`
	// WriteBackCoalesced counts write-backs absorbed in place by an
	// already-staged copy of the same block; the staging layer's write
	// combining turns these into zero commit work.
	WriteBackCoalesced uint64 `json:"write_backs_coalesced"`
	Fences             uint64 `json:"fences"`
	Drains             uint64 `json:"drains"`
	Reads              uint64 `json:"reads"`
	ReadBytes          uint64 `json:"read_bytes"`
	Commits            uint64 `json:"commits"`
	CommitBytes        uint64 `json:"commit_bytes"`
	Crashes            uint64 `json:"crashes"`
	CrashDiscarded     uint64 `json:"crash_discarded_writes"`
	CrashDiscBytes     uint64 `json:"crash_discarded_bytes"`
	CrashKept          uint64 `json:"crash_committed_writes"`
	CrashKeptBytes     uint64 `json:"crash_committed_bytes"`
}

// RuntimeStats are the Montage operation and recovery counters.
type RuntimeStats struct {
	Ops                uint64 `json:"ops"`
	OpRetries          uint64 `json:"op_retries"` // ErrOldSeeNew restarts
	Recoveries         uint64 `json:"recoveries"`
	RecoveredBlocks    uint64 `json:"recovered_blocks"`
	RecoveredSurvivors uint64 `json:"recovered_survivors"`
	RecoverySweepNs    uint64 `json:"recovery_sweep_ns"`
	RecoveryFilterNs   uint64 `json:"recovery_filter_ns"`
	RecoveryInvalNs    uint64 `json:"recovery_invalidate_ns"`
	RecoveryRebuildNs  uint64 `json:"recovery_rebuild_ns"`
}

// AllocStats are the allocator's counters.
type AllocStats struct {
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Frees      uint64 `json:"frees"`
	FreeBytes  uint64 `json:"free_bytes"`
	// BlocksInUse and BytesInUse are derived (allocs - frees, clamped).
	BlocksInUse uint64 `json:"blocks_in_use"`
	BytesInUse  uint64 `json:"bytes_in_use"`
	Carves      uint64 `json:"superblocks_carved"`
}

// ServerStats are the networked KV front end's counters (internal/server).
type ServerStats struct {
	Conns        uint64 `json:"conns"`
	ConnsClosed  uint64 `json:"conns_closed"`
	OpsGet       uint64 `json:"ops_get"`
	OpsSet       uint64 `json:"ops_set"`
	OpsDelete    uint64 `json:"ops_delete"`
	OpsTouch     uint64 `json:"ops_touch"`
	OpsAdmin     uint64 `json:"ops_admin"`
	BytesIn      uint64 `json:"bytes_in"`
	BytesOut     uint64 `json:"bytes_out"`
	ProtoErrors  uint64 `json:"proto_errors"`
	AcksBuffered uint64 `json:"acks_buffered"`
	AcksSync     uint64 `json:"acks_sync"`
	AcksEpoch    uint64 `json:"acks_epoch_wait"`
	AcksAborted  uint64 `json:"acks_aborted"`
	ParkWaiters  uint64 `json:"park_waiters"`
	Crashes      uint64 `json:"crash_injections"`
	Flushes      uint64 `json:"flushes"`
	ParseAllocs  uint64 `json:"parse_allocs"`
}

// ChaosStats are the crash-consistency chaos harness's counters
// (internal/chaos).
type ChaosStats struct {
	Schedules  uint64 `json:"schedules"`
	Ops        uint64 `json:"ops"`
	Crashes    uint64 `json:"crashes"`
	Violations uint64 `json:"violations"`
}

// LoadStats are the client-side load generator's counters (what the
// loadgen saw acknowledged over the wire, as opposed to ServerStats'
// server-side view).
type LoadStats struct {
	Ops    uint64 `json:"ops"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Errors uint64 `json:"errors"`
}

// HistStats summarizes one log-bucketed histogram. The percentile
// fields are linearly interpolated within their log2 bucket (rounded to
// the nearest integer), so they carry sub-bucket resolution; Max is the
// highest occupied bucket's upper bound, an approximation with at most
// 2x relative error.
type HistStats struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`

	// buckets backs Percentile for snapshots built in-process
	// (Snapshot, Sub, Merge). It does not survive a JSON round trip:
	// decoded HistStats fall back to the precomputed fields.
	buckets *[histBuckets]uint64
}

// Percentile returns the q-quantile (q in [0,1]) of the histogram,
// linearly interpolated within its log2 bucket. For a HistStats that
// lost its buckets to serialization it interpolates between the nearest
// precomputed percentile fields instead; an empty histogram yields 0.
func (h HistStats) Percentile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if h.buckets != nil {
		return percentileInterp(h.buckets, h.Count, q)
	}
	// Bucketless fallback: piecewise between the stored summary points.
	pts := []struct {
		q float64
		v uint64
	}{{0, 0}, {0.50, h.P50}, {0.90, h.P90}, {0.95, h.P95}, {0.99, h.P99}, {1, h.Max}}
	if q <= 0 {
		return 0
	}
	for i := 1; i < len(pts); i++ {
		if q <= pts[i].q {
			span := pts[i].q - pts[i-1].q
			frac := (q - pts[i-1].q) / span
			return float64(pts[i-1].v) + frac*(float64(pts[i].v)-float64(pts[i-1].v))
		}
	}
	return float64(h.Max)
}

// LatencyStats groups the histograms.
type LatencyStats struct {
	AdvanceNs     HistStats `json:"advance_ns"`
	WaitAllNs     HistStats `json:"wait_all_ns"`
	AdvLockWaitNs HistStats `json:"adv_lock_wait_ns"`
	SyncNs        HistStats `json:"sync_ns"`
	FenceBatch    HistStats `json:"fence_batch"`
	DrainBatch    HistStats `json:"drain_batch"`
	CombineRatio  HistStats `json:"combine_ratio_x100"`
	AckSyncNs     HistStats `json:"ack_sync_ns"`
	AckEpochNs    HistStats `json:"ack_epoch_wait_ns"`
	PipelineDepth HistStats `json:"pipeline_depth"`
	ParkFanout    HistStats `json:"park_fanout"`
	LoadNs        HistStats `json:"load_ns"`
	FlushBatch    HistStats `json:"flush_batch"`
	FlushBytes    HistStats `json:"flush_bytes"`
}

// Snapshot is a point-in-time aggregate of a Recorder's counters and
// histograms. It is what Stats(), the expvar export, and the JSON
// sampler all emit.
type Snapshot struct {
	UnixNs  int64        `json:"unix_ns"`
	Enabled bool         `json:"enabled"`
	Epoch   EpochStats   `json:"epoch"`
	Device  DeviceStats  `json:"device"`
	Runtime RuntimeStats `json:"runtime"`
	Alloc   AllocStats   `json:"alloc"`
	Server  ServerStats  `json:"server"`
	Chaos   ChaosStats   `json:"chaos"`
	Load    LoadStats    `json:"load"`
	Latency LatencyStats `json:"latency"`

	raw *rawStats
}

// Snapshot aggregates every thread's cells into a consistent-enough view:
// each individual counter is read atomically and is monotonic, so any
// snapshot is a valid interleaving point, though counters incremented by
// racing threads mid-aggregation may be split across two snapshots.
func (r *Recorder) Snapshot() Snapshot {
	var raw rawStats
	if r != nil {
		for t := range r.threads {
			tc := &r.threads[t]
			for c := 0; c < int(numCounters); c++ {
				raw.counters[c] += tc.counters[c].Load()
			}
			for h := 0; h < int(numHists); h++ {
				hc := &tc.hists[h]
				rh := &raw.hists[h]
				rh.count += hc.count.Load()
				rh.sum += hc.sum.Load()
				for b := 0; b < histBuckets; b++ {
					rh.buckets[b] += hc.buckets[b].Load()
				}
			}
		}
	}
	s := buildSnapshot(&raw)
	s.UnixNs = time.Now().UnixNano()
	s.Enabled = r.Enabled()
	return s
}

// Sub returns the interval delta s - prev: counters are subtracted and
// histogram summaries (including percentiles) recomputed from the bucket
// differences. Both snapshots must come from the same Recorder, with prev
// taken first.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	if s.raw == nil || prev.raw == nil {
		return s
	}
	var d rawStats
	for c := range d.counters {
		d.counters[c] = sub64(s.raw.counters[c], prev.raw.counters[c])
	}
	for h := range d.hists {
		d.hists[h].count = sub64(s.raw.hists[h].count, prev.raw.hists[h].count)
		d.hists[h].sum = sub64(s.raw.hists[h].sum, prev.raw.hists[h].sum)
		for b := 0; b < histBuckets; b++ {
			d.hists[h].buckets[b] = sub64(s.raw.hists[h].buckets[b], prev.raw.hists[h].buckets[b])
		}
	}
	out := buildSnapshot(&d)
	out.UnixNs = s.UnixNs
	out.Enabled = s.Enabled
	return out
}

// Merge returns the element-wise sum of the given snapshots: counters
// add, histogram buckets add, and the summaries (including percentiles)
// are recomputed from the merged buckets. It is how a sharded pool with
// per-shard recorders aggregates into one pool-wide view. Snapshots
// without raw data (e.g. already-merged or zero snapshots) contribute
// nothing. Enabled is the OR of the inputs; UnixNs is the latest.
func Merge(snaps ...Snapshot) Snapshot {
	var m rawStats
	var unix int64
	enabled := false
	for i := range snaps {
		s := &snaps[i]
		if s.UnixNs > unix {
			unix = s.UnixNs
		}
		enabled = enabled || s.Enabled
		if s.raw == nil {
			continue
		}
		for c := range m.counters {
			m.counters[c] += s.raw.counters[c]
		}
		for h := range m.hists {
			m.hists[h].count += s.raw.hists[h].count
			m.hists[h].sum += s.raw.hists[h].sum
			for b := 0; b < histBuckets; b++ {
				m.hists[h].buckets[b] += s.raw.hists[h].buckets[b]
			}
		}
	}
	out := buildSnapshot(&m)
	out.UnixNs = unix
	out.Enabled = enabled
	return out
}

func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// buildSnapshot derives the named stats structs from a raw aggregate.
func buildSnapshot(raw *rawStats) Snapshot {
	c := &raw.counters
	var s Snapshot
	s.raw = raw
	s.Epoch = EpochStats{
		Advances:        c[CEpochAdvances],
		Syncs:           c[CEpochSyncs],
		PersistQueued:   c[CPersistQueued],
		PersistBoundary: c[CPersistBoundary],
		PersistOverflow: c[CPersistOverflow],
		PersistWorker:   c[CPersistWorker],
		PersistDirect:   c[CPersistDirect],
		PersistDead:     c[CPersistDead],
		PersistBytes:    c[CPersistBytes],
		// A queued payload is resolved by exactly one of: a boundary,
		// overflow or worker write-back, or being skipped as dead.
		PersistPending: sub64(c[CPersistQueued],
			c[CPersistBoundary]+c[CPersistOverflow]+c[CPersistWorker]+c[CPersistDead]),
		FreeQueued:        c[CFreeQueued],
		FreeReclaimed:     c[CFreeReclaimed],
		MindicatorSkips:   c[CMindicatorSkips],
		MindicatorScans:   c[CMindicatorScans],
		PendClampNegative: c[CPendClampNegative],
	}
	s.Device = DeviceStats{
		WriteBacks:         c[CWriteBacks],
		WriteBackBytes:     c[CWriteBackBytes],
		WriteBackCoalesced: c[CWriteBackCoalesced],
		Fences:             c[CFences],
		Drains:             c[CDrains],
		Reads:              c[CReads],
		ReadBytes:          c[CReadBytes],
		Commits:            c[CCommits],
		CommitBytes:        c[CCommitBytes],
		Crashes:            c[CCrashes],
		CrashDiscarded:     c[CCrashDiscarded],
		CrashDiscBytes:     c[CCrashDiscBytes],
		CrashKept:          c[CCrashKept],
		CrashKeptBytes:     c[CCrashKeptBytes],
	}
	s.Runtime = RuntimeStats{
		Ops:                c[COps],
		OpRetries:          c[COpRetries],
		Recoveries:         c[CRecoveries],
		RecoveredBlocks:    c[CRecoveredBlocks],
		RecoveredSurvivors: c[CRecoveredLive],
		RecoverySweepNs:    c[CRecoverySweepNs],
		RecoveryFilterNs:   c[CRecoveryFilterNs],
		RecoveryInvalNs:    c[CRecoveryInvalNs],
		RecoveryRebuildNs:  c[CRecoveryBuildNs],
	}
	s.Alloc = AllocStats{
		Allocs:      c[CAllocs],
		AllocBytes:  c[CAllocBytes],
		Frees:       c[CFrees],
		FreeBytes:   c[CFreeBytes],
		BlocksInUse: sub64(c[CAllocs], c[CFrees]),
		BytesInUse:  sub64(c[CAllocBytes], c[CFreeBytes]),
		Carves:      c[CCarves],
	}
	s.Server = ServerStats{
		Conns:        c[CNetConns],
		ConnsClosed:  c[CNetConnsClosed],
		OpsGet:       c[CNetOpsGet],
		OpsSet:       c[CNetOpsSet],
		OpsDelete:    c[CNetOpsDelete],
		OpsTouch:     c[CNetOpsTouch],
		OpsAdmin:     c[CNetOpsAdmin],
		BytesIn:      c[CNetBytesIn],
		BytesOut:     c[CNetBytesOut],
		ProtoErrors:  c[CNetProtoErrors],
		AcksBuffered: c[CNetAcksBuffered],
		AcksSync:     c[CNetAcksSync],
		AcksEpoch:    c[CNetAcksEpoch],
		AcksAborted:  c[CNetAcksAborted],
		ParkWaiters:  c[CNetParkWaiters],
		Crashes:      c[CNetCrashes],
		Flushes:      c[CNetFlushes],
		ParseAllocs:  c[CNetParseAllocs],
	}
	s.Chaos = ChaosStats{
		Schedules:  c[CChaosSchedules],
		Ops:        c[CChaosOps],
		Crashes:    c[CChaosCrashes],
		Violations: c[CChaosViolations],
	}
	s.Load = LoadStats{
		Ops:    c[CLoadOps],
		Reads:  c[CLoadReads],
		Writes: c[CLoadWrites],
		Errors: c[CLoadErrors],
	}
	s.Latency = LatencyStats{
		AdvanceNs:     summarize(&raw.hists[HAdvanceNs]),
		WaitAllNs:     summarize(&raw.hists[HWaitAllNs]),
		AdvLockWaitNs: summarize(&raw.hists[HAdvLockWaitNs]),
		SyncNs:        summarize(&raw.hists[HSyncNs]),
		FenceBatch:    summarize(&raw.hists[HFenceBatch]),
		DrainBatch:    summarize(&raw.hists[HDrainBatch]),
		CombineRatio:  summarize(&raw.hists[HCombineRatio]),
		AckSyncNs:     summarize(&raw.hists[HAckSyncNs]),
		AckEpochNs:    summarize(&raw.hists[HAckEpochNs]),
		PipelineDepth: summarize(&raw.hists[HPipelineDepth]),
		ParkFanout:    summarize(&raw.hists[HParkFanout]),
		LoadNs:        summarize(&raw.hists[HLoadNs]),
		FlushBatch:    summarize(&raw.hists[HFlushBatch]),
		FlushBytes:    summarize(&raw.hists[HFlushBytes]),
	}
	return s
}

// bucketBound is the inclusive upper bound of bucket i.
func bucketBound(i int) uint64 {
	if i >= 64 {
		i = 64
	}
	return 1<<uint(i) - 1
}

func summarize(h *rawHist) HistStats {
	st := HistStats{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return st
	}
	buckets := h.buckets // copy: the raw aggregate stays mutable-free
	st.buckets = &buckets
	st.Mean = float64(h.sum) / float64(h.count)
	st.P50 = uint64(percentileInterp(&buckets, h.count, 0.50) + 0.5)
	st.P90 = uint64(percentileInterp(&buckets, h.count, 0.90) + 0.5)
	st.P95 = uint64(percentileInterp(&buckets, h.count, 0.95) + 0.5)
	st.P99 = uint64(percentileInterp(&buckets, h.count, 0.99) + 0.5)
	for b := histBuckets - 1; b >= 0; b-- {
		if h.buckets[b] > 0 {
			st.Max = bucketBound(b)
			break
		}
	}
	return st
}

// bucketLow is the inclusive lower bound of bucket i (values of bit
// length i): 0 for the zero bucket, 2^(i-1) otherwise.
func bucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i > 63 {
		i = 63
	}
	return 1 << uint(i-1)
}

// percentileInterp finds the bucket holding the q-quantile's rank and
// interpolates linearly between the bucket's bounds by the rank's
// position among the bucket's observations — sub-bucket resolution on
// top of the log2 layout (within a bucket the estimate assumes a
// uniform spread, so it is exact at bucket edges and at most half a
// bucket off inside).
func percentileInterp(buckets *[histBuckets]uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		n := buckets[b]
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) >= rank {
			lo, hi := bucketLow(b), bucketBound(b)
			frac := (rank - float64(cum)) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	return float64(bucketBound(histBuckets - 1))
}
