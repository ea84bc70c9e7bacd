// Package montage is a Go implementation of Montage, the general-purpose
// system for buffered persistent data structures of Wen, Cai, Du,
// Jenkins, Valpey, and Scott (ICPP '21).
//
// Montage manages persistent "payload" blocks — the semantic state of a
// data structure — on a (simulated) nonvolatile memory device, while the
// structure's lookup index lives in ordinary transient memory. Execution
// is divided into epochs by a millisecond-granularity clock; all payloads
// created or modified in epoch e persist together, atomically, when the
// clock ticks from e+1 to e+2. The result is buffered durable
// linearizability: like a file system or database, operations return
// before their effects are durable, a crash loses at most the last two
// epochs of work, and what survives is always a consistent prefix of the
// pre-crash history. A fast Sync operation forces durability on demand.
//
// # Quick start
//
//	sys, _ := montage.NewSystem(montage.Config{
//	    ArenaSize:  64 << 20,
//	    MaxThreads: 4,
//	    Epoch:      montage.EpochConfig{EpochLength: 10 * time.Millisecond},
//	})
//	defer sys.Close()
//
//	m := montage.NewHashMap(sys, 1024)
//	m.Put(0, "hello", []byte("world"))
//	sys.Sync(0) // force durability before externalizing
//
//	// ... after a crash:
//	sys2, chunks, _ := montage.RecoverParallel(dev, cfg, 4)
//	m2, _ := montage.RecoverHashMap(sys2, 1024, chunks)
//
// The packages under internal/ implement the substrates: a simulated NVM
// device with write-back/fence/crash semantics (internal/pmem), a
// Ralloc-style persistent allocator (internal/ralloc), the epoch system
// (internal/epoch), epoch-verified CAS for nonblocking structures
// (internal/dcss), and the data structure library (internal/pds).
package montage

import (
	"time"

	"montage/internal/core"
	"montage/internal/epoch"
	"montage/internal/obs"
	"montage/internal/pds"
	"montage/internal/pmem"
	"montage/internal/pool"
	"montage/internal/simclock"
)

// Config configures a Montage system. See core.Config.
type Config = core.Config

// EpochConfig tunes the epoch system (buffer sizes, epoch length,
// write-back and reclamation policies).
type EpochConfig = epoch.Config

// System is a Montage instance: one persistent arena, allocator, and
// epoch system, shared by any number of data structures.
type System = core.System

// Op is the handle for an in-flight update operation; custom data
// structures use it to create, read, modify, and delete payloads.
type Op = core.Op

// PBlk is a persistent payload block.
type PBlk = core.PBlk

// ErrOldSeeNew is returned when an operation observes a payload from a
// newer epoch; retry the operation (DoOpRetry does so automatically).
var ErrOldSeeNew = core.ErrOldSeeNew

// Device is the simulated NVM device backing a System.
type Device = pmem.Device

// Costs is the virtual-time cost model used by the benchmark harness.
type Costs = simclock.Costs

// Stats is a point-in-time snapshot of a System's runtime counters:
// epoch advances, write-back/fence/drain counts, persist-buffer drains,
// ErrOldSeeNew retries, allocator usage, and latency histograms. Obtain
// one with System.Stats().
type Stats = obs.Snapshot

// Recorder collects runtime counters. Systems create a private one by
// default; set Config.Recorder to share a recorder (and thus aggregate
// counters) across several systems. NewRecorder creates one serving
// worker thread ids 0..maxThreads-1.
type Recorder = obs.Recorder

// NewRecorder creates a stats recorder for sharing across systems via
// Config.Recorder.
func NewRecorder(maxThreads int) *Recorder { return obs.New(maxThreads) }

// TraceEvent is one entry of the epoch-lifecycle trace ring (advance,
// sync, crash, and recovery events); read it with
// System.Recorder().TraceEvents().
type TraceEvent = obs.TraceEvent

// Write-back policies (EpochConfig.Policy).
const (
	// PolicyBuffered is the default buffered write-back (per-thread
	// circular buffers with incremental overflow write-back).
	PolicyBuffered = epoch.PolicyBuffered
	// PolicyPerOp flushes an operation's payloads at EndOp.
	PolicyPerOp = epoch.PolicyPerOp
	// PolicyDirect flushes each payload write immediately.
	PolicyDirect = epoch.PolicyDirect
)

// DefaultEpochLength is the epoch length the paper found to give good
// overall performance.
const DefaultEpochLength = 10 * time.Millisecond

// NewSystem creates a Montage system over a fresh simulated-NVM arena.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Recover reopens a crashed device, discarding the two most recent
// epochs, and returns the surviving payloads for structure rebuild.
func Recover(dev *Device, cfg Config, workers int) (*System, []*PBlk, error) {
	return core.Recover(dev, cfg, workers)
}

// RecoverParallel is Recover with the survivors pre-partitioned into
// workers chunks for parallel index rebuild.
func RecoverParallel(dev *Device, cfg Config, workers int) (*System, [][]*PBlk, error) {
	return core.RecoverParallel(dev, cfg, workers)
}

// FilterByTag returns the payloads whose owning-structure tag equals
// tag; use it when several structures share one System (see the
// New*Tagged constructors in internal/pds and Op.PNewTagged).
func FilterByTag(payloads []*PBlk, tag uint16) []*PBlk {
	return core.FilterByTag(payloads, tag)
}

// Queue is the single-lock Montage queue (paper Section 6.1).
type Queue = pds.Queue

// NewQueue creates an empty queue.
func NewQueue(sys *System) *Queue { return pds.NewQueue(sys) }

// RecoverQueue rebuilds a queue from recovered payloads.
func RecoverQueue(sys *System, payloads []*PBlk) (*Queue, error) {
	return pds.RecoverQueue(sys, payloads)
}

// HashMap is the lock-per-bucket Montage hashmap (paper Figure 2).
type HashMap = pds.HashMap

// NewHashMap creates a map with nBuckets buckets.
func NewHashMap(sys *System, nBuckets int) *HashMap { return pds.NewHashMap(sys, nBuckets) }

// RecoverHashMap rebuilds a hashmap from recovered payload chunks, in
// parallel.
func RecoverHashMap(sys *System, nBuckets int, chunks [][]*PBlk) (*HashMap, error) {
	return pds.RecoverHashMap(sys, nBuckets, chunks)
}

// LFQueue is the nonblocking Montage queue (paper Section 3.3).
type LFQueue = pds.LFQueue

// NewLFQueue creates an empty nonblocking queue.
func NewLFQueue(sys *System) *LFQueue { return pds.NewLFQueue(sys) }

// RecoverLFQueue rebuilds a nonblocking queue from recovered payloads.
func RecoverLFQueue(sys *System, payloads []*PBlk) (*LFQueue, error) {
	return pds.RecoverLFQueue(sys, payloads)
}

// LFSet is the nonblocking Montage set/mapping (Harris list with
// epoch-verified CAS).
type LFSet = pds.LFSet

// NewLFSet creates an empty nonblocking set.
func NewLFSet(sys *System) *LFSet { return pds.NewLFSet(sys) }

// RecoverLFSet rebuilds a nonblocking set from recovered payload chunks.
func RecoverLFSet(sys *System, chunks [][]*PBlk) (*LFSet, error) {
	return pds.RecoverLFSet(sys, chunks)
}

// SkipListMap is the ordered Montage mapping.
type SkipListMap = pds.SkipListMap

// NewSkipListMap creates an empty ordered map.
func NewSkipListMap(sys *System) *SkipListMap { return pds.NewSkipListMap(sys) }

// RecoverSkipListMap rebuilds an ordered map from recovered payloads.
func RecoverSkipListMap(sys *System, payloads []*PBlk) (*SkipListMap, error) {
	return pds.RecoverSkipListMap(sys, payloads)
}

// LFHashMap is the nonblocking Montage hashmap (buckets of
// epoch-verified Harris lists).
type LFHashMap = pds.LFHashMap

// NewLFHashMap creates an empty nonblocking hashmap.
func NewLFHashMap(sys *System, nBuckets int) *LFHashMap { return pds.NewLFHashMap(sys, nBuckets) }

// RecoverLFHashMap rebuilds a nonblocking hashmap from recovered payload
// chunks.
func RecoverLFHashMap(sys *System, nBuckets int, chunks [][]*PBlk) (*LFHashMap, error) {
	return pds.RecoverLFHashMap(sys, nBuckets, chunks)
}

// LFSkipList is the nonblocking ordered Montage map (lock-free skiplist
// with epoch-verified linearization).
type LFSkipList = pds.LFSkipList

// NewLFSkipList creates an empty nonblocking ordered map.
func NewLFSkipList(sys *System) *LFSkipList { return pds.NewLFSkipList(sys) }

// RecoverLFSkipList rebuilds a nonblocking ordered map from recovered
// payload chunks.
func RecoverLFSkipList(sys *System, chunks [][]*PBlk) (*LFSkipList, error) {
	return pds.RecoverLFSkipList(sys, chunks)
}

// LFStack is the nonblocking Montage stack (Treiber stack with
// epoch-verified CAS).
type LFStack = pds.LFStack

// NewLFStack creates an empty nonblocking stack.
func NewLFStack(sys *System) *LFStack { return pds.NewLFStack(sys) }

// RecoverLFStack rebuilds a nonblocking stack from recovered payloads.
func RecoverLFStack(sys *System, payloads []*PBlk) (*LFStack, error) {
	return pds.RecoverLFStack(sys, payloads)
}

// Vector is the Montage persistent growable array.
type Vector = pds.Vector

// NewVector creates an empty vector.
func NewVector(sys *System) *Vector { return pds.NewVector(sys) }

// RecoverVector rebuilds a vector from recovered payloads.
func RecoverVector(sys *System, payloads []*PBlk) (*Vector, error) {
	return pds.RecoverVector(sys, payloads)
}

// EncodeFields and DecodeFields build field-structured payload data for
// use with Op.GetField/SetField — the analog of the paper's
// GENERATE_FIELD macro.
var (
	EncodeFields = core.EncodeFields
	DecodeFields = core.DecodeFields
)

// Graph is the general Montage graph (paper Section 6.3).
type Graph = pds.Graph

// NewGraph creates an empty graph with nStripes lock stripes.
func NewGraph(sys *System, nStripes int) *Graph { return pds.NewGraph(sys, nStripes) }

// RecoverGraph rebuilds a graph from recovered payload chunks using the
// paper's parallel vertex-distribution scheme.
func RecoverGraph(sys *System, nStripes int, chunks [][]*PBlk) (*Graph, error) {
	return pds.RecoverGraph(sys, nStripes, chunks)
}

// CrashDropAll and CrashPartial select crash semantics for
// Device.Crash: drop all un-fenced writes, or persist a random subset
// (modeling out-of-order cacheline eviction).
const (
	CrashDropAll = pmem.CrashDropAll
	CrashPartial = pmem.CrashPartial
)

// Pool is a sharded Montage runtime: N fully independent Systems —
// each with its own arena, allocator, and epoch clock — behind a
// stable key router. Shards persist independently; there is no
// cross-shard ordering or atomicity. A one-shard Pool behaves exactly
// like a single System and reads/writes the same single-file images.
type Pool = pool.Pool

// PoolConfig configures a Pool: the shard count plus the per-shard
// system Config.
type PoolConfig = pool.Config

// PoolStats is an aggregate snapshot across a Pool's shards.
type PoolStats = pool.PoolStats

// NewPool creates a fresh pool of cfg.Shards independent systems.
func NewPool(cfg PoolConfig) (*Pool, error) { return pool.New(cfg) }

// OpenPool reopens a saved pool image — a single file for one shard,
// a manifest directory for several — recovering every shard in
// parallel. The image's shard count overrides cfg.Shards, so keys
// stored before the reopen keep routing to their original shards.
// A missing path returns loaded=false and no error.
func OpenPool(path string, cfg PoolConfig, workers int) (*Pool, [][][]*PBlk, bool, error) {
	return pool.Open(path, cfg, workers)
}

// ShardForKey routes key to one of n shards with a process-stable
// hash (FNV-1a), so routing survives save/reopen cycles.
func ShardForKey(key string, n int) int { return pool.ShardForKey(key, n) }
