// Package pmem simulates a byte-addressable nonvolatile memory device with
// the failure semantics that Montage is designed against.
//
// On real hardware, a store to persistent memory lands in the volatile CPU
// cache; a clwb-style write-back pushes the line toward the DIMM, and a
// store fence guarantees that previously written-back lines have reached
// the persistence domain. A power failure loses everything that has not
// crossed that boundary, and lines may also be evicted (and thus persist)
// out of program order.
//
// This package models exactly that boundary. The Device owns a durable
// byte arena (the "media"). Mutations are staged per thread by WriteBack
// and only reach the arena on Fence. Crash discards staged writes — or,
// under a seeded fuzz mode, commits a random subset of them, modeling
// out-of-order cacheline eviction — after which only the arena contents
// are visible to recovery, just as after a real power failure.
//
// Staging is write-combining, as a real cache is: repeated write-backs to
// the same block coalesce into one staged copy (newest wins), so an
// epoch's worth of updates to a hot payload commits exactly once at the
// fence. Staged copies are recycled through a per-thread pool, making the
// steady-state WriteBack+Fence and Drain paths allocation-free. Drain
// commits the combined cross-thread batch serially on its caller's
// goroutine; the per-address coherence state is striped so that concurrent
// worker fences and reads do not serialize behind one lock. Recovery reads
// the arena in place through View, as it would a DAX-mapped device.
package pmem

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"montage/internal/obs"
	"montage/internal/simclock"
)

// Addr is an offset into the device arena. 0 is reserved as the nil
// address; valid allocations never start at 0.
type Addr uint64

// NilAddr is the zero Addr, used as a null persistent pointer.
const NilAddr Addr = 0

// ErrOutOfRange reports an access outside the device arena.
var ErrOutOfRange = errors.New("pmem: access out of range")

type stagedWrite struct {
	addr Addr
	data []byte
	seq  uint64
}

// maxPoolBufs bounds the per-thread staging-buffer pool; overflow is left
// to the garbage collector.
const maxPoolBufs = 512

// threadBuf is one thread's write-combining staging buffer: an
// address-indexed set of staged blocks plus a pool of recycled copies.
type threadBuf struct {
	mu       sync.Mutex
	staged   []stagedWrite
	index    map[Addr]int // addr -> position in staged
	pool     [][]byte     // recycled staging copies
	inactive []stagedWrite
	absorbed uint64 // write-backs coalesced into an existing entry since the last steal
	// indexHigh is the largest batch the current index table has held: a
	// Go map keeps the capacity of its high-water mark, and clear pays for
	// all of it.
	indexHigh int
	// smallSteals counts the steals in a row that were under
	// indexHigh/clearShare.
	smallSteals int
}

// clearShare is the share of the index's high-water mark below which a
// steal deletes its own keys instead of clearing the table: clear is a
// few ns per slot of capacity, delete a few tens of ns per key.
const clearShare = 8

// forgetSteals is the run of small steals after which the index table
// is dropped. An epoch advance alternates a large drain with a one-block
// clock fence on the same buffer, so dropping at the first small steal
// would regrow the table every epoch; a bulk batch (a preload) followed
// only by small ones is forgotten after this many.
const forgetSteals = 64

// stageLocked returns a staging buffer of n bytes for addr, coalescing
// with an existing staged entry for the same block (newest wins, at block
// granularity — exactly the behavior of a dirty cache line absorbing
// repeated stores). The caller holds b.mu and fills the returned buffer
// before releasing it.
func (b *threadBuf) stageLocked(d *Device, addr Addr, n int) ([]byte, bool) {
	seq := d.seq.Add(1)
	if i, ok := b.index[addr]; ok {
		e := &b.staged[i]
		if cap(e.data) >= n {
			e.data = e.data[:n]
		} else {
			b.putBuf(e.data)
			e.data = make([]byte, n)
		}
		e.seq = seq
		b.absorbed++
		return e.data, true
	}
	if b.index == nil {
		b.index = make(map[Addr]int)
	}
	buf := b.takeBuf(n)
	b.staged = append(b.staged, stagedWrite{addr: addr, data: buf, seq: seq})
	b.index[addr] = len(b.staged) - 1
	return buf, false
}

// takeBuf pops a pooled buffer with capacity >= n, or allocates one.
// Payload sizes repeat, so the scan almost always hits at the top.
func (b *threadBuf) takeBuf(n int) []byte {
	for i := len(b.pool) - 1; i >= 0; i-- {
		if cap(b.pool[i]) >= n {
			buf := b.pool[i][:n]
			b.pool[i] = b.pool[len(b.pool)-1]
			b.pool = b.pool[:len(b.pool)-1]
			return buf
		}
	}
	return make([]byte, n)
}

func (b *threadBuf) putBuf(buf []byte) {
	if cap(buf) > 0 && len(b.pool) < maxPoolBufs {
		b.pool = append(b.pool, buf[:0])
	}
}

// stealLocked detaches the staged batch for committing, leaving the
// buffer ready for new writes without allocating (the batch array comes
// back via recycleLocked). It returns the batch and the number of
// WriteBack calls it represents (coalesced writes included).
func (b *threadBuf) stealLocked() ([]stagedWrite, uint64) {
	if len(b.staged) == 0 {
		return nil, 0
	}
	batch := b.staged
	b.staged = b.inactive[:0]
	b.inactive = nil
	// After one bulk batch (a preload) the index keeps the bulk batch's
	// table: clear would charge every later one-block fence for all of it,
	// and even a lookup hashes into it. A batch well below the high-water
	// mark deletes its own keys, and a long enough run of them drops the
	// table (the next stage allocates a fresh one).
	if len(batch) > b.indexHigh {
		b.indexHigh = len(batch)
	}
	if len(batch) < b.indexHigh/clearShare {
		for i := range batch {
			delete(b.index, batch[i].addr)
		}
		if b.smallSteals++; b.smallSteals == forgetSteals {
			b.index = nil
			b.indexHigh, b.smallSteals = 0, 0
		}
	} else {
		clear(b.index)
		b.smallSteals = 0
	}
	writes := b.absorbed + uint64(len(batch))
	b.absorbed = 0
	return batch, writes
}

// recycleLocked returns a committed batch's staging copies to the pool
// and reinstates the batch array as the spare. The caller holds b.mu.
func (b *threadBuf) recycleLocked(batch []stagedWrite) {
	for i := range batch {
		b.putBuf(batch[i].data)
		batch[i] = stagedWrite{}
	}
	if b.inactive == nil {
		b.inactive = batch[:0]
	}
}

// numStripes is the number of coherence stripes the per-address commit
// state is sharded over. Committers and readers lock only their block's
// stripe, so concurrent worker fences and reads do not serialize behind
// one global mutex.
const numStripes = 16

// stripe holds the last committed sequence numbers for the addresses
// that hash to it.
type stripe struct {
	mu      sync.Mutex
	lastSeq map[Addr]uint64
	_       [40]byte // reduce false sharing between stripes
}

// Device is a simulated NVM DIMM set.
//
// The device is per-address coherent, as real cache hierarchies are: every
// write (staged or durable) is stamped with a global sequence number, and
// a staged write only commits to the media if no newer write to the same
// address has already committed. Without this, a stale write-back sitting
// in one thread's staging buffer could clobber a block that was freed,
// reallocated, and rewritten by another thread — something cache coherence
// makes impossible on real hardware. Coherence is tracked per block start
// address: all writers of a block (payload write-backs, header
// invalidations) address its first byte, so the per-address order is the
// per-block order.
type Device struct {
	// arenaMu is held shared by every commit and read and exclusively by
	// whole-arena operations (Snapshot, Save, Crash); per-address mutual
	// exclusion among committers comes from the stripe locks.
	arenaMu sync.RWMutex
	durable []byte
	stripes [numStripes]stripe

	seq     atomic.Uint64
	threads []threadBuf
	clk     *simclock.Clock
	stats   obs.Holder

	// drainMu serializes whole-device steals (Drain, Crash) and guards
	// their reusable scratch.
	drainMu      sync.Mutex
	drainAll     []stagedWrite
	drainBatches []stolenBatch

	crashRNG *rand.Rand
	rngMu    sync.Mutex

	// failed is the fail-stop flag: set by Crash (the machine is off),
	// cleared by Revive when recovery reopens the media. While set, new
	// staging and durable writes are silently discarded, so a stale thread
	// that raced the crash cannot seed writes for a post-recovery fence to
	// commit.
	failed atomic.Bool
	// crashFloor is the global sequence stamp at the most recent crash.
	// Every staged write with seq <= crashFloor died in that crash; a
	// commit attempt for one (a fence or drain that had already
	// stolen its batch when the power failed) must not reach the media.
	crashFloor atomic.Uint64

	// armMu guards the (at most one) armed in-device crash.
	armMu sync.Mutex
	armed *armedCrash
}

// stolenBatch remembers which thread a stolen batch came from so its
// buffers can be recycled after the commit.
type stolenBatch struct {
	b     *threadBuf
	batch []stagedWrite
}

// SetRecorder attaches an observability recorder; WriteBack, Fence,
// Drain, Read, and Crash report their counts to it. Safe to call while
// the device is in use.
func (d *Device) SetRecorder(r *obs.Recorder) { d.stats.Set(r) }

// Recorder returns the attached observability recorder, or nil.
func (d *Device) Recorder() *obs.Recorder { return d.stats.Get() }

// NewDevice creates a device with the given arena size in bytes, serving
// up to maxThreads worker threads plus the background daemon. clk may be
// nil, in which case no virtual-time costs are charged.
func NewDevice(size int, maxThreads int, clk *simclock.Clock) *Device {
	if maxThreads < 1 {
		maxThreads = 1
	}
	d := &Device{
		durable: make([]byte, size),
		threads: make([]threadBuf, maxThreads+1), // +1 for daemon
		clk:     clk,
	}
	for i := range d.stripes {
		d.stripes[i].lastSeq = make(map[Addr]uint64)
	}
	return d
}

// stripeFor hashes a block address to its coherence stripe.
func (d *Device) stripeFor(addr Addr) *stripe {
	return &d.stripes[(uint64(addr)*0x9E3779B97F4A7C15)>>60&(numStripes-1)]
}

// Size returns the arena size in bytes.
func (d *Device) Size() int { return len(d.durable) }

// Clock returns the virtual clock attached to the device (may be nil).
func (d *Device) Clock() *simclock.Clock { return d.clk }

func (d *Device) buf(tid int) *threadBuf {
	if tid == simclock.DaemonTID {
		return &d.threads[len(d.threads)-1]
	}
	return &d.threads[tid]
}

func (d *Device) check(addr Addr, n int) error {
	if addr == NilAddr || int(addr)+n > len(d.durable) {
		return fmt.Errorf("%w: addr=%d len=%d size=%d", ErrOutOfRange, addr, n, len(d.durable))
	}
	return nil
}

// WriteBack stages data for persistence at addr, charging tid the
// write-back cost. The data does not become durable until the next Fence
// by the same thread. The slice is copied into a pooled staging buffer; a
// later WriteBack by the same thread to the same block overwrites the
// staged copy in place (newest wins), so repeated updates to one payload
// commit once.
func (d *Device) WriteBack(tid int, addr Addr, data []byte) error {
	if err := d.check(addr, len(data)); err != nil {
		return err
	}
	if d.failed.Load() {
		return nil
	}
	b := d.buf(tid)
	b.mu.Lock()
	dst, coalesced := b.stageLocked(d, addr, len(data))
	copy(dst, data)
	b.mu.Unlock()
	d.finishStage(tid, len(data), coalesced)
	return nil
}

// Encoder fills a staging buffer with a block's serialized image. Payload
// blocks implement it so the persistence pipeline can serialize header and
// data directly into the (pooled) staging copy in one write-back, without
// an intermediate allocation.
type Encoder interface {
	PEncodeInto(dst []byte)
}

// WriteBackEncoded stages an n-byte block at addr, letting enc serialize
// directly into the staging buffer. Combining, pooling, virtual-time
// charges, and durability semantics are identical to WriteBack.
func (d *Device) WriteBackEncoded(tid int, addr Addr, n int, enc Encoder) error {
	if err := d.check(addr, n); err != nil {
		return err
	}
	if d.failed.Load() {
		return nil
	}
	b := d.buf(tid)
	b.mu.Lock()
	dst, coalesced := b.stageLocked(d, addr, n)
	enc.PEncodeInto(dst)
	b.mu.Unlock()
	d.finishStage(tid, n, coalesced)
	return nil
}

// finishStage charges the virtual-time and statistics cost of one staged
// write-back.
func (d *Device) finishStage(tid, n int, coalesced bool) {
	d.clk.ChargeNVMWrite(tid, n)
	d.clk.ChargeWriteBack(tid, n)
	if rec := d.stats.Get(); rec != nil {
		rec.Inc(tid, obs.CWriteBacks)
		rec.Add(tid, obs.CWriteBackBytes, uint64(n))
		if coalesced {
			rec.Inc(tid, obs.CWriteBackCoalesced)
		}
	}
}

// commitBatch applies a batch of staged writes to the media, skipping any
// write superseded by a newer committed write to the same block. It
// returns the batch's byte count. Entries touch only their own block's
// stripe, so concurrent commitBatch calls (worker fences, a drain)
// proceed independently.
func (d *Device) commitBatch(batch []stagedWrite) uint64 {
	var bytes uint64
	d.arenaMu.RLock()
	// Writes staged at or below the crash floor died with the machine: a
	// fence or drain that had already stolen its batch when Crash
	// fired must not land it on the media afterward and let recovery see
	// blocks that were never fenced. Crash publishes the floor under the
	// exclusive arena lock, so a batch is committed entirely before the
	// crash or dropped entirely after it.
	floor := d.crashFloor.Load()
	for i := range batch {
		w := &batch[i]
		if w.seq <= floor {
			continue
		}
		st := d.stripeFor(w.addr)
		st.mu.Lock()
		if st.lastSeq[w.addr] <= w.seq {
			st.lastSeq[w.addr] = w.seq
			copy(d.durable[w.addr:], w.data)
		}
		st.mu.Unlock()
		bytes += uint64(len(w.data))
	}
	d.arenaMu.RUnlock()
	return bytes
}

// Fence commits all writes staged by tid to the durable arena, charging
// the fence cost. After Fence returns, those writes survive Crash.
//
// The steal and the commit happen under the buffer lock, so the batch is
// never in flight where a concurrent Drain cannot see it: Drain either
// takes the batch itself or waits on this buffer until the commit is
// done. An epoch advance relies on that — its Drain must cover the
// write-backs of a worker that is fencing its own previous-epoch payloads
// (the sync-helping path) at the same moment, or the durable clock could
// certify an epoch one of whose payloads a crash can still lose.
func (d *Device) Fence(tid int) {
	if a := d.takeArmed(CrashAtFence); a != nil {
		// The power failed inside this fence, before anything committed:
		// the writes it was about to commit are still in the buffer, part
		// of the crash's staged population (sampling-eligible under
		// CrashPartial).
		d.Crash(a.mode)
		if a.notify != nil {
			a.notify()
		}
		return
	}
	b := d.buf(tid)
	b.mu.Lock()
	batch, writes := b.stealLocked()
	n := uint64(len(batch))
	var bytes uint64
	if n > 0 {
		bytes = d.commitBatch(batch)
		b.recycleLocked(batch)
	}
	b.mu.Unlock()
	d.clk.ChargeFence(tid)
	if rec := d.stats.Get(); rec != nil {
		rec.Inc(tid, obs.CFences)
		rec.Observe(tid, obs.HFenceBatch, n)
		if n > 0 {
			rec.Observe(tid, obs.HCombineRatio, writes*100/n)
			rec.Add(tid, obs.CCommits, n)
			rec.Add(tid, obs.CCommitBytes, bytes)
		}
	}
}

// stealAllLocked detaches every thread's staged batch into the device
// scratch, in global sequence order. The caller holds d.drainMu and is
// responsible for recycling via recycleAllLocked.
func (d *Device) stealAllLocked() (all []stagedWrite, writes uint64) {
	all = d.drainAll[:0]
	d.drainBatches = d.drainBatches[:0]
	for i := range d.threads {
		b := &d.threads[i]
		b.mu.Lock()
		batch, w := b.stealLocked()
		b.mu.Unlock()
		if len(batch) > 0 {
			all = append(all, batch...)
			d.drainBatches = append(d.drainBatches, stolenBatch{b, batch})
			writes += w
		}
	}
	// Global write order: the combined batch is sequenced by the global
	// write stamp, not by per-thread append order, so cross-thread writes
	// to one block commit (and crash-sample) oldest to newest.
	slices.SortFunc(all, func(a, b stagedWrite) int { return cmp.Compare(a.seq, b.seq) })
	d.drainAll = all
	return all, writes
}

// recycleAllLocked returns the stolen batches' buffers to their threads'
// pools. The caller holds d.drainMu.
func (d *Device) recycleAllLocked() {
	for i := range d.drainBatches {
		s := &d.drainBatches[i]
		s.b.mu.Lock()
		s.b.recycleLocked(s.batch)
		s.b.mu.Unlock()
		*s = stolenBatch{}
	}
	d.drainBatches = d.drainBatches[:0]
}

// Drain commits every staged write from every thread, in global write
// order. It models the epoch daemon waiting for all outstanding
// write-backs — including those issued incrementally by worker threads —
// to reach the persistence domain before advancing the epoch clock. The
// combined batch commits in one serial pass on the caller's goroutine;
// the stripes' newest-wins check keeps it coherent with worker fences
// committing concurrently.
func (d *Device) Drain(tid int) {
	d.drainMu.Lock()
	all, writes := d.stealAllLocked()
	if a := d.takeArmed(CrashAtDrain); a != nil {
		// Crash between the drain's whole-device steal and its commits:
		// the stolen batch is exactly the staged population at the crash
		// instant. None of it may be committed here — a stolen-but-
		// uncommitted block is not fenced, and handing it to the media
		// would show recovery state the device never persisted (see
		// TestDrainStealNotFenced).
		d.failLocked(a.mode, all)
		if len(all) > 0 {
			d.recycleAllLocked()
		}
		d.drainMu.Unlock()
		if a.notify != nil {
			a.notify()
		}
		return
	}
	var bytes uint64
	if len(all) > 0 {
		bytes = d.commitBatch(all)
		d.recycleAllLocked()
	}
	d.drainMu.Unlock()
	d.clk.ChargeFenceAll(tid)
	if rec := d.stats.Get(); rec != nil {
		rec.Inc(tid, obs.CDrains)
		rec.Observe(tid, obs.HDrainBatch, uint64(len(all)))
		if len(all) > 0 {
			rec.Observe(tid, obs.HCombineRatio, writes*100/uint64(len(all)))
			rec.Add(tid, obs.CCommits, uint64(len(all)))
			rec.Add(tid, obs.CCommitBytes, bytes)
		}
	}
}

// PendingWrites returns the number of staged (not yet fenced) blocks for
// tid. Coalesced write-backs count once. Intended for tests.
func (d *Device) PendingWrites(tid int) int {
	b := d.buf(tid)
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.staged)
}

// Read copies durable bytes at addr into dst, charging the NVM read cost.
// It observes only fenced data; this is the view recovery code gets.
func (d *Device) Read(tid int, addr Addr, dst []byte) error {
	src, err := d.View(tid, addr, len(dst))
	if err != nil {
		return err
	}
	d.arenaMu.RLock()
	st := d.stripeFor(addr)
	st.mu.Lock()
	copy(dst, src)
	st.mu.Unlock()
	d.arenaMu.RUnlock()
	return nil
}

// View returns the n durable bytes at addr in place, charging tid the
// NVM read cost of n bytes, as Read does: the read a DAX mapping gives,
// with no copy. The slice's capacity is n, so an append to it never runs
// on into the next block. The bytes are the media's, not a snapshot:
// they change when a write to them commits, so the caller must keep
// every such write ordered after its last use of the view (recovery's
// invariants, DESIGN §15), and must never write through it.
func (d *Device) View(tid int, addr Addr, n int) ([]byte, error) {
	if err := d.check(addr, n); err != nil {
		return nil, err
	}
	d.clk.ChargeNVMRead(tid, n)
	if rec := d.stats.Get(); rec != nil {
		rec.Inc(tid, obs.CReads)
		rec.Add(tid, obs.CReadBytes, uint64(n))
	}
	return d.durable[addr : int(addr)+n : int(addr)+n], nil
}

// Aliases reports whether b's first byte lies in the durable arena, that
// is, whether b is (part of) a View.
func (d *Device) Aliases(b []byte) bool {
	if cap(b) == 0 || len(d.durable) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(d.durable)))
	return p >= lo && p < lo+uintptr(len(d.durable))
}

// WriteDurable writes data directly to the arena, bypassing staging. It
// models initialization-time writes (formatting, superblock headers) that
// are fenced before the system is declared open.
func (d *Device) WriteDurable(addr Addr, data []byte) error {
	if err := d.check(addr, len(data)); err != nil {
		return err
	}
	if a := d.takeArmed(CrashAtDurable); a != nil {
		// Crash at the head of a direct durable write (mid-formatting or
		// mid-recovery-sweep): the write itself is lost with the machine.
		d.Crash(a.mode)
		if a.notify != nil {
			a.notify()
		}
		return nil
	}
	if d.failed.Load() {
		return nil
	}
	seq := d.seq.Add(1)
	d.arenaMu.RLock()
	st := d.stripeFor(addr)
	st.mu.Lock()
	if st.lastSeq[addr] <= seq {
		st.lastSeq[addr] = seq
		copy(d.durable[addr:], data)
	}
	st.mu.Unlock()
	d.arenaMu.RUnlock()
	if rec := d.stats.Get(); rec != nil {
		rec.Inc(simclock.DaemonTID, obs.CCommits)
		rec.Add(simclock.DaemonTID, obs.CCommitBytes, uint64(len(data)))
	}
	return nil
}

// CrashMode selects what happens to staged writes on a crash.
type CrashMode int

const (
	// CrashDropAll loses every staged write: the conservative power-failure
	// model.
	CrashDropAll CrashMode = iota
	// CrashPartial commits a random subset of staged writes, modeling
	// cache lines that were evicted (and therefore persisted) out of
	// program order before the failure. Requires SeedCrashRNG.
	CrashPartial
)

// SeedCrashRNG seeds the RNG used by CrashPartial so crash fuzz tests are
// reproducible.
func (d *Device) SeedCrashRNG(seed int64) {
	d.rngMu.Lock()
	d.crashRNG = rand.New(rand.NewSource(seed))
	d.rngMu.Unlock()
}

// Crash simulates a power failure: staged writes are dropped (or, in
// CrashPartial mode, each staged block independently persists with
// probability 1/2, modeling out-of-order eviction). Sampling operates on
// the coalesced staged set — one decision per dirty block, since a cache
// holds one line per block, not one per store — and walks it in global
// sequence order, so a fixed seed maps decisions to writes independent of
// thread layout. After Crash the durable arena is all that remains and the
// device is fail-stopped (new writes are discarded until Revive); the
// caller is expected to discard every volatile structure and run recovery.
// A thread racing the crash itself may still slip a write into its staging
// buffer; the caller must quiesce workers before recovery, as a real
// restart does.
func (d *Device) Crash(mode CrashMode) {
	d.drainMu.Lock()
	all, _ := d.stealAllLocked()
	d.failLocked(mode, all)
	if len(all) > 0 {
		d.recycleAllLocked()
	}
	d.drainMu.Unlock()
}

// failLocked is the crash core: it fail-stops the device, publishes the
// crash floor, and resolves the fate of the staged population (all, in
// global seq order). The caller holds d.drainMu and is responsible for
// recycling the slice afterward.
func (d *Device) failLocked(mode CrashMode, all []stagedWrite) {
	var kept, keptBytes, lost, lostBytes uint64
	d.rngMu.Lock()
	d.arenaMu.Lock()
	d.failed.Store(true)
	d.crashFloor.Store(d.seq.Load())
	if mode == CrashPartial && d.crashRNG != nil {
		for i := range all {
			w := &all[i]
			if d.crashRNG.Intn(2) == 0 {
				st := d.stripeFor(w.addr)
				if st.lastSeq[w.addr] <= w.seq {
					st.lastSeq[w.addr] = w.seq
					copy(d.durable[w.addr:], w.data)
				}
				kept++
				keptBytes += uint64(len(w.data))
			} else {
				lost++
				lostBytes += uint64(len(w.data))
			}
		}
	} else {
		lost = uint64(len(all))
		for i := range all {
			lostBytes += uint64(len(all[i].data))
		}
	}
	d.arenaMu.Unlock()
	d.rngMu.Unlock()
	if rec := d.stats.Get(); rec != nil {
		tid := simclock.DaemonTID
		rec.Inc(tid, obs.CCrashes)
		rec.Add(tid, obs.CCrashDiscarded, lost)
		rec.Add(tid, obs.CCrashDiscBytes, lostBytes)
		rec.Add(tid, obs.CCrashKept, kept)
		rec.Add(tid, obs.CCrashKeptBytes, keptBytes)
		rec.Trace(tid, obs.TraceCrash, 0, lost)
	}
}

// Revive clears the fail-stop flag so the recovery path can write to the
// media again (recovery invalidations, allocator formatting). Writes
// staged before the crash stay dead: the crash floor drops them if a stale
// thread's fence tries to commit them. core.Recover calls this before
// touching the heap.
func (d *Device) Revive() { d.failed.Store(false) }

// Failed reports whether the device is fail-stopped (crashed and not yet
// revived by recovery).
func (d *Device) Failed() bool { return d.failed.Load() }

// CrashPoint identifies an internal device instant at which an armed
// crash fires. The chaos harness uses these to pin crash schedules to the
// interleavings that matter: between a steal and its commit, and inside
// the recovery sweep itself.
type CrashPoint int

const (
	// CrashAtFence fires inside a Fence before any of the calling thread's
	// staged batch commits; the batch dies with the crash (it is part of
	// the sampled staged population).
	CrashAtFence CrashPoint = iota
	// CrashAtDrain fires inside a Drain, after the whole-device steal but
	// before any commit.
	CrashAtDrain
	// CrashAtDurable fires at the head of a WriteDurable, before the
	// bypass write lands — a crash mid-formatting or mid-recovery-sweep.
	CrashAtDurable
)

// String names the crash point for schedule logs.
func (p CrashPoint) String() string {
	switch p {
	case CrashAtFence:
		return "fence"
	case CrashAtDrain:
		return "drain"
	case CrashAtDurable:
		return "durable"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

type armedCrash struct {
	point  CrashPoint
	skip   int
	mode   CrashMode
	notify func()
}

// ArmCrash schedules a crash to fire from inside the device itself: the
// skip-th future occurrence of point triggers a Crash(mode) at exactly
// that interleaving. notify (may be nil) runs at the crash instant, before
// the triggering call returns — harnesses use it to stamp the crash point
// into a recorded history. At most one crash is armed at a time (a new arm
// replaces a pending one), and the arm is consumed when it fires.
func (d *Device) ArmCrash(point CrashPoint, skip int, mode CrashMode, notify func()) {
	d.armMu.Lock()
	d.armed = &armedCrash{point: point, skip: skip, mode: mode, notify: notify}
	d.armMu.Unlock()
}

// DisarmCrash cancels a pending ArmCrash. It reports whether an arm was
// still pending — false means the crash already fired (or none was set).
func (d *Device) DisarmCrash() bool {
	d.armMu.Lock()
	pending := d.armed != nil
	d.armed = nil
	d.armMu.Unlock()
	return pending
}

// takeArmed consumes the armed crash for point, honoring its skip count.
func (d *Device) takeArmed(point CrashPoint) *armedCrash {
	d.armMu.Lock()
	defer d.armMu.Unlock()
	a := d.armed
	if a == nil || a.point != point {
		return nil
	}
	if a.skip > 0 {
		a.skip--
		return nil
	}
	d.armed = nil
	return a
}

// Snapshot returns a copy of the durable arena. Intended for tests that
// compare post-crash media images.
func (d *Device) Snapshot() []byte {
	d.arenaMu.Lock()
	defer d.arenaMu.Unlock()
	cp := make([]byte, len(d.durable))
	copy(cp, d.durable)
	return cp
}

// Save writes the durable arena image to path, allowing a later process
// (or a later NewDeviceFromFile in the same process) to reopen it — the
// moral equivalent of a DAX-mapped file surviving a reboot.
func (d *Device) Save(path string) error {
	d.arenaMu.Lock()
	defer d.arenaMu.Unlock()
	return os.WriteFile(path, d.durable, 0o644)
}

// NewDeviceFromFile reopens a device image saved with Save.
func NewDeviceFromFile(path string, maxThreads int, clk *simclock.Clock) (*Device, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := NewDevice(0, maxThreads, clk)
	d.durable = img
	return d, nil
}
