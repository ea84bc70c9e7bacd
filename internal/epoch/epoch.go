// Package epoch implements Montage's epoch system (EpochSys in the
// paper's Figure 3): the global epoch clock, the per-thread operation
// tracker, the to_persist and to_free containers for the most recent four
// epochs, epoch advancing, and the sync operation.
//
// The system guarantees the three properties of paper Section 3.2:
//
//  1. all payloads created or modified by an operation carry the
//     operation's epoch (enforced by the payload Set/PNew paths in
//     internal/core, which consult BeginOp's epoch);
//  2. all payloads of epoch e persist together when the clock ticks from
//     e+1 to e+2 (enforced by Advance, which writes back to_persist[e]
//     and waits for completion before publishing the new clock value);
//  3. operations linearize in the epoch in which they created payloads
//     (the responsibility of the data structure, assisted by CheckEpoch
//     and the old-see-new check in internal/core).
package epoch

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"montage/internal/mindicator"
	"montage/internal/obs"
	"montage/internal/pmem"
	"montage/internal/ralloc"
	"montage/internal/simclock"
)

// Policy selects when payload write-backs are issued.
type Policy int

const (
	// PolicyBuffered is Montage's default: payloads accumulate in
	// per-thread circular buffers; overflow triggers incremental
	// write-back by the worker; the remainder is written back at the
	// epoch boundary. (Montage (cb) in Figure 9.)
	PolicyBuffered Policy = iota
	// PolicyPerOp writes back and fences all of an operation's payloads
	// at EndOp. (Montage (dw) in Figure 9.)
	PolicyPerOp
	// PolicyDirect writes back each payload immediately at set/PNew time
	// and fences at EndOp. (The DirWB reference bars of Figures 4 and 5.)
	PolicyDirect
)

// Config tunes the epoch system. The zero value gives the paper's
// default configuration (64-entry buffers, background reclamation,
// buffered write-back).
type Config struct {
	// MaxThreads is the number of worker thread ids (0..MaxThreads-1).
	MaxThreads int
	// BufferSize is the per-thread write-back buffer capacity (default 64).
	BufferSize int
	// Policy selects the write-back policy.
	Policy Policy
	// LocalFree moves payload reclamation from the background thread into
	// the workers (the Buf=64+LocalFree configuration of Figures 4/5).
	LocalFree bool
	// DirectFree reclaims payloads immediately instead of delaying two
	// epochs. This does NOT correctly implement persistence; it exists
	// only as the Buf=64+DirFree reference configuration of Figures 4/5.
	DirectFree bool
	// Transient elides all persistence operations while still placing
	// payloads in NVM: the Montage (T) reference configuration.
	Transient bool
	// EpochLengthV, when nonzero, is the virtual-time epoch length in
	// nanoseconds: workers trigger an epoch advance at operation
	// boundaries once the virtual clock has moved this far. Used by the
	// benchmark harness.
	EpochLengthV int64
	// EpochOps, when nonzero, advances the epoch every EpochOps completed
	// operations (system-wide): the paper's "measured in operations
	// performed" alternative to a time-based epoch (Section 5.2).
	EpochOps uint64
	// EpochPayloads, when nonzero, advances the epoch every EpochPayloads
	// payloads queued for write-back: the "payloads written" alternative.
	EpochPayloads uint64
	// EpochLength, when nonzero, starts a real-time background goroutine
	// that advances the epoch at this period (the paper's default is
	// 10ms). Used by examples and interactive tools.
	EpochLength time.Duration
	// WorkerAdvance charges epoch-advance work to the worker that
	// triggered it rather than to the background thread. (Design question
	// 1 of paper Section 5.2.)
	WorkerAdvance bool
	// PersistDelay, when nonzero, makes every epoch advance sleep this
	// long in wall-clock time after draining write-backs, emulating the
	// real device's persist-fence round trip. The simulated device
	// charges persist costs in virtual time only, which makes a forced
	// advance (and hence Sync) nearly free on the wall clock; wall-clock
	// consumers — the TCP serving path and its benchmark — enable this so
	// per-operation sync pays a realistic price while buffered and
	// epoch-wait acks keep it off the critical path (the daemon absorbs
	// one delay per epoch in the background). Zero (the default) leaves
	// all virtual-time figures untouched.
	PersistDelay time.Duration
	// DisableMindicator turns off the mindicator fast path at epoch
	// boundaries, always scanning every thread's containers. Ablation
	// only; the mindicator is the paper's mechanism for keeping sync
	// cheap.
	DisableMindicator bool
}

func (c Config) withDefaults() Config {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 64
	}
	return c
}

// Persistable is a payload block that the epoch system can write back.
// It is implemented by internal/core's PBlk; the indirection keeps this
// package free of a dependency on the payload object model.
type Persistable interface {
	// PAddr returns the block's home address in the arena.
	PAddr() pmem.Addr
	// PEncodedSize returns the size of the block's serialized image.
	PEncodedSize() int
	// PEncodeInto serializes the block's current header and data into
	// dst, which has PEncodedSize() bytes. Writing straight into the
	// device's staging buffer keeps the flush path allocation-free and
	// stages header+data as one combined write-back.
	PEncodeInto(dst []byte)
	// MarkBuffered attempts to transition the block into "queued for
	// write-back" state; it returns false if the block is already queued.
	MarkBuffered() bool
	// ClearBuffered leaves the queued state (called after write-back).
	ClearBuffered()
	// MarkFlushed records that the block's bytes have been written back
	// at least once (so they may exist durably).
	MarkFlushed()
	// PDead reports whether the block was logically cancelled before
	// write-back (a same-epoch PNew+PDelete); dead blocks are skipped.
	PDead() bool
}

// persistBuf is one thread's to_persist container for one epoch slot.
type persistBuf struct {
	mu      sync.Mutex
	label   uint64
	entries []Persistable
}

// freeBuf is one thread's to_free container for one epoch slot.
type freeBuf struct {
	mu    sync.Mutex
	label uint64
	addrs []pmem.Addr
}

// threadState is the operation tracker slot plus containers for one
// worker thread.
type threadState struct {
	active    atomic.Uint64 // epoch of the active op, 0 if none
	opEpoch   uint64        // owner-only cache of the active op's epoch
	lastEpoch uint64        // owner-only: epoch of the last op

	persist [4]persistBuf
	free    [4]freeBuf

	// pending mirrors the number of unpersisted entries per slot, guarded
	// by mindMu, so the thread's mindicator leaf can be kept exact.
	mindMu    sync.Mutex
	pendCount [4]int
	pendEpoch [4]uint64

	_ [32]byte // reduce false sharing between tracker slots
}

// Sys is the epoch system.
type Sys struct {
	cfg  Config
	heap *ralloc.Heap
	dev  *pmem.Device
	clk  *simclock.Clock

	epoch   atomic.Uint64
	advMu   sync.Mutex
	threads []threadState
	mind    *mindicator.Mindicator

	lastAdvV   atomic.Int64  // virtual time of the last advance
	opCount    atomic.Uint64 // completed operations (EpochOps trigger)
	lastAdvOps atomic.Uint64 // opCount at the last advance
	plCount    atomic.Uint64 // queued payloads (EpochPayloads trigger)
	lastAdvPls atomic.Uint64 // plCount at the last advance
	syncActive atomic.Int32  // number of in-flight Sync calls
	advances   atomic.Uint64 // statistics: completed epoch advances
	stats      obs.Holder

	// persistCh broadcasts the next persist tick (epoch advance) to
	// PersistedEpoch watchers without polling. It exists only while a
	// subscriber holds it: PersistTick makes it, the next advance closes
	// and drops it, so an advance nobody watches (every sync- or
	// buffered-acked write) allocates nothing.
	persistMu sync.Mutex
	persistCh chan struct{}

	// down is closed (once) when the system is torn down — Close after its
	// final advances, or Abandon after a crash. Persist ticks stop at that
	// point, so WaitPersisted waiters must be released through this channel
	// or they would block forever on a clock that will never move again.
	down     chan struct{}
	downOnce sync.Once

	daemonStop chan struct{}
	daemonDone chan struct{}
}

// FirstEpoch is the epoch the clock starts at on a fresh arena. Starting
// above 2 keeps the arithmetic of "discard epochs e and e-1" simple and
// matches the paper's convention that a crash in epoch e<=2 recovers the
// initial (empty) state.
const FirstEpoch = 3

// New creates an epoch system over heap, formatting the persistent epoch
// clock. Use NewAt to resume after recovery.
func New(heap *ralloc.Heap, cfg Config) *Sys {
	return NewAt(heap, cfg, FirstEpoch)
}

// NewAt creates an epoch system whose clock starts at start. The recovery
// driver uses it to restart the clock strictly above the pre-crash value
// so that epoch numbers are never reused.
func NewAt(heap *ralloc.Heap, cfg Config, start uint64) *Sys {
	cfg = cfg.withDefaults()
	s := &Sys{
		cfg:     cfg,
		heap:    heap,
		dev:     heap.Device(),
		clk:     heap.Device().Clock(),
		threads: make([]threadState, cfg.MaxThreads),
		mind:    mindicator.New(cfg.MaxThreads),
	}
	s.down = make(chan struct{})
	// Inherit any recorder already attached to the device so the
	// background daemon is instrumented from its first tick.
	s.stats.Set(heap.Device().Recorder())
	s.epoch.Store(start)
	s.writeClock(simclock.DaemonTID, start)
	if cfg.EpochLength > 0 {
		s.startDaemon()
	}
	return s
}

// SetRecorder attaches an observability recorder; advances, syncs,
// write-back drains, and reclamation report to it. Safe to call while
// the system is running.
func (s *Sys) SetRecorder(r *obs.Recorder) { s.stats.Set(r) }

// Recorder returns the attached observability recorder, or nil.
func (s *Sys) Recorder() *obs.Recorder { return s.stats.Get() }

// Stats returns a snapshot of the attached recorder's counters (a zero
// snapshot if none is attached).
func (s *Sys) Stats() obs.Snapshot { return s.stats.Get().Snapshot() }

// writeClock persists the epoch clock value.
func (s *Sys) writeClock(tid int, e uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], e)
	// The clock cell is inside the reserved meta region; errors are
	// impossible by construction.
	if err := s.dev.WriteBack(tid, ralloc.EpochClockAddr, b[:]); err != nil {
		panic("epoch: clock write failed: " + err.Error())
	}
	s.dev.Fence(tid)
}

// ReadClock returns the durable epoch clock value from dev. It is what
// recovery sees after a crash.
func ReadClock(dev *pmem.Device) (uint64, error) {
	var b [8]byte
	if err := dev.Read(0, ralloc.EpochClockAddr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Epoch returns the current (volatile) epoch clock value.
func (s *Sys) Epoch() uint64 { return s.epoch.Load() }

// PersistedEpoch returns the durability watermark: the newest epoch whose
// payloads are guaranteed durable. By the two-epoch rule, epoch e's
// payloads persist when the clock ticks from e+1 to e+2, so with the
// clock at c every epoch <= c-2 is durable. An operation that ran in
// epoch e is durable exactly when PersistedEpoch() >= e. (In Transient
// mode nothing is actually written back; the watermark still advances but
// carries no durability meaning.)
func (s *Sys) PersistedEpoch() uint64 {
	e := s.epoch.Load()
	if e < 2 {
		return 0
	}
	return e - 2
}

// PersistTick returns a channel that is closed at the next persist tick
// (the next epoch advance, which raises PersistedEpoch by one). Each tick
// gets a fresh channel; subscribers re-arm by calling PersistTick again.
// The channel carries no data — after it fires, consult PersistedEpoch.
func (s *Sys) PersistTick() <-chan struct{} {
	s.persistMu.Lock()
	if s.persistCh == nil {
		s.persistCh = make(chan struct{})
	}
	ch := s.persistCh
	s.persistMu.Unlock()
	return ch
}

// WaitPersisted blocks until PersistedEpoch() >= e, i.e. until every
// operation that ran in epoch e is durable. It rides the persist-tick
// broadcast rather than polling. If abort is closed first (e.g. the
// caller's session is going away), WaitPersisted returns whether the
// target had been reached by then — a false return means the epoch-e work
// may not have survived. A nil abort never fires; waiters are still
// released when the system itself is torn down (Close, or Abandon after a
// crash), since persist ticks stop forever at that point. Chaos-harness
// note: after a crash the volatile clock is stale — a true return that
// races the crash makes no durability promise; binding acks are the ones
// issued before the crash instant.
func (s *Sys) WaitPersisted(e uint64, abort <-chan struct{}) bool {
	for {
		if s.PersistedEpoch() >= e {
			return true
		}
		ch := s.PersistTick()
		// Re-check after arming: an advance between the first check and
		// PersistTick would otherwise be missed until the next tick.
		if s.PersistedEpoch() >= e {
			return true
		}
		select {
		case <-ch:
		case <-s.down:
			return s.PersistedEpoch() >= e
		case <-abort:
			return s.PersistedEpoch() >= e
		}
	}
}

// markDown releases every current and future WaitPersisted waiter.
func (s *Sys) markDown() {
	s.downOnce.Do(func() { close(s.down) })
}

// Advances returns the number of completed epoch advances (statistics).
func (s *Sys) Advances() uint64 { return s.advances.Load() }

// Config returns the system's configuration.
func (s *Sys) Config() Config { return s.cfg }

// Heap returns the underlying allocator.
func (s *Sys) Heap() *ralloc.Heap { return s.heap }

// BeginOp registers an operation for thread tid and returns the epoch it
// runs in. It retries until the registration is consistent with the
// clock, making the register-and-verify step atomic as in the paper's
// Figure 3. The loop is lock-free: a retry implies the epoch advanced,
// which implies system-wide progress.
func (s *Sys) BeginOp(tid int) uint64 {
	ts := &s.threads[tid]
	e := s.register(ts)
	ts.opEpoch = e
	if s.cfg.Transient {
		ts.lastEpoch = e
		return e
	}
	// Help any in-flight sync by persisting our own stale buffers: the
	// paper's "a worker also helps to persist its payloads from the
	// previous epoch if they are needed by any active sync".
	if s.syncActive.Load() > 0 && s.mind.Get(tid) < int64(e) {
		s.persistLocal(tid, e-1)
		s.dev.Fence(tid)
	}
	// Worker-local reclamation (Buf+LocalFree configuration).
	if s.cfg.LocalFree && e > ts.lastEpoch {
		s.freeLocal(tid, e)
	}
	ts.lastEpoch = e
	return e
}

// EndOp unregisters thread tid's operation and applies the per-operation
// write-back policy.
func (s *Sys) EndOp(tid int) {
	ts := &s.threads[tid]
	if !s.cfg.Transient {
		switch s.cfg.Policy {
		case PolicyPerOp:
			s.persistLocal(tid, ts.opEpoch)
			s.dev.Fence(tid)
		case PolicyDirect:
			s.dev.Fence(tid)
		}
	}
	ts.opEpoch = 0
	ts.active.Store(0)
	if !s.cfg.Transient && s.cfg.EpochOps > 0 {
		s.opCount.Add(1)
	}
	s.maybeAdvance(tid)
}

// BeginRead registers thread tid as a reader in the current epoch, with
// the same register-and-verify step as BeginOp, until EndRead. waitAll
// covers a reader as it covers an operation, so no block unlinked while
// the reader may still hold it is reclaimed, and its bytes reused, under
// the reader: a lock-free read of a recovered payload, whose data is the
// arena itself, needs this. A read is not an operation: it counts no
// operation, triggers no advance and charges no virtual time. tid must
// not be inside BeginOp/EndOp.
func (s *Sys) BeginRead(tid int) { s.register(&s.threads[tid]) }

// register publishes ts as active in the current epoch and returns it,
// retrying until the registration is consistent with the clock.
func (s *Sys) register(ts *threadState) uint64 {
	for {
		e := s.epoch.Load()
		ts.active.Store(e)
		if s.epoch.Load() == e {
			return e
		}
		ts.active.Store(0)
	}
}

// EndRead ends thread tid's read registration.
func (s *Sys) EndRead(tid int) { s.threads[tid].active.Store(0) }

// CheckEpoch reports whether thread tid's active operation is still in
// the current epoch. Nonblocking operations call it immediately before
// their linearizing CAS (paper Section 3.2).
func (s *Sys) CheckEpoch(tid int) bool {
	return s.threads[tid].opEpoch == s.epoch.Load()
}

// OpEpoch returns the epoch of tid's active operation (0 if none).
func (s *Sys) OpEpoch(tid int) uint64 { return s.threads[tid].opEpoch }

// maybeAdvance triggers an epoch advance at an operation boundary when
// any configured trigger has fired: elapsed virtual time (EpochLengthV),
// completed operations (EpochOps), or queued payloads (EpochPayloads) —
// the three ways Section 5.2 suggests an epoch could be measured.
// Contending workers skip rather than queue.
func (s *Sys) maybeAdvance(tid int) {
	due := false
	if s.cfg.EpochLengthV > 0 && s.clk != nil &&
		s.clk.Now(tid)-s.lastAdvV.Load() >= s.cfg.EpochLengthV {
		due = true
	}
	if !due && s.cfg.EpochOps > 0 &&
		s.opCount.Load()-s.lastAdvOps.Load() >= s.cfg.EpochOps {
		due = true
	}
	if !due && s.cfg.EpochPayloads > 0 &&
		s.plCount.Load()-s.lastAdvPls.Load() >= s.cfg.EpochPayloads {
		due = true
	}
	if !due || !s.advMu.TryLock() {
		return
	}
	// Re-check under the lock (another worker may have just advanced).
	due = false
	if s.cfg.EpochLengthV > 0 && s.clk != nil &&
		s.clk.Now(tid)-s.lastAdvV.Load() >= s.cfg.EpochLengthV {
		due = true
	}
	if !due && s.cfg.EpochOps > 0 &&
		s.opCount.Load()-s.lastAdvOps.Load() >= s.cfg.EpochOps {
		due = true
	}
	if !due && s.cfg.EpochPayloads > 0 &&
		s.plCount.Load()-s.lastAdvPls.Load() >= s.cfg.EpochPayloads {
		due = true
	}
	if due {
		chargeTid := simclock.DaemonTID
		if s.cfg.WorkerAdvance {
			chargeTid = tid
		}
		s.advanceLocked(chargeTid)
	}
	s.advMu.Unlock()
}

// AddToPersist queues payload p, created or modified in epoch e by thread
// tid, for write-back at the epoch boundary. If the thread's buffer for
// that epoch overflows, the oldest entry is written back incrementally by
// the worker itself — the parallel write-back that Section 5.2 found
// essential.
func (s *Sys) AddToPersist(tid int, e uint64, p Persistable) {
	if s.cfg.Transient {
		return
	}
	if s.cfg.Policy == PolicyDirect {
		s.flushOne(tid, p, obs.CPersistDirect)
		return
	}
	if !p.MarkBuffered() {
		return // already queued in this epoch
	}
	s.stats.Get().Inc(tid, obs.CPersistQueued)
	if s.cfg.EpochPayloads > 0 {
		s.plCount.Add(1)
	}
	ts := &s.threads[tid]
	pb := &ts.persist[e%4]
	var overflow Persistable
	pb.mu.Lock()
	if pb.label != e {
		pb.label = e
		pb.entries = pb.entries[:0]
	}
	pb.entries = append(pb.entries, p)
	if s.cfg.Policy == PolicyBuffered && len(pb.entries) > s.cfg.BufferSize {
		overflow = pb.entries[0]
		pb.entries = pb.entries[1:]
	}
	pb.mu.Unlock()

	ts.mindMu.Lock()
	slot := e % 4
	ts.pendEpoch[slot] = e
	ts.pendCount[slot]++
	if overflow != nil {
		ts.pendCount[slot]--
	}
	s.updateMindLocked(ts, tid)
	ts.mindMu.Unlock()

	if overflow != nil {
		s.flushOne(tid, overflow, obs.CPersistOverflow)
	}
}

// AddToFree schedules the block at addr, deleted or superseded in epoch
// e by thread tid, for reclamation once epoch e's work is durable and
// can no longer be needed by recovery (the advance from e+2 to e+3).
// Anti-payloads are passed with e+1 so they outlive their targets by one
// epoch.
func (s *Sys) AddToFree(tid int, e uint64, addr pmem.Addr) {
	if s.cfg.Transient || s.cfg.DirectFree {
		// Montage (T) and Buf+DirFree reclaim immediately. Neither
		// correctly implements persistence; both exist as reference
		// configurations.
		s.heap.Free(tid, addr)
		return
	}
	s.stats.Get().Inc(tid, obs.CFreeQueued)
	ts := &s.threads[tid]
	fb := &ts.free[e%4]
	fb.mu.Lock()
	if fb.label != e {
		fb.label = e
		fb.addrs = fb.addrs[:0]
	}
	fb.addrs = append(fb.addrs, addr)
	fb.mu.Unlock()
}

// flushOne writes back one payload, charged to tid, and records it under
// the kind counter (boundary, overflow, worker, or direct — the four ways
// a payload reaches the device). The write remains staged until a fence
// (the worker's own, or the boundary Drain).
func (s *Sys) flushOne(tid int, p Persistable, kind obs.CounterID) {
	// Another thread's operation may be updating the payload in place (it
	// is hot in that operation's epoch) while this thread writes it back
	// on overflow or when helping a sync; a payload that can be mutated
	// that way is a Locker, held from the dead check to the flag updates.
	if l, ok := p.(sync.Locker); ok {
		l.Lock()
		defer l.Unlock()
	}
	rec := s.stats.Get()
	if p.PDead() {
		p.ClearBuffered()
		rec.Inc(tid, obs.CPersistDead)
		return
	}
	n := p.PEncodedSize()
	if err := s.dev.WriteBackEncoded(tid, p.PAddr(), n, p); err != nil {
		panic("epoch: payload write-back failed: " + err.Error())
	}
	p.MarkFlushed()
	p.ClearBuffered()
	if rec != nil {
		rec.Inc(tid, kind)
		rec.Add(tid, obs.CPersistBytes, uint64(n))
	}
}

// persistLocal drains thread tid's own buffers for all epochs <= maxE.
// The caller is responsible for a subsequent fence. Entries are staged on
// the device before the container lock is released: the sync-helping
// caller is no longer active in the epochs it drains, so waitAll does not
// cover it, and an advance whose boundary scan found this container
// already emptied must find the payloads in the staging layer its Drain
// commits — never in this thread's hands.
func (s *Sys) persistLocal(tid int, maxE uint64) {
	ts := &s.threads[tid]
	for slot := 0; slot < 4; slot++ {
		pb := &ts.persist[slot]
		pb.mu.Lock()
		if pb.label == 0 || pb.label > maxE || len(pb.entries) == 0 {
			pb.mu.Unlock()
			continue
		}
		entries := pb.entries
		pb.entries = nil
		label := pb.label
		for _, p := range entries {
			s.flushOne(tid, p, obs.CPersistWorker)
		}
		pb.mu.Unlock()
		ts.mindMu.Lock()
		if ts.pendEpoch[label%4] == label {
			ts.pendCount[label%4] -= len(entries)
			if ts.pendCount[label%4] < 0 {
				// Accounting mismatch between the container and its
				// pending mirror; see the twin clamp in drainPersist.
				ts.pendCount[label%4] = 0
				s.stats.Get().Inc(tid, obs.CPendClampNegative)
				debugAssertf("epoch: pendCount for epoch %d went negative in worker drain", label)
			}
		}
		s.updateMindLocked(ts, tid)
		ts.mindMu.Unlock()
	}
}

// updateMindLocked recomputes thread tid's mindicator leaf from the
// pending-entry mirror. Callers hold ts.mindMu.
func (s *Sys) updateMindLocked(ts *threadState, tid int) {
	min := int64(mindicator.Empty)
	for i := 0; i < 4; i++ {
		if ts.pendCount[i] > 0 && int64(ts.pendEpoch[i]) < min {
			min = int64(ts.pendEpoch[i])
		}
	}
	s.mind.Set(tid, min)
}

// OldestUnpersisted returns the oldest epoch for which unpersisted
// payloads exist, or mindicator.Empty. It is the paper's mindicator
// query.
func (s *Sys) OldestUnpersisted() int64 { return s.mind.Min() }
