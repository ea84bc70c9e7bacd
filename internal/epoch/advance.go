package epoch

import (
	"runtime"
	"time"

	"montage/internal/obs"
	"montage/internal/simclock"
)

// Advance performs one epoch advance, charged to the background thread.
// Tests and manually driven systems call it directly; benchmark
// configurations trigger it from operation boundaries or a real-time
// daemon.
func (s *Sys) Advance() {
	rec := s.stats.Get()
	lockStart := rec.Start()
	s.advMu.Lock()
	rec.ObserveSince(simclock.DaemonTID, obs.HAdvLockWaitNs, lockStart)
	s.advanceLocked(simclock.DaemonTID)
	s.advMu.Unlock()
}

// advanceLocked implements the paper's advance_epoch: with the clock at
// curr it (1) waits until no operation is active in epoch curr-1,
// (2) reclaims payloads scheduled for epoch curr-2 (background
// reclamation mode), (3) writes back all payloads of epoch curr-1,
// (4) waits for the writes-back to complete, and (5) publishes and
// persists the new clock value. Callers hold advMu.
func (s *Sys) advanceLocked(chargeTid int) {
	rec := s.stats.Get()
	curr := s.epoch.Load()
	advStart := rec.Start()
	rec.Trace(chargeTid, obs.TraceAdvanceStart, curr, 0)
	if s.clk != nil && chargeTid == simclock.DaemonTID {
		// The daemon wakes up "now": align its virtual clock with the
		// workers before charging it for boundary work.
		s.clk.SetAtLeast(simclock.DaemonTID, s.clk.Max())
	}

	// (1) Quiescence: no operation may still be active in epoch curr-1.
	waitStart := rec.Start()
	s.waitAll(curr - 1)
	rec.ObserveSince(chargeTid, obs.HWaitAllNs, waitStart)

	if !s.cfg.Transient {
		// (2) Reclaim epoch curr-2's deleted payloads (unless workers do
		// it themselves or the unsafe DirectFree mode is active).
		if !s.cfg.LocalFree && !s.cfg.DirectFree && curr >= 2 {
			for tid := range s.threads {
				s.reclaimSlot(chargeTid, &s.threads[tid], curr-2)
			}
		}

		// (3) Write back every remaining payload of epoch curr-1. The
		// mindicator tells us, in O(1), whether any thread still holds
		// unpersisted payloads that old; when none does (frequent under
		// sync-heavy loads, where helping has already drained the
		// buffers), the whole scan is skipped — the paper's use of the
		// mindicator to keep sync cheap.
		if oldest := s.mind.Min(); s.cfg.DisableMindicator || oldest <= int64(curr-1) {
			// Scanning every thread's tracker slot and container labels is
			// real work on the advancing thread — exactly the work the
			// mindicator's O(1) answer avoids when nothing old is pending.
			rec.Inc(chargeTid, obs.CMindicatorScans)
			s.clk.ChargeDRAM(chargeTid, len(s.threads)*4*16)
			for tid := range s.threads {
				s.drainPersist(chargeTid, &s.threads[tid], tid, curr-1)
			}
		} else {
			rec.Inc(chargeTid, obs.CMindicatorSkips)
		}

		// (4) Wait for all write-backs — including incremental ones issued
		// by the workers — to reach the persistence domain. On the
		// simulated device the drain is free in wall-clock time; an
		// optional emulated persist latency stands in for the real fence
		// round trip when wall-clock consumers ask for it.
		s.dev.Drain(chargeTid)
		if s.cfg.PersistDelay > 0 {
			time.Sleep(s.cfg.PersistDelay)
		}
	}

	// (5) Persist, then publish, the new clock value — in that order. The
	// durability watermark (PersistedEpoch, and every sync/epoch-wait ack
	// riding it) derives from the volatile clock, so the durable clock
	// must commit FIRST: publishing before the commit opens a window in
	// which a waiter observes epoch curr-1 as durable and acks a client,
	// yet a crash still recovers with durable clock curr and cutoff
	// curr-2, discarding the acked epoch. (The chaos harness's mid-advance
	// schedules catch exactly this inversion; see
	// TestAdvancePublishesDurableClockFirst.) With this order, a crash
	// between the two steps merely leaves a durable clock one ahead of
	// anything announced — epoch curr-1's payloads were already drained
	// above, so the higher cutoff is safe.
	if !s.cfg.Transient {
		s.writeClock(chargeTid, curr+1)
	}
	s.epoch.Store(curr + 1)
	if s.clk != nil {
		s.lastAdvV.Store(s.clk.Max())
	}
	s.lastAdvOps.Store(s.opCount.Load())
	s.lastAdvPls.Store(s.plCount.Load())
	s.advances.Add(1)
	// Persist tick: epoch curr-1 just became durable. Wake every
	// PersistTick/WaitPersisted subscriber by closing the broadcast
	// channel, if anyone took it; the next subscriber makes the next one.
	s.persistMu.Lock()
	if s.persistCh != nil {
		close(s.persistCh)
		s.persistCh = nil
	}
	s.persistMu.Unlock()
	rec.Inc(chargeTid, obs.CEpochAdvances)
	rec.ObserveSince(chargeTid, obs.HAdvanceNs, advStart)
	rec.Trace(chargeTid, obs.TraceAdvanceEnd, curr+1, 0)
}

// waitAll spins until no operation is active in any epoch <= e. A
// stalled operation can delay this indefinitely — the paper accepts that
// the persistence frontier is blocked by stalled threads — but cannot
// block other workers' operations.
func (s *Sys) waitAll(e uint64) {
	if e == 0 {
		return
	}
	for i := range s.threads {
		for {
			a := s.threads[i].active.Load()
			if a == 0 || a > e {
				break
			}
			runtime.Gosched()
		}
	}
}

// drainPersist writes back every queued payload of epoch e for thread
// slot ts, charging chargeTid (the boundary writer: daemon, advancing
// worker, or sync caller).
func (s *Sys) drainPersist(chargeTid int, ts *threadState, owner int, e uint64) {
	pb := &ts.persist[e%4]
	pb.mu.Lock()
	if pb.label != e || len(pb.entries) == 0 {
		pb.mu.Unlock()
		return
	}
	entries := pb.entries
	pb.entries = nil
	pb.mu.Unlock()
	for _, p := range entries {
		s.clk.ChargeDRAM(chargeTid, 16) // container entry bookkeeping
		s.flushOne(chargeTid, p, obs.CPersistBoundary)
	}
	ts.mindMu.Lock()
	if ts.pendEpoch[e%4] == e {
		ts.pendCount[e%4] -= len(entries)
		if ts.pendCount[e%4] < 0 {
			// The pending mirror and the container disagree: the
			// mindicator may now claim old payloads exist when none do
			// (harmless) or, worse, the inverse on some other path. Count
			// it so chaos runs surface accounting bugs instead of
			// silently masking them; debug builds (-tags montagedebug)
			// fail fast.
			ts.pendCount[e%4] = 0
			s.stats.Get().Inc(chargeTid, obs.CPendClampNegative)
			debugAssertf("epoch: pendCount for epoch %d went negative in boundary drain", e)
		}
	}
	s.updateMindLocked(ts, owner)
	ts.mindMu.Unlock()
}

// reclaimSlot frees thread ts's to_free entries labeled epoch e. Before a
// block is returned to the allocator its header is durably invalidated
// (staged here, committed by the advance's Drain), so a freed payload can
// never be resurrected by a later recovery sweep. The invalidation is
// batched off the worker critical path, preserving Ralloc's fence-free
// deallocation property where it matters.
func (s *Sys) reclaimSlot(chargeTid int, ts *threadState, e uint64) {
	if e == 0 {
		return
	}
	fb := &ts.free[e%4]
	fb.mu.Lock()
	if fb.label != e || len(fb.addrs) == 0 {
		fb.mu.Unlock()
		return
	}
	addrs := fb.addrs
	fb.addrs = nil
	fb.mu.Unlock()
	var zero [8]byte
	for _, addr := range addrs {
		if err := s.dev.WriteBack(chargeTid, addr, zero[:]); err != nil {
			panic("epoch: header invalidation failed: " + err.Error())
		}
		s.heap.Free(chargeTid, addr)
	}
	s.stats.Get().Add(chargeTid, obs.CFreeReclaimed, uint64(len(addrs)))
}

// freeLocal is the worker-side reclamation path (Buf+LocalFree): at the
// start of an operation in epoch e, the worker reclaims its own to_free
// slots for every epoch <= e-2 (paper Figure 3, lines 28-31), then fences
// the header invalidations.
func (s *Sys) freeLocal(tid int, e uint64) {
	if e < 2 {
		return
	}
	ts := &s.threads[tid]
	n := 0
	for slot := 0; slot < 4; slot++ {
		fb := &ts.free[slot]
		fb.mu.Lock()
		label := fb.label
		ok := label != 0 && label <= e-2 && len(fb.addrs) > 0
		fb.mu.Unlock()
		if ok {
			s.reclaimSlot(tid, ts, label)
			n++
		}
	}
	if n > 0 {
		s.dev.Fence(tid)
	}
}

// Sync implements the paper's sync operation: it requests and waits for a
// two-epoch advance, so that every operation that completed before the
// call is durable when Sync returns. The caller performs the advances
// itself — helping write back its peers' buffers — which is what makes
// Montage's sync fast. Sync must not be called between BeginOp and EndOp.
func (s *Sys) Sync(tid int) {
	if s.cfg.Transient {
		return
	}
	rec := s.stats.Get()
	syncStart := rec.Start()
	rec.Trace(tid, obs.TraceSyncStart, s.epoch.Load(), 0)
	s.syncActive.Add(1)
	target := s.epoch.Load() + 2
	for s.epoch.Load() < target {
		lockStart := rec.Start()
		s.advMu.Lock()
		rec.ObserveSince(tid, obs.HAdvLockWaitNs, lockStart)
		if s.epoch.Load() < target {
			s.advanceLocked(tid)
		}
		s.advMu.Unlock()
	}
	s.syncActive.Add(-1)
	rec.Inc(tid, obs.CEpochSyncs)
	rec.ObserveSince(tid, obs.HSyncNs, syncStart)
	rec.Trace(tid, obs.TraceSyncEnd, s.epoch.Load(), 0)
}

// ResetVirtualTimer zeroes the virtual-time advance reference. The
// benchmark harness calls it after resetting the virtual clock so that
// worker-triggered advances keep firing on the new timeline.
func (s *Sys) ResetVirtualTimer() { s.lastAdvV.Store(0) }

// startDaemon launches the real-time epoch-advancing goroutine.
func (s *Sys) startDaemon() {
	s.daemonStop = make(chan struct{})
	s.daemonDone = make(chan struct{})
	go func() {
		defer close(s.daemonDone)
		t := time.NewTicker(s.cfg.EpochLength)
		defer t.Stop()
		for {
			select {
			case <-s.daemonStop:
				return
			case <-t.C:
				s.Advance()
			}
		}
	}()
}

// Close stops the background daemon, if any, and performs two final
// advances so that all completed work is durable — the shutdown analogue
// of sync. It then releases any remaining WaitPersisted waiters: the
// clock will never move again.
func (s *Sys) Close() {
	s.stopDaemon()
	if !s.cfg.Transient {
		s.Advance()
		s.Advance()
	}
	s.markDown()
}

// Abandon stops the background daemon, if any, WITHOUT the final
// advances Close performs. It is the teardown for a system whose device
// has crashed (or is about to be crashed deliberately): the stale
// system's buffers must never be flushed onto a device that recovery is
// rebuilding, and its clock must never overwrite the recovered one.
// Waiters parked in WaitPersisted are released — with the daemon gone and
// the system dropped, no persist tick will ever come, and before this
// broadcast a waiter with a nil abort channel hung forever on crash
// teardown (see TestWaitPersistedReleasedOnTeardown). After Abandon the
// system must simply be dropped.
func (s *Sys) Abandon() {
	s.stopDaemon()
	s.markDown()
}

// stopDaemon stops the background advance goroutine, if running.
func (s *Sys) stopDaemon() {
	if s.daemonStop != nil {
		close(s.daemonStop)
		<-s.daemonDone
		s.daemonStop = nil
	}
}

// PendingPersist returns the number of queued (unpersisted) payloads for
// thread tid across all epoch slots. It reads the pending-entry mirror
// that already feeds the mindicator, so it takes one lock instead of
// four and is exactly the quantity the mindicator summarizes.
func (s *Sys) PendingPersist(tid int) int {
	ts := &s.threads[tid]
	ts.mindMu.Lock()
	n := 0
	for slot := 0; slot < 4; slot++ {
		n += ts.pendCount[slot]
	}
	ts.mindMu.Unlock()
	return n
}
