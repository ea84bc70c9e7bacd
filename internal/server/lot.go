package server

import (
	"sync"
	"sync/atomic"

	"montage/internal/epoch"
	"montage/internal/obs"
	"montage/internal/pool"
)

// parkingLot is the shared epoch-wait rendezvous for one runtime
// incarnation: instead of every parked response running its own
// WaitPersisted loop (N subscribers per shard, each woken on every
// persist tick only to re-check its epoch), each shard gets at most ONE
// watermark subscriber that fans the tick out to exactly the waiters it
// releases. With hundreds of pipelined epoch-wait connections this
// collapses the thundering herd on the persist broadcast to one wakeup
// per shard per tick.
type parkingLot struct {
	shards []shardLot
}

// Waiter delivery states. A waiter fires exactly once: the subscriber
// CASes pending→fired before delivering, a dead connection CASes
// pending→cancelled to drop its slot without waiting out the epoch.
const (
	waiterPending int32 = iota
	waiterFired
	waiterCancelled
)

// lotWaiter is one parked response. Blocking waiters (wait) carry a
// channel; asynchronous waiters (register) carry a callback target
// (conn + pending) and an atomic state so a connection that dies under
// parked acks can cancel its slots instead of holding lot fan-out for
// whole epochs.
type lotWaiter struct {
	epoch uint64
	ch    chan bool // blocking waiters only
	c     *conn     // async waiters only
	p     *pending
	state atomic.Int32
}

// cancel drops an async waiter before it fires, reporting whether the
// cancellation won (false means the outcome was already delivered).
// The waiter stays in the lot's slice until its epoch passes; firing
// skips cancelled entries.
func (lw *lotWaiter) cancel() bool {
	return lw.state.CompareAndSwap(waiterPending, waiterCancelled)
}

// fire delivers the outcome: to the channel for blocking waiters, to
// conn.ackFired for async ones (skipped if cancelled). Called by the
// subscriber OUTSIDE the lot mutex so the ack path can take the conn's
// write-queue lock without ordering against l.mu.
func (lw *lotWaiter) fire(ok bool) {
	if lw.ch != nil {
		lw.ch <- ok
		return
	}
	if lw.state.CompareAndSwap(waiterPending, waiterFired) {
		lw.c.ackFired(lw.p, ok)
	}
}

// deliver fires every waiter, then flushes their connections on this
// goroutine — no hand-off; a flush never blocks (a full transport parks
// the queue for its writable edge). Settling the whole tick before the
// first write lets a pipelined connection's acks leave in one vectored
// write, and the repeat flushes of the same connection find nothing and
// return.
func deliver(ws []*lotWaiter, ok bool) {
	for _, lw := range ws {
		lw.fire(ok)
	}
	for _, lw := range ws {
		if lw.c != nil {
			lw.c.flush()
		}
	}
}

// shardLot parks waiters on one shard's persist watermark. The
// subscriber goroutine is lazy: it starts with the first waiter and
// exits when the lot drains, so idle shards cost nothing.
type shardLot struct {
	esys    *epoch.Sys
	crashCh chan struct{}
	rec     *obs.Recorder
	tid     int

	mu      sync.Mutex
	waiters []*lotWaiter
	running bool
}

// newParkingLot builds one lot per pool shard, all aborting on crashCh.
func newParkingLot(p *pool.Pool, crashCh chan struct{}, rec *obs.Recorder, tid int) *parkingLot {
	l := &parkingLot{shards: make([]shardLot, p.NumShards())}
	for i := range l.shards {
		l.shards[i] = shardLot{
			esys:    p.Shard(i).Epochs(),
			crashCh: crashCh,
			rec:     rec,
			tid:     tid,
		}
	}
	return l
}

func (l *parkingLot) shard(i int) *shardLot { return &l.shards[i] }

// park appends w under the lock, starting the subscriber if needed.
// Returns false if the watermark already covers w.epoch (the recheck
// under the lock: a tick between the caller's fast path and here may
// have been the one that covered it, and with no later waiter the
// subscriber may already have exited).
func (l *shardLot) park(w *lotWaiter) bool {
	l.mu.Lock()
	if l.esys.PersistedEpoch() >= w.epoch {
		l.mu.Unlock()
		return false
	}
	l.waiters = append(l.waiters, w)
	if !l.running {
		l.running = true
		go l.run()
	}
	l.mu.Unlock()
	l.rec.Inc(l.tid, obs.CNetParkWaiters)
	return true
}

// wait parks until the shard's persist watermark reaches e, reporting
// false if the incarnation crashed first. Already-durable epochs return
// without parking.
func (l *shardLot) wait(e uint64) bool {
	if l.esys.PersistedEpoch() >= e {
		return true
	}
	w := &lotWaiter{epoch: e, ch: make(chan bool, 1)}
	if !l.park(w) {
		return true
	}
	return <-w.ch
}

// register arranges for c.ackFired(p, ok) to be called once e persists
// (true) or the incarnation crashes (false). Returns nil — and never
// calls back — when e is already durable, so the caller can settle the
// ack inline without a goroutine handoff.
func (l *shardLot) register(e uint64, c *conn, p *pending) *lotWaiter {
	if l.esys.PersistedEpoch() >= e {
		return nil
	}
	w := &lotWaiter{epoch: e, c: c, p: p}
	if !l.park(w) {
		return nil
	}
	return w
}

// run is the shard's single watermark subscriber. Each iteration
// captures the next persist-tick channel FIRST, then releases everything
// the current watermark covers, so a tick landing between the two is
// never lost — the stale channel is already closed and the select falls
// straight through to re-check. Waiters are fired outside the lock (the
// async ack path takes the conn's write-queue lock). Exits when the lot
// drains (releasing the subscription) or the incarnation crashes
// (failing all waiters).
func (l *shardLot) run() {
	var ready []*lotWaiter
	for {
		tick := l.esys.PersistTick()
		w := l.esys.PersistedEpoch()
		l.mu.Lock()
		ready = ready[:0]
		rest := l.waiters[:0]
		for _, lw := range l.waiters {
			switch {
			case lw.ch == nil && lw.state.Load() == waiterCancelled:
				// A dead connection dropped this slot; forget it.
			case lw.epoch <= w:
				ready = append(ready, lw)
			default:
				rest = append(rest, lw)
			}
		}
		l.waiters = rest
		empty := len(rest) == 0
		if empty {
			l.running = false
		}
		l.mu.Unlock()
		deliver(ready, true)
		if len(ready) > 0 {
			l.rec.Observe(l.tid, obs.HParkFanout, uint64(len(ready)))
		}
		if empty {
			return
		}
		select {
		case <-tick:
		case <-l.crashCh:
			l.mu.Lock()
			failed := append([]*lotWaiter(nil), l.waiters...)
			l.waiters = nil
			l.running = false
			l.mu.Unlock()
			deliver(failed, false)
			return
		}
	}
}
