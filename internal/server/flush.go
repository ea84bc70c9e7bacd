package server

import (
	"net"
	"sync"

	"montage/internal/obs"
)

// maxFlushBatch caps how many responses one vectored flush may carry
// (Linux IOV_MAX is 1024).
const maxFlushBatch = 1024

// pending is one queued response. The queue is an intrusive singly
// linked list under conn.wmu; a pending is flushable once settled
// (nwait == 0). Epoch-wait acks enqueue with nwait > 0 and settle from
// the parking lot via conn.ackFired, preserving response order without
// a blocked goroutine per ack.
type pending struct {
	next  *pending
	data  []byte
	pbuf  *[]byte // pooled backing buffer (get responses); nil for static data
	start int64   // obs stamp for epoch-wait latency
	nwait int     // unsettled durability waits (0 = ready to flush)

	// lws are the parking-lot slots still able to fire for this
	// pending; abort cancels them so a dead connection stops holding
	// lot fan-out. Guarded by conn.wmu.
	lws []*lotWaiter

	aborted bool // some wait failed: respond with respCrashLost
	pooled  bool // safe to recycle (never true for epoch-wait pendings)
}

// pendingPool recycles waiter-free pendings (the get/set steady state).
// Pendings that ever carried lot waiters are deliberately left to the
// GC: a lost cancel race means a late fire may still touch the object,
// so it must not be reused.
var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// respBufPool recycles get-response buffers.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getRespBuf() *[]byte { return respBufPool.Get().(*[]byte) }

func newPending(data []byte, pbuf *[]byte) *pending {
	p := pendingPool.Get().(*pending)
	lws := p.lws[:0]
	*p = pending{data: data, pbuf: pbuf, lws: lws, pooled: true}
	return p
}

// releasePending returns a flushed pending's resources to their pools.
func releasePending(p *pending) {
	if p.pbuf != nil {
		b := *p.pbuf
		if cap(b) <= 64<<10 { // don't pin huge multi-get responses
			*p.pbuf = b[:0]
			respBufPool.Put(p.pbuf)
		}
		p.pbuf = nil
	}
	if p.pooled && len(p.lws) == 0 {
		p.next, p.data = nil, nil
		pendingPool.Put(p)
	}
}

// enqueue appends one response to the write queue. Reactor connections
// are not flushed here: enqueue runs on the pump, which flushes once per
// ingest pass (one writev per read batch, not per response);
// blocking-driver connections wake their fallback writer. Responses
// enqueued after death are dropped (counting the abort if a durability
// wait was attached but never settled).
func (c *conn) enqueue(p *pending) {
	rec := c.srv.rec
	c.wmu.Lock()
	if c.dead {
		if p.nwait > 0 {
			p.nwait = 0
			p.aborted = true
			rec.Inc(c.rtid, obs.CNetAcksAborted)
		}
		c.wmu.Unlock()
		releasePending(p)
		return
	}
	if c.qhead == nil {
		c.qhead = p
	} else {
		c.qtail.next = p
	}
	c.qtail = p
	c.qlen++
	rec.Observe(c.rtid, obs.HPipelineDepth, uint64(c.qlen))
	if !c.raw {
		c.wcond.Broadcast()
	}
	c.wmu.Unlock()
}

// ackFired settles one durability wait on p: ok=true means the epoch
// persisted, ok=false means the incarnation crashed first. Called from
// the parking-lot subscriber (or inline when already durable). The
// last wait to settle records the ack outcome — exactly once — and,
// on failure, substitutes the crash-lost response. The substitution is
// guarded on p carrying response bytes at all: a pending that has
// nothing to send (noreply never enqueues, so this is an invariant
// backstop) must never gain bytes here, or the response stream would
// desync from the request stream. Flushing what the settle made ready
// is the caller's next step (deliver in lot.go, or the pump's own
// per-pass flush when the epoch was already durable).
func (c *conn) ackFired(p *pending, ok bool) {
	rec := c.srv.rec
	c.wmu.Lock()
	if p.nwait == 0 { // already settled (abort raced the fire)
		c.wmu.Unlock()
		return
	}
	p.nwait--
	if !ok {
		p.aborted = true
	}
	if p.nwait > 0 {
		c.wmu.Unlock()
		return
	}
	if p.aborted {
		if len(p.data) > 0 {
			p.data = respCrashLost
		}
		rec.Inc(c.rtid, obs.CNetAcksAborted)
	} else {
		rec.Inc(c.rtid, obs.CNetAcksEpoch)
		rec.ObserveSince(c.rtid, obs.HAckEpochNs, p.start)
	}
	if !c.raw {
		c.wcond.Broadcast()
	}
	c.wmu.Unlock()
}

// closeSoon initiates a graceful close: stop reading, flush everything
// queued (epoch-wait acks included — they settle via the lot and then
// flush), then close. Used for quit, client EOF, and recoverable-side
// protocol shutdowns.
func (c *conn) closeSoon() {
	c.wmu.Lock()
	if c.closing || c.dead {
		c.wmu.Unlock()
		return
	}
	c.closing = true
	c.wcond.Broadcast()
	c.wmu.Unlock()
	// On the reactor, flushes what is ready and, once the queue is empty
	// (now, or after the last parked ack fires), marks the connection dead.
	c.flushRaw()
}

// abort tears the connection down immediately: the queue is dropped,
// unsettled durability waits are counted as aborted and their lot
// slots cancelled, and the socket is closed as soon as no pump or
// flush is touching the fd. Used for socket errors, Kill, and
// Shutdown's forced drain.
func (c *conn) abort() {
	c.wmu.Lock()
	if c.dead {
		c.wmu.Unlock()
		return
	}
	c.dead = true
	c.closing = true
	cancels := c.dropQueueLocked()
	c.wcond.Broadcast()
	fin := c.maybeFinalizeLocked()
	c.wmu.Unlock()
	for _, lw := range cancels {
		lw.cancel()
	}
	if !c.raw {
		// net.Conn Close is safe against concurrent Read and unblocks it.
		c.nc.Close()
		return
	}
	if fin {
		c.finalize()
	}
}

// dropQueueLocked empties the write queue of a connection that just
// died, counting every unsettled durability wait as aborted, and returns
// their lot slots for the caller to cancel outside wmu. wmu held.
func (c *conn) dropQueueLocked() (cancels []*lotWaiter) {
	for p := c.qhead; p != nil; p = p.next {
		if p.nwait > 0 {
			p.nwait = 0
			p.aborted = true
			c.srv.rec.Inc(c.rtid, obs.CNetAcksAborted)
			cancels = append(cancels, p.lws...)
			p.lws = nil
		}
	}
	c.qhead, c.qtail, c.qlen, c.woff = nil, nil, 0, 0
	return cancels
}

// maybeFinalizeLocked decides whether the caller (who is releasing the
// last pump/flush activity, or aborting an idle conn) should run
// finalize. Raw connections defer the actual fd close until nothing
// can be mid-syscall on it. wmu held.
func (c *conn) maybeFinalizeLocked() bool {
	if c.closeDone || !c.dead {
		return false
	}
	if c.pumpRunning || c.flushActive {
		return false
	}
	c.closeDone = true
	return true
}

// finalize closes the socket exactly once and returns accept-loop
// bookkeeping. Raw connections are dropped from the reactor first so
// the fd cannot be seen again after close.
func (c *conn) finalize() {
	if c.raw {
		c.srv.reactorDel(c)
	}
	c.nc.Close()
	if c.accepted {
		c.srv.finishConn(c)
	}
}

// closeNow is the blocking driver's teardown: both loops have exited.
func (c *conn) closeNow() {
	c.wmu.Lock()
	if c.closeDone {
		c.wmu.Unlock()
		return
	}
	c.dead = true
	c.closeDone = true
	cancels := c.dropQueueLocked()
	c.wmu.Unlock()
	for _, lw := range cancels {
		lw.cancel()
	}
	c.nc.Close()
	if c.accepted {
		c.srv.finishConn(c)
	}
}

// popReadyLocked collects the settled prefix of the queue into c.batch
// and its bytes into c.iov, unlinking the pendings. wmu held. Returns
// total byte count.
func (c *conn) popReadyLocked() int {
	c.batch = c.batch[:0]
	c.iov = c.iov[:0]
	total := 0
	for c.qhead != nil && c.qhead.nwait == 0 && len(c.batch) < maxFlushBatch {
		p := c.qhead
		c.qhead = p.next
		p.next = nil
		c.qlen--
		if len(p.data) > 0 {
			c.iov = append(c.iov, p.data)
			total += len(p.data)
		}
		c.batch = append(c.batch, p)
	}
	if c.qhead == nil {
		c.qtail = nil
	}
	return total
}

// fallbackWriter drains the queue for blocking-driver connections
// (test pipes, non-Linux): wait for a settled head, batch the settled
// prefix, write it with one vectored WriteTo, repeat. Exits once the
// connection is closing and fully drained, or dead.
func (c *conn) fallbackWriter() {
	rec := c.srv.rec
	for {
		c.wmu.Lock()
		for {
			if c.dead {
				c.wmu.Unlock()
				return
			}
			if c.qhead != nil && c.qhead.nwait == 0 {
				break
			}
			if c.closing && c.qhead == nil {
				c.wmu.Unlock()
				return
			}
			c.wcond.Wait()
		}
		total := c.popReadyLocked()
		nb := len(c.batch)
		c.wcond.Broadcast() // queue shrank: resume a parked reader
		c.wmu.Unlock()

		if total > 0 {
			bufs := net.Buffers(c.iov)
			n, err := bufs.WriteTo(c.nc)
			rec.Add(c.rtid, obs.CNetBytesOut, uint64(n))
			rec.Inc(c.rtid, obs.CNetFlushes)
			rec.Observe(c.rtid, obs.HFlushBatch, uint64(nb))
			rec.Observe(c.rtid, obs.HFlushBytes, uint64(n))
			if err != nil {
				for _, p := range c.batch {
					releasePending(p)
				}
				c.abort()
				return
			}
		}
		for i, p := range c.batch {
			releasePending(p)
			c.batch[i] = nil
		}
	}
}
