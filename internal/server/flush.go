package server

import (
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

// enqueue appends one response to the write queue. It does not flush:
// enqueue runs on the pump, which flushes once per ingest pass (one
// writev per read batch, not per response). Responses enqueued after
// death are dropped (counting the abort if a durability wait was
// attached but never settled).
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
	defer c.wmu.Unlock()
	if p.nwait == 0 { // already settled (abort raced the fire)
		return
	}
	p.nwait--
	if !ok {
		p.aborted = true
	}
	if p.nwait > 0 {
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
	c.wmu.Unlock()
	// Flushes what is ready and, once the queue is empty (now, or after
	// the last parked ack fires), marks the connection dead.
	c.flush()
}

// abort tears the connection down immediately: the queue is dropped,
// unsettled durability waits are counted as aborted and their lot
// slots cancelled, the source is severed, and it is closed as soon as
// no pump or flush is touching it. Used for transport errors and
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
	fin := c.maybeFinalizeLocked()
	c.wmu.Unlock()
	for _, lw := range cancels {
		lw.cancel()
	}
	c.src.sever()
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
// finalize: the source is closed only once nothing can be mid-call on
// it. wmu held.
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

// finalize closes the source exactly once and returns accept-loop
// bookkeeping.
func (c *conn) finalize() {
	c.src.close()
	if c.accepted {
		c.srv.finishConn(c)
	}
}

// flush writes the settled prefix of the response queue with vectored
// writes, on the goroutine of whoever settled its head: the pump after
// an ingest pass, the parking-lot subscriber after an epoch tick, the
// source's writable edge. One caller at a time holds the flush claim
// (flushActive) and loops until nothing more is flushable; the others
// return at once, since that loop re-examines the head under wmu and so
// cannot miss what they settled. The source never blocks: a full
// transport parks the queue on wantWrite until its writable edge, and
// no caller is ever held by a slow client.
func (c *conn) flush() {
	rec := c.srv.rec
	c.wmu.Lock()
	if c.flushActive || c.wantWrite {
		c.wmu.Unlock()
		return
	}
	c.flushActive = true
	var werr error
	for { // wmu held
		total := 0
		if !c.dead && werr == nil {
			c.iov = c.iov[:0]
			nb := 0
			for p := c.qhead; p != nil && p.nwait == 0 && nb < maxFlushBatch; p = p.next {
				d := p.data
				if nb == 0 && c.woff > 0 {
					d = d[c.woff:]
				}
				if len(d) > 0 {
					c.iov = append(c.iov, d)
					total += len(d)
				}
				nb++
			}
		}
		if total == 0 {
			// Dead, drained, head unsettled, or transport full: give the
			// claim up.
			c.flushActive = false
			c.wantWrite = werr == errAgain && !c.dead
			rearm := c.wantWrite
			if c.closing && c.qhead == nil {
				c.dead = true
			}
			fin := c.maybeFinalizeLocked()
			c.wmu.Unlock()
			if fin {
				c.finalize()
			} else if rearm {
				c.src.rearm()
			}
			return
		}
		c.wmu.Unlock()

		var n int
		n, werr = c.src.writev(c.iov)
		if n > 0 {
			rec.Add(c.rtid, obs.CNetBytesOut, uint64(n))
			rec.Inc(c.rtid, obs.CNetFlushes)
			rec.Observe(c.rtid, obs.HFlushBytes, uint64(n))
		}
		if werr != nil && werr != errAgain {
			c.abort() // cannot finalize while we hold the flush claim
		}
		c.wmu.Lock()
		if c.dead { // abort cleared the queue under us
			continue
		}
		c.batch = c.batch[:0]
		rem := n
		for rem > 0 && c.qhead != nil {
			p := c.qhead
			avail := len(p.data) - c.woff
			if rem < avail {
				c.woff += rem
				break
			}
			rem -= avail
			c.woff = 0
			c.qhead = p.next
			p.next = nil
			c.qlen--
			c.batch = append(c.batch, p)
		}
		if c.qhead == nil {
			c.qtail = nil
		}
		if len(c.batch) > 0 {
			rec.Observe(c.rtid, obs.HFlushBatch, uint64(len(c.batch)))
		}
		resume := c.readParked && c.qlen <= pipelineCap/2 && !c.closing
		if resume {
			c.readParked = false
		}
		c.wmu.Unlock()

		// Still under the flush claim: c.batch is ours.
		for i, p := range c.batch {
			releasePending(p)
			c.batch[i] = nil
		}
		if resume {
			c.resumePump()
		}
		c.wmu.Lock()
	}
}
