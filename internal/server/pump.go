package server

import (
	"errors"
	"io"
	"runtime"

	"montage/internal/obs"
)

// A source is the transport under one connection, presented the way an
// edge-triggered epoll presents a non-blocking socket: reads and writes
// never block, and the source tells the connection when it may make
// progress again by calling conn.onEvent. Every connection is served by
// the one state machine in this file and flush.go over one of two
// sources: fdSource (reactor_linux.go: an accepted TCP socket on the
// epoll reactor) or streamSource (stream.go: any net.Conn, made
// non-blocking by a reader and a writer goroutine).
type source interface {
	// start begins delivering the connection's edges.
	start()
	// read copies buffered input into p: errAgain when there is none
	// (a readable edge follows when there is), io.EOF once the peer has
	// closed and everything it sent has been read.
	read(p []byte) (int, error)
	// writev writes a prefix of bufs: errAgain when the transport can
	// take nothing now (after rearm, a writable edge follows when it can).
	writev(bufs [][]byte) (int, error)
	// rearm is called after a writev errAgain once wantWrite is set: a
	// writable edge that landed in between must be delivered again.
	rearm()
	// sever drops the transport at once (abort). A source whose
	// goroutines may be blocked in it unblocks them; an fd waits for close.
	sever()
	// close releases the transport once no pump or flush can touch it
	// again (finalize); bytes writev already took are still delivered.
	close()
}

// errAgain is a source's EAGAIN.
var errAgain = errors.New("server: transport would block")

// pumpWorkers sizes the surplus pool: GOMAXPROCS, clamped to [2, 16].
func pumpWorkers() int { return min(max(runtime.GOMAXPROCS(0), 2), 16) }

// startPumps starts the surplus workers with the first connection. Each
// owns a Montage thread id for life and pumps the connections that
// whoever learned of their readiness could not run itself: a resumed
// pump, the epoll poller's surplus. The queue holds MaxConns slots and
// a connection is in it at most once (the pump claim is exclusive), so
// a send never blocks — its senders include the parking-lot subscriber,
// which must not.
func (s *Server) startPumps() {
	s.pumpOnce.Do(func() {
		for i := 0; i < pumpWorkers(); i++ {
			go s.worker()
		}
	})
}

func (s *Server) worker() {
	tid := <-s.tids
	defer func() { s.tids <- tid }()
	for {
		select {
		case c := <-s.surplus:
			c.pump(tid, false)
		case <-s.stop:
			return
		}
	}
}

// stopped reports whether Shutdown has stopped the workers and poller.
func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// onEvent folds one readiness edge into the connection's state under one
// lock acquisition: flush reports that a queue parked on wantWrite may
// move again, pump that the caller now holds the connection's pump claim.
func (c *conn) onEvent(in, out, hup bool) (flush, pump bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if out && c.wantWrite {
		c.wantWrite = false
		flush = true
	}
	if in || hup {
		if hup {
			c.hup = true
		}
		pump = c.claimPumpLocked()
	}
	return flush, pump
}

// claimPumpLocked takes the pump claim — the right to read and ingest,
// held by one goroutine at a time — or, if a pump is running, leaves it
// a note that another edge arrived. wmu held.
func (c *conn) claimPumpLocked() bool {
	if c.dead || c.closing || c.readParked {
		return false
	}
	if c.pumpRunning {
		c.pumpAgain = true
		return false
	}
	c.pumpRunning = true
	return true
}

// pumpRelease gives the pump claim up and finalizes if this was the last
// activity on a dead connection. With rerun set it first checks for an
// edge coalesced while the pump ran: then the claim is kept and true
// returned — the caller must make another pass.
func (c *conn) pumpRelease(rerun bool) bool {
	c.wmu.Lock()
	rerun = rerun && c.pumpAgain && !c.dead && !c.closing
	c.pumpAgain = false
	if rerun {
		c.wmu.Unlock()
		return true
	}
	c.pumpRunning = false
	fin := c.maybeFinalizeLocked()
	c.wmu.Unlock()
	if fin {
		c.finalize()
	}
	return false
}

// pump serves one connection to completion: read, ingest (executing
// every complete command), flush, until the source has nothing more. The
// caller holds the pump claim; every return path has released it or
// passed it on. A short read ends the pass without a second read: on a
// stream socket it proves the buffer empty (epoll(7)), and bytes
// arriving later raise a new edge — except after a hang-up, which has no
// later edge, so the pump then reads on to EOF. inline marks the epoll
// poller's own pump: a connection with more than one buffer-full of
// input is passed to the workers, so a streaming client cannot keep the
// poller from the other connections.
func (c *conn) pump(tid int, inline bool) {
	for {
		c.wmu.Lock()
		stop, hup := c.dead || c.closing, c.hup
		c.wmu.Unlock()
		if stop {
			c.pumpRelease(false)
			return
		}
		// Buffered input first: a throttled pass leaves complete commands
		// behind, and the client may be waiting on them before sending more.
		if len(c.in) > 0 && !c.serve(tid) {
			return
		}
		c.ensureSpare(readChunk)
		room := cap(c.in) - len(c.in)
		n, err := c.src.read(c.in[len(c.in):cap(c.in)])
		switch {
		case n > 0:
			c.srv.rec.Add(c.rtid, obs.CNetBytesIn, uint64(n))
			c.in = c.in[:len(c.in)+n]
			if !c.serve(tid) {
				return
			}
			if n == room || hup {
				if inline {
					c.srv.surplus <- c
					return
				}
				continue
			}
		case err == io.EOF:
			c.pumpRelease(false)
			c.closeSoon()
			return
		case err != errAgain:
			c.pumpRelease(false)
			c.abort()
			return
		}
		if !c.pumpRelease(true) {
			return
		}
	}
}

// serve runs the parser over the buffered input and flushes what it
// produced — one writev per read batch. Returns false when the pump
// must stop (throttle park, quit, fatal protocol error), the claim
// already released.
func (c *conn) serve(tid int) bool {
	for {
		err := c.ingest(tid)
		c.flush()
		switch err {
		case nil:
			return true
		case errThrottle:
			c.wmu.Lock()
			if c.qlen >= pipelineCap/2 && !c.dead && !c.closing {
				// Our own flush could not drain the queue (the client is not
				// reading, or acks are parked): stop reading. Whoever next
				// flushes it below half resumes us.
				c.readParked = true
				c.pumpAgain = false
				c.pumpRunning = false
				c.wmu.Unlock()
				return false
			}
			c.wmu.Unlock() // drained: run the commands still buffered
		default:
			c.pumpRelease(false)
			c.closeSoon()
			return false
		}
	}
}

// resumePump restarts a pump that parked on a full pipeline — on a
// worker, since the caller may be the parking-lot subscriber, which owns
// no thread id.
func (c *conn) resumePump() {
	c.wmu.Lock()
	ok := c.claimPumpLocked()
	c.wmu.Unlock()
	if ok {
		c.srv.surplus <- c
	}
}
