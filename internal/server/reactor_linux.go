//go:build linux

package server

import (
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"

	"montage/internal/obs"
)

// Epoll event masks. syscall.EPOLLET is a negative untyped constant on
// linux/amd64; build the uint32 bit explicitly.
const (
	evIn  = uint32(syscall.EPOLLIN)
	evOut = uint32(syscall.EPOLLOUT)
	evHup = uint32(syscall.EPOLLRDHUP) | uint32(syscall.EPOLLERR) | uint32(syscall.EPOLLHUP)
	evET  = uint32(1) << 31
)

// rawConnState is the linux half of conn: the writev iovec scratch.
type rawConnState struct {
	iovecs []syscall.Iovec
}

// reactorState is the linux half of Server: the lazily started epoll
// reactor shared by every raw connection.
type reactorState struct {
	reactorOnce sync.Once
	reactorRef  *reactor
}

// reactor multiplexes every accepted TCP connection on one epoll
// instance and serves it run-to-completion: the poller goroutine that
// learns a connection is readable reads, executes and replies itself.
// Only when one epoll_wait returns several readable connections does it
// keep one and hand the surplus to a small worker pool, so k ready
// connections still execute min(k, workers+1)-wide while the common
// one-ready case costs no channel send and no futex wake. The poller
// and each worker own a Montage thread id for life. At 10k idle
// connections the server holds 10k registered fds but O(cores)
// goroutines — no per-connection reader, no per-connection writer.
type reactor struct {
	srv   *Server
	epfd  int
	mu    sync.Mutex // guards conns, and done's close
	conns map[int]*conn
	// surplus queues connections whose pump claim is held for the workers.
	// A connection is queued at most once (the claim is exclusive), so
	// MaxConns slots mean a send never blocks — its senders include the
	// parking-lot subscriber, which must not.
	surplus chan *conn
	done    chan struct{} // closed by closeReactor: poller and workers exit
}

// pumpWorkers sizes the surplus pool: GOMAXPROCS, clamped to [2, 16].
func pumpWorkers() int { return min(max(runtime.GOMAXPROCS(0), 2), 16) }

// startReactor lazily builds the server's reactor (first raw conn).
func (s *Server) startReactor() *reactor {
	s.reactorOnce.Do(func() {
		epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
		if err != nil {
			return
		}
		r := &reactor{
			srv:     s,
			epfd:    epfd,
			conns:   make(map[int]*conn),
			surplus: make(chan *conn, s.cfg.MaxConns),
			done:    make(chan struct{}),
		}
		for i := 0; i < pumpWorkers(); i++ {
			go r.worker()
		}
		go r.poll()
		s.reactorRef = r
	})
	return s.reactorRef
}

func (r *reactor) closed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// tryRawConn moves a freshly accepted TCP connection onto the reactor.
// Returns false (caller falls back to the blocking driver) for non-TCP
// conns or if the reactor could not start.
func (s *Server) tryRawConn(c *conn) bool {
	tc, ok := c.nc.(*net.TCPConn)
	if !ok {
		return false
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return false
	}
	fd := -1
	if cerr := rc.Control(func(f uintptr) { fd = int(f) }); cerr != nil || fd < 0 {
		return false
	}
	r := s.startReactor()
	if r == nil {
		return false
	}
	// Set before the fd is registered: its first edge may beat our return.
	c.raw, c.fd = true, fd
	r.mu.Lock()
	ok = !r.closed()
	if ok {
		r.conns[fd] = c
	}
	r.mu.Unlock()
	if ok && r.epollCtl(syscall.EPOLL_CTL_ADD, fd) != nil {
		s.reactorDel(c)
		ok = false
	}
	if !ok {
		c.raw = false
	}
	return ok
}

// epollCtl (re-)registers fd for edge-triggered read, write and hang-up
// readiness.
func (r *reactor) epollCtl(op, fd int) error {
	ev := syscall.EpollEvent{Events: evIn | evOut | evHup | evET, Fd: int32(fd)}
	return syscall.EpollCtl(r.epfd, op, fd, &ev)
}

// reactorDel unregisters a raw connection before its fd closes.
func (s *Server) reactorDel(c *conn) {
	r := s.reactorRef
	syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_DEL, c.fd, nil)
	r.mu.Lock()
	delete(r.conns, c.fd)
	r.mu.Unlock()
}

// rearmWrite re-registers interest after a writev EAGAIN. With
// edge-triggered epoll, a writability edge landing between the EAGAIN
// and wantWrite being set would find nothing to resume; EPOLL_CTL_MOD
// re-delivers the edge if the socket is already writable again.
func (s *Server) rearmWrite(c *conn) {
	s.reactorRef.epollCtl(syscall.EPOLL_CTL_MOD, c.fd)
}

// closeReactor stops the poller and workers (Shutdown, after every
// connection has been finalized).
func (s *Server) closeReactor() {
	r := s.reactorRef
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.closed() {
		close(r.done)
	}
	r.mu.Unlock()
}

// poll is the single event loop. It folds each event into its
// connection's state, flushes on writable edges that resume an
// EAGAIN-parked queue, and pumps readable connections: the first one
// itself, after the rest are on their way to the workers. The wait uses
// a finite timeout so that a closed reactor is noticed; the poller owns
// the epoll fd and closes it on the way out.
func (r *reactor) poll() {
	tid := <-r.srv.tids
	defer func() {
		r.srv.tids <- tid
		syscall.Close(r.epfd)
	}()
	events := make([]syscall.EpollEvent, 128)
	ready := make([]*conn, len(events))
	for {
		// The wait is a raw blocking syscall: it keeps this goroutine's P,
		// and whatever the last pass made runnable on it (a surplus worker,
		// a Sync waiting on the advance lock we just released) would sit
		// there until stolen or until sysmon retakes the P. Let it run first.
		runtime.Gosched()
		n, err := syscall.EpollWait(r.epfd, events, 500)
		if err == syscall.EINTR {
			continue
		}
		if err != nil || r.closed() {
			return
		}
		r.mu.Lock()
		for i := range ready[:n] {
			ready[i] = r.conns[int(events[i].Fd)]
		}
		r.mu.Unlock()
		var own *conn
		for i, c := range ready[:n] {
			if c == nil {
				continue
			}
			ready[i] = nil
			flush, pump := c.onEvent(events[i].Events)
			if flush {
				c.flushRaw()
			}
			if !pump {
				continue
			}
			if own == nil {
				own = c
			} else {
				r.surplus <- c
			}
		}
		if own != nil {
			own.pump(tid, true)
		}
	}
}

// worker pumps the connections the poller (or a resuming flush) could
// not run itself.
func (r *reactor) worker() {
	tid := <-r.srv.tids
	defer func() { r.srv.tids <- tid }()
	for {
		select {
		case c := <-r.surplus:
			c.pump(tid, false)
		case <-r.done:
			return
		}
	}
}

// onEvent folds one epoll event into the connection's state under one
// lock acquisition: flush reports that an EAGAIN-parked queue may move
// again, pump that the caller now holds the connection's pump claim.
func (c *conn) onEvent(ev uint32) (flush, pump bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if ev&evOut != 0 && c.wantWrite {
		c.wantWrite = false
		flush = true
	}
	if ev&(evIn|evHup) != 0 {
		if ev&evHup != 0 {
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
// every complete command), flush, until the socket is drained. The
// caller holds the pump claim; every return path has released it or
// passed it on. A short read ends the pass without a second read(2):
// on a stream socket it proves the buffer empty (epoll(7)), and bytes
// arriving later raise a new edge — except after a hang-up, which has
// no later edge, so the pump then reads on to EOF. inline marks the
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
		n, err := syscall.Read(c.fd, c.in[len(c.in):cap(c.in)])
		switch {
		case n > 0:
			c.srv.rec.Add(c.rtid, obs.CNetBytesIn, uint64(n))
			c.in = c.in[:len(c.in)+n]
			if !c.serve(tid) {
				return
			}
			if n == room || hup {
				if inline {
					c.srv.reactorRef.surplus <- c
					return
				}
				continue
			}
		case err == nil: // n == 0: EOF
			c.pumpRelease(false)
			c.closeSoon()
			return
		case err == syscall.EINTR:
			continue
		case err != syscall.EAGAIN:
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
		c.flushRaw()
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
		c.srv.reactorRef.surplus <- c
	}
}

// flushRaw writes the settled prefix of a reactor connection's response
// queue (a no-op on any other) with vectored writes, on the goroutine of
// whoever settled its head: the
// pump after an ingest pass, the parking-lot subscriber after an epoch
// tick, the poller on a writable edge. One caller at a time holds the
// flush claim (flushActive) and loops until nothing more is flushable;
// the others return at once, since that loop re-examines the head under
// wmu and so cannot miss what they settled. The socket is non-blocking:
// a full send buffer parks the queue on wantWrite for EPOLLOUT, and no
// caller is ever held by a slow client.
func (c *conn) flushRaw() {
	rec := c.srv.rec
	c.wmu.Lock()
	if !c.raw || c.flushActive || c.wantWrite {
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
			// Dead, drained, head unsettled, or socket full: give the claim up.
			c.flushActive = false
			c.wantWrite = werr == syscall.EAGAIN && !c.dead
			rearm := c.wantWrite
			if c.closing && c.qhead == nil {
				c.dead = true
			}
			fin := c.maybeFinalizeLocked()
			c.wmu.Unlock()
			if fin {
				c.finalize()
			} else if rearm {
				// Close the edge-race window (see rearmWrite).
				c.srv.rearmWrite(c)
			}
			return
		}
		c.wmu.Unlock()

		var n int
		n, werr = c.writevRaw(c.iov)
		if n > 0 {
			rec.Add(c.rtid, obs.CNetBytesOut, uint64(n))
			rec.Inc(c.rtid, obs.CNetFlushes)
			rec.Observe(c.rtid, obs.HFlushBytes, uint64(n))
		}
		if werr != nil && werr != syscall.EAGAIN {
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

// writevRaw issues one writev(2) over bufs using per-conn iovec
// scratch. EAGAIN writes nothing; partial writes return with nil error
// and the caller re-batches.
func (c *conn) writevRaw(bufs [][]byte) (int, error) {
	if cap(c.rw.iovecs) < len(bufs) {
		c.rw.iovecs = make([]syscall.Iovec, 0, len(bufs)+8)
	}
	iv := c.rw.iovecs[:0]
	for _, b := range bufs {
		iv = append(iv, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
	}
	c.rw.iovecs = iv
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, uintptr(c.fd),
			uintptr(unsafe.Pointer(&iv[0])), uintptr(len(iv)))
		runtime.KeepAlive(bufs)
		switch errno {
		case 0:
			return int(n), nil
		case syscall.EINTR:
			continue
		default:
			return 0, errno
		}
	}
}
