//go:build linux

package server

import (
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// Epoll event masks. syscall.EPOLLET is a negative untyped constant on
// linux/amd64; build the uint32 bit explicitly.
const (
	evIn  = uint32(syscall.EPOLLIN)
	evOut = uint32(syscall.EPOLLOUT)
	evHup = uint32(syscall.EPOLLRDHUP) | uint32(syscall.EPOLLERR) | uint32(syscall.EPOLLHUP)
	evET  = uint32(1) << 31
)

// reactorState is the linux half of Server: the lazily started epoll
// reactor shared by every accepted TCP connection.
type reactorState struct {
	reactorOnce sync.Once
	reactorRef  *reactor
}

// reactor multiplexes every accepted TCP connection on one epoll
// instance and serves it run-to-completion: the poller goroutine that
// learns a connection is readable reads, executes and replies itself.
// Only when one epoll_wait returns several readable connections does it
// keep one and hand the surplus to the worker pool (pump.go), so k
// ready connections still execute min(k, workers+1)-wide while the
// common one-ready case costs no channel send and no futex wake. The
// poller owns a Montage thread id for life. At 10k idle connections the
// server holds 10k registered fds but O(cores) goroutines — no
// per-connection reader, no per-connection writer.
type reactor struct {
	srv   *Server
	epfd  int
	mu    sync.Mutex // guards conns
	conns map[int]*conn
}

// startReactor lazily builds the server's reactor (first TCP conn).
func (s *Server) startReactor() *reactor {
	s.reactorOnce.Do(func() {
		epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
		if err != nil {
			return
		}
		r := &reactor{srv: s, epfd: epfd, conns: make(map[int]*conn)}
		go r.poll()
		s.reactorRef = r
	})
	return s.reactorRef
}

// rawSource puts an accepted TCP connection on the reactor: its fd, with
// the reactor started. nil — serve it on a streamSource — for non-TCP
// conns or if the reactor could not start.
func (s *Server) rawSource(c *conn) source {
	tc, ok := c.nc.(*net.TCPConn)
	if !ok {
		return nil
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return nil
	}
	fd := -1
	if cerr := rc.Control(func(f uintptr) { fd = int(f) }); cerr != nil || fd < 0 {
		return nil
	}
	r := s.startReactor()
	if r == nil {
		return nil
	}
	return &fdSource{r: r, c: c, fd: fd}
}

// epollCtl (re-)registers fd for edge-triggered read, write and hang-up
// readiness.
func (r *reactor) epollCtl(op, fd int) error {
	ev := syscall.EpollEvent{Events: evIn | evOut | evHup | evET, Fd: int32(fd)}
	return syscall.EpollCtl(r.epfd, op, fd, &ev)
}

// del unregisters a connection's fd before it closes.
func (r *reactor) del(fd int) {
	syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
	r.mu.Lock()
	delete(r.conns, fd)
	r.mu.Unlock()
}

// poll is the single event loop. It folds each event into its
// connection's state, flushes on writable edges that resume an
// EAGAIN-parked queue, and pumps readable connections: the first one
// itself, after the rest are on their way to the workers. The wait uses
// a finite timeout so that Shutdown is noticed; the poller owns the
// epoll fd and closes it on the way out.
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
		if err != nil || r.srv.stopped() {
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
			ev := events[i].Events
			flush, pump := c.onEvent(ev&evIn != 0, ev&evOut != 0, ev&evHup != 0)
			if flush {
				c.flush()
			}
			if !pump {
				continue
			}
			if own == nil {
				own = c
			} else {
				r.srv.surplus <- c
			}
		}
		if own != nil {
			own.pump(tid, true)
		}
	}
}

// fdSource is an accepted TCP socket on the reactor: non-blocking
// read(2) and writev(2) on its fd, edges from the poller.
type fdSource struct {
	r      *reactor
	c      *conn
	fd     int
	iovecs []syscall.Iovec // writev scratch
}

// start registers the fd: its edges arrive from here on. A reactor that
// has stopped, or an fd epoll refuses, drops the connection.
func (s *fdSource) start() {
	r := s.r
	r.mu.Lock()
	ok := !r.srv.stopped()
	if ok {
		r.conns[s.fd] = s.c
	}
	r.mu.Unlock()
	if !ok || r.epollCtl(syscall.EPOLL_CTL_ADD, s.fd) != nil {
		s.c.abort()
	}
}

func (s *fdSource) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(s.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errAgain
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// writev issues one writev(2) over bufs. Partial writes return with a
// nil error and the caller re-batches.
func (s *fdSource) writev(bufs [][]byte) (int, error) {
	if cap(s.iovecs) < len(bufs) {
		s.iovecs = make([]syscall.Iovec, 0, len(bufs)+8)
	}
	iv := s.iovecs[:0]
	for _, b := range bufs {
		iv = append(iv, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
	}
	s.iovecs = iv
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, uintptr(s.fd),
			uintptr(unsafe.Pointer(&iv[0])), uintptr(len(iv)))
		runtime.KeepAlive(bufs)
		switch errno {
		case 0:
			return int(n), nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return 0, errAgain
		default:
			return 0, errno
		}
	}
}

// rearm re-registers interest after a writev EAGAIN. With edge-triggered
// epoll, a writability edge landing between the EAGAIN and wantWrite
// being set would find nothing to resume; EPOLL_CTL_MOD re-delivers the
// edge if the socket is already writable again.
func (s *fdSource) rearm() { s.r.epollCtl(syscall.EPOLL_CTL_MOD, s.fd) }

// sever leaves the fd to close: a pump or flush may be mid-syscall on it.
func (s *fdSource) sever() {}

// close drops the fd from the reactor first, so it cannot be seen again
// after the close.
func (s *fdSource) close() {
	s.r.del(s.fd)
	s.c.nc.Close()
}
