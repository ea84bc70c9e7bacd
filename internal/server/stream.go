package server

import (
	"net"
	"sync"
	"time"
)

// streamBuf bounds each direction of a streamSource's buffering — its
// emulated socket buffers. A pump that stops reading leaves the reader
// blocked once the receive side holds this much, and the client blocked
// behind it (TCP backpressure); a client that stops reading makes
// writev return errAgain once the send side holds this much.
const streamBuf = 64 << 10

// streamLinger bounds how long a closed connection's last responses may
// wait for a peer that has stopped reading.
const streamLinger = 5 * time.Second

// streamSource presents a blocking net.Conn — a pipe, a non-TCP conn,
// any socket off Linux — as the non-blocking source the pump and flush
// expect. A reader goroutine fills a bounded receive buffer and raises
// a readable edge after every read (a hang-up edge after the last); on
// that edge it pumps the connection itself, on a borrowed thread id, so
// the goroutine that learns the connection is readable serves it, as
// the epoll poller does. A writer goroutine drains a bounded send
// buffer and, when a flush found it full, raises the writable edge that
// resumes it.
type streamSource struct {
	c    *conn
	nc   net.Conn
	done chan struct{} // closed when the writer has closed nc

	mu      sync.Mutex
	cond    *sync.Cond // reader: room; writer: bytes, kick, or close
	rbuf    []byte     // received, not yet read by the pump
	rerr    error      // what ended the input (io.EOF or a transport error)
	wbuf    []byte     // taken by writev, not yet written
	kick    bool       // rearm: raise a writable edge when the writer next takes wbuf
	closed  bool       // no more input wanted; the writer finishes wbuf, then closes nc
	severed bool       // drop wbuf and close now
}

// newStreamSource makes c's source a streamSource; start serves it.
func newStreamSource(c *conn) *streamSource {
	src := &streamSource{c: c, nc: c.nc, done: make(chan struct{})}
	src.cond = sync.NewCond(&src.mu)
	c.src = src
	return src
}

// serveConn serves one connection on a stream source until it is closed
// and its last byte written. Protocol tests drive it over a net.Pipe.
func (s *Server) serveConn(nc net.Conn) {
	src := newStreamSource(s.newConn(nc))
	src.start()
	<-src.done
}

func (s *streamSource) start() {
	go s.writer()
	go s.reader()
}

func (s *streamSource) reader() {
	buf := make([]byte, readChunk)
	for {
		n, err := s.nc.Read(buf)
		s.mu.Lock()
		s.rbuf = append(s.rbuf, buf[:n]...)
		if err != nil {
			s.rerr = err
		}
		s.mu.Unlock()
		// The edge that carries the end of input is the last one: like
		// EPOLLRDHUP it makes the pump read on until it sees it.
		if _, pump := s.c.onEvent(true, false, err != nil); pump {
			srv := s.c.srv
			tid := <-srv.tids
			s.c.pump(tid, false)
			srv.tids <- tid
		}
		if err != nil {
			return
		}
		s.mu.Lock()
		for len(s.rbuf) >= streamBuf && !s.closed {
			s.cond.Wait()
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

func (s *streamSource) read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rbuf) == 0 {
		if s.rerr != nil {
			return 0, s.rerr
		}
		return 0, errAgain
	}
	n := copy(p, s.rbuf)
	s.rbuf = s.rbuf[:copy(s.rbuf, s.rbuf[n:])]
	s.cond.Broadcast()
	return n, nil
}

func (s *streamSource) writer() {
	defer close(s.done)
	var out []byte
	for {
		s.mu.Lock()
		for len(s.wbuf) == 0 && !s.kick && !s.closed {
			s.cond.Wait()
		}
		if s.severed || s.closed && len(s.wbuf) == 0 {
			s.mu.Unlock()
			s.nc.Close()
			return
		}
		out, s.wbuf = s.wbuf, out[:0]
		edge := s.kick
		s.kick = false
		s.mu.Unlock()
		// The send buffer is empty again: let a parked flush refill it
		// while this goroutine writes what it took.
		if edge {
			if flush, _ := s.c.onEvent(false, true, false); flush {
				s.c.flush()
			}
		}
		if len(out) > 0 {
			if _, err := s.nc.Write(out); err != nil {
				s.c.abort()
				s.sever()
			}
		}
	}
}

func (s *streamSource) writev(bufs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, net.ErrClosed
	}
	n := 0
	for _, b := range bufs {
		room := streamBuf - len(s.wbuf)
		if room <= 0 {
			break
		}
		b = b[:min(len(b), room)]
		s.wbuf = append(s.wbuf, b...)
		n += len(b)
	}
	if n == 0 {
		return 0, errAgain
	}
	s.cond.Broadcast()
	return n, nil
}

// rearm asks the writer for a writable edge as soon as the send buffer
// has room: at once if it has, else when the writer next takes it.
func (s *streamSource) rearm() {
	s.mu.Lock()
	s.kick = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *streamSource) sever() {
	s.mu.Lock()
	s.closed, s.severed = true, true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.nc.Close()
}

func (s *streamSource) close() {
	s.nc.SetWriteDeadline(time.Now().Add(streamLinger))
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
