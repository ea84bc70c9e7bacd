package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"montage/benchmark/workload"
)

// tick is the open-loop schedule's granularity: due times are tick
// boundaries, so the generator sleeps to a boundary and never spins. A
// spinning pacer stole the server's core on 2 CPUs (README, sizing).
const tick = time.Millisecond

// traceCap bounds the request spans kept per connection; the aggregate
// rows use every request.
const traceCap = 10000

// span is one request as the client saw it, in ns since the load's
// epoch. sent and first are recorded only in a traced run.
type span struct {
	seq                          int64
	kind                         workload.Kind
	due, start, sent, first, end int64
}

// inflight is a request the writer has sent and the reader must match
// with the next reply on the connection.
type inflight struct {
	op               workload.Op
	seq              int64
	due, start, sent int64
}

// client is one load connection: a writer goroutine that follows the
// stream and a reader goroutine that checks every reply against it.
type client struct {
	spec   workload.Spec
	id     int
	nc     net.Conn
	br     *bufio.Reader
	stream *workload.Stream
	load   *load
	seq    int64

	// Reader-owned until the load has stopped.
	lat       [workload.NumKinds][]sample // due -> last reply byte, timed window only
	late      []int64                     // due -> send, timed window only
	spans     []span
	done      int64 // replies checked in the timed window
	failed    int64 // error replies, wrong or out-of-order values, whole run
	answered  int64 // replies read, whole run
	issued    int64 // requests sent, whole run (writer-owned)
	violation []string
}

// load drives every connection of one workload through warm-up and the
// timed window. Times are ns since base.
type load struct {
	spec     workload.Spec
	base     time.Time
	winStart atomic.Int64 // timed window [winStart, winEnd); 0 until known
	winEnd   atomic.Int64
	stop     atomic.Bool
	traced   bool
	clients  []*client
	wg       sync.WaitGroup
}

func (l *load) now() int64 { return int64(time.Since(l.base)) }

func (l *load) inWindow(t int64) bool {
	ws, we := l.winStart.Load(), l.winEnd.Load()
	return ws != 0 && t >= ws && (we == 0 || t < we)
}

// dial opens a connection whose every read and write fails once the
// repetition's deadline has passed.
func dial(addr string, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, nil, err
	}
	return nc, bufio.NewReaderSize(nc, 64<<10), nil
}

// roundTrip sends one admin line and returns the single reply line.
func roundTrip(nc net.Conn, br *bufio.Reader, cmd string) (string, error) {
	if _, err := nc.Write([]byte(cmd + "\r\n")); err != nil {
		return "", err
	}
	line, err := br.ReadSlice('\n')
	if err != nil {
		return "", fmt.Errorf("%s: %w", cmd, err)
	}
	return string(bytes.TrimRight(line, "\r\n")), nil
}

// preload stores version 1 of every preloaded key the client owns, in
// pipelined batches, and checks each reply.
func (c *client) preload() error {
	const batch = 512
	var buf []byte
	for j := 0; j < c.stream.Local(); {
		buf = buf[:0]
		n := 0
		for ; j < c.stream.Local() && n < batch; j++ {
			if c.spec.Preloaded(c.stream.ID(j)) {
				buf = workload.AppendRequest(buf, c.spec, workload.Op{Kind: workload.Set, ID: c.stream.ID(j), Version: 1})
				n++
			}
		}
		if _, err := c.nc.Write(buf); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for ; n > 0; n-- {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			if !bytes.Equal(line, []byte("STORED\r\n")) {
				return fmt.Errorf("preload: unexpected reply %q", line)
			}
		}
	}
	return nil
}

// start launches every client: a closed loop is one goroutine per
// connection, an open loop a writer on the schedule and a reader.
func (l *load) start() {
	for _, c := range l.clients {
		if l.spec.RatePerS == 0 {
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				c.closedLoop()
			}()
			continue
		}
		// The writer must never wait for the reader, so the queue holds what
		// 16 s of the offered rate can put in flight; beyond that the writer
		// blocks and shows up as late.
		pending := make(chan inflight, 16*l.spec.RatePerS/l.spec.Conns)
		l.wg.Add(2)
		go func() {
			defer l.wg.Done()
			defer close(pending)
			c.writeOpen(pending)
		}()
		go func() {
			defer l.wg.Done()
			for in := range pending {
				if !c.settle(in) {
					// Unblock the writer; what is still queued stays unanswered.
					c.nc.Close()
					for range pending {
					}
					return
				}
			}
		}()
	}
}

// closedLoop keeps Depth requests outstanding: it reads every reply
// that has arrived, then replaces them all with one write. Reading and
// writing on one goroutine, and batching the way the server batches its
// flushes, keeps the generator's own CPU below the server's.
func (c *client) closedLoop() {
	ring := make([]inflight, 0, c.spec.Depth)
	var buf []byte
	for free := c.spec.Depth; ; {
		if c.load.stop.Load() {
			free = 0
		}
		if free > 0 {
			now, fresh := c.load.now(), len(ring)
			buf = buf[:0]
			for ; free > 0; free-- {
				op := c.stream.Next()
				buf = workload.AppendRequest(buf, c.spec, op)
				ring = append(ring, inflight{op: op, seq: c.seq, due: now, start: now})
				c.seq++
			}
			if _, err := c.nc.Write(buf); err != nil {
				return
			}
			c.issued += int64(len(ring) - fresh)
			if c.load.traced {
				for sent := c.load.now(); fresh < len(ring); fresh++ {
					ring[fresh].sent = sent
				}
			}
		}
		if len(ring) == 0 {
			return
		}
		// One blocking read, then whatever else is already buffered.
		for first := true; len(ring) > 0 && (first || c.br.Buffered() > 0); first = false {
			if !c.settle(ring[0]) {
				return
			}
			ring = ring[:copy(ring, ring[1:])]
			free++
		}
	}
}

// writeOpen sends each request at its due time: request i of this
// connection is due at the tick boundary at or before i/rate, offset by
// the connection's share of a tick so the connections interleave.
func (c *client) writeOpen(pending chan<- inflight) {
	perConn := c.spec.RatePerS / c.spec.Conns
	interval := int64(time.Second) / int64(perConn)
	origin := c.load.now() + int64(tick) + int64(c.id)*int64(tick)/int64(c.spec.Conns)
	var buf []byte
	var batch []inflight
	for i := int64(0); ; {
		due := origin + (i*interval)/int64(tick)*int64(tick)
		if d := due - c.load.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if c.load.stop.Load() {
			return
		}
		// Everything due by now goes out in one write; after a late wake-up
		// that is several ticks' worth, each keeping its own due time.
		now := c.load.now()
		buf, batch = buf[:0], batch[:0]
		for ; ; i++ {
			due = origin + (i*interval)/int64(tick)*int64(tick)
			if due > now {
				break
			}
			op := c.stream.Next()
			buf = workload.AppendRequest(buf, c.spec, op)
			batch = append(batch, inflight{op: op, seq: c.seq, due: due, start: now})
			c.seq++
		}
		if _, err := c.nc.Write(buf); err != nil {
			return
		}
		sent := int64(0)
		if c.load.traced {
			sent = c.load.now()
		}
		for _, in := range batch {
			in.sent = sent
			c.issued++
			pending <- in
		}
	}
}

// mismatch is a reply that was read whole but is not the one the shadow
// requires; any other read error leaves the connection unframed.
type mismatch string

func (m mismatch) Error() string { return string(m) }

func mismatchf(format string, a ...any) error { return mismatch(fmt.Sprintf(format, a...)) }

// settle reads the reply to the oldest request in flight, checks it
// against the shadow and records the timings of a correct one. It
// reports false when the connection can no longer be used.
func (c *client) settle(in inflight) bool {
	first, err := c.readReply(in.op)
	end := c.load.now()
	if err != nil {
		c.fail(in.op, err)
		if _, ok := err.(mismatch); !ok {
			return false
		}
	}
	c.answered++
	if err == nil && c.load.inWindow(end) {
		c.done++
		c.lat[in.op.Kind] = append(c.lat[in.op.Kind], sample{end - c.load.winStart.Load(), end - in.due})
		c.late = append(c.late, in.start-in.due)
		if c.load.traced && len(c.spans) < traceCap {
			c.spans = append(c.spans, span{in.seq, in.op.Kind, in.due, in.start, in.sent, first, end})
		}
	}
	return true
}

func (c *client) fail(op workload.Op, err error) {
	c.failed++
	if len(c.violation) < 20 {
		c.violation = append(c.violation, fmt.Sprintf("conn %d %s key %d want version %d: %v", c.id, op.Kind, op.ID, op.Version, err))
	}
}

// readReply consumes exactly one reply and checks it is the one op must
// get. first is when the reply's first line arrived (traced runs).
func (c *client) readReply(op workload.Op) (first int64, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if c.load.traced {
		first = c.load.now()
	}
	if op.Kind != workload.Get {
		if !bytes.Equal(line, []byte("STORED\r\n")) {
			return first, mismatchf("reply %q", bytes.TrimRight(line, "\r\n"))
		}
		return first, nil
	}
	id, version, hit, err := readValue(c.br, line, c.spec)
	if err != nil {
		return first, err
	}
	if hit {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return first, err
		}
		if !bytes.Equal(line, []byte("END\r\n")) {
			return first, mismatchf("reply %q after value", bytes.TrimRight(line, "\r\n"))
		}
	}
	switch {
	case hit != op.Live:
		return first, mismatchf("hit=%v", hit)
	case hit && (id != op.ID || version != op.Version):
		return first, mismatchf("got key %d version %d", id, version)
	}
	return first, nil
}

// readValue parses what follows a get: line is either "END" (miss) or a
// VALUE header whose data block is then consumed and decoded. A value
// that is malformed, or filed under another key than the one it names,
// comes back as id -1, so the caller counts it wrong and stays framed.
func readValue(br *bufio.Reader, line []byte, spec workload.Spec) (id int, version uint32, hit bool, err error) {
	if bytes.Equal(line, []byte("END\r\n")) {
		return 0, 0, false, nil
	}
	f := bytes.Fields(line)
	if len(f) != 4 || string(f[0]) != "VALUE" {
		return 0, 0, false, mismatchf("reply %q", bytes.TrimRight(line, "\r\n"))
	}
	n, perr := strconv.Atoi(string(f[3]))
	if perr != nil || n != spec.ValueLen {
		return 0, 0, false, fmt.Errorf("value length %q", f[3])
	}
	var key [64]byte
	keyLen := copy(key[:], f[1]) // line is invalid after the next read
	data, err := br.Peek(n + 2)
	if err != nil {
		return 0, 0, false, err
	}
	id, version, ok := workload.ParseValue(data[:n], spec.ValueLen)
	if !ok || !bytes.Equal(workload.AppendKey(nil, id, spec.KeyLen), key[:keyLen]) {
		id = -1
	}
	_, err = br.Discard(n + 2)
	return id, version, true, err
}

// sweep reads every key the client owns back, in multi-key gets, and
// returns the ids whose state differs from the shadow.
func (c *client) sweep() (checked int, lost []int, err error) {
	const perGet = 50
	var buf []byte
	got := make(map[int]uint32, perGet)
	for j := 0; j < c.stream.Local(); {
		buf = append(buf[:0], "get"...)
		from := j
		for ; j < c.stream.Local() && j-from < perGet; j++ {
			buf = append(buf, ' ')
			buf = workload.AppendKey(buf, c.stream.ID(j), c.spec.KeyLen)
		}
		buf = append(buf, '\r', '\n')
		if _, err := c.nc.Write(buf); err != nil {
			return checked, lost, fmt.Errorf("sweep: %w", err)
		}
		clear(got)
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return checked, lost, fmt.Errorf("sweep: %w", err)
			}
			id, version, hit, err := readValue(c.br, line, c.spec)
			if err != nil {
				return checked, lost, fmt.Errorf("sweep: %w", err)
			}
			if !hit {
				break
			}
			got[id] = version
		}
		for k := from; k < j; k++ {
			want, live := c.stream.State(k)
			version, hit := got[c.stream.ID(k)]
			if hit != live || hit && version != want {
				lost = append(lost, c.stream.ID(k))
			}
			checked++
		}
	}
	return checked, lost, nil
}
