package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"montage/internal/kvstore"
	"montage/internal/memtext"
	"montage/internal/obs"
	"montage/internal/pmem"
)

// pipelineCap bounds the per-connection response queue: how many
// pipelined requests may be executing/parked ahead of the client
// reading their responses. When the queue fills, the connection stops
// consuming input (TCP backpressure) until the flusher drains it below
// half.
const pipelineCap = 256

// maxRelativeExp is memcached's exptime cutoff: values up to 30 days
// are relative seconds, larger ones are absolute unix times.
const maxRelativeExp = 60 * 60 * 24 * 30

// readChunk is the per-read append quantum for the input buffer, and
// shrinkCap the retained-capacity bound past which an idle input buffer
// is reallocated small (a 1 MiB set should not pin 1 MiB per
// connection forever at 10k connections).
const (
	readChunk = 4096
	shrinkCap = 64 << 10
)

// Parser states: between commands (line framing), inside a storage
// body, or swallowing an oversized body to stay framed.
const (
	stLine = iota
	stBody
	stDiscard
)

// conn is one client connection. One goroutine at a time ingests input
// (the blocking read loop, or a reactor pump on an epoll readable
// edge), parses commands in place with the shared tokenizer, executes
// them, and appends responses to the write queue in flush.go. Reactor
// connections have no writer goroutine: ready responses are flushed in
// batches by whoever settled the queue head (the pump, the parking-lot
// subscriber, the poller on a writable edge); pipes and non-Linux
// connections keep a fallback writer. Epoch-wait acks park as callbacks
// on the shard parking lot rather than blocking anyone.
type conn struct {
	srv  *Server
	nc   net.Conn
	tid  int // fixed exec tid (serveConn/tests); -1 = borrow per burst
	rtid int // recording tid for counters (small, stable)
	mode AckMode

	// Parser state, owned by the single ingesting goroutine.
	in      []byte
	st      int
	tok     [][]byte
	sa      storageArgs
	verb    byte // 's','a','r','c' for the in-flight storage command
	keyb    [maxKeyLen]byte
	discard int
	vbuf    []byte // value-encode scratch: [4B flags][body]
	gv      getViewer

	// Write queue (flush.go). wcond shares wmu: the blocking read loop
	// waits on it for backpressure, the fallback writer for work.
	wmu         sync.Mutex
	wcond       *sync.Cond
	qhead       *pending
	qtail       *pending
	qlen        int
	woff        int  // bytes of qhead.data already written (partial writev)
	flushActive bool // reactor: the flush claim, one goroutine in writev
	wantWrite   bool // reactor: writev hit EAGAIN, awaiting EPOLLOUT
	readParked  bool // reactor: pump parked on a full pipeline
	closing     bool
	dead        bool
	closeDone   bool

	// Reactor bookkeeping (linux TCP connections only), under wmu.
	raw         bool
	fd          int
	pumpRunning bool // the pump claim: one goroutine reads and ingests
	pumpAgain   bool // a readable edge arrived while the pump ran
	hup         bool // the peer hung up: no further edge will follow

	// Flusher scratch, reused across batches.
	iov   [][]byte
	batch []*pending
	rw    rawConnState

	accepted bool // accept-loop bookkeeping applies (not a test pipe)
}

func (s *Server) newConn(nc net.Conn, tid int) *conn {
	c := &conn{
		srv:  s,
		nc:   nc,
		tid:  tid,
		rtid: tid,
		mode: s.cfg.DefaultMode,
	}
	if tid < 0 {
		c.rtid = int(s.connSeq.Add(1)) % s.execThreads
	}
	c.wcond = sync.NewCond(&c.wmu)
	c.gv.c = c
	return c
}

// serveConn runs one connection to completion on the portable blocking
// driver. Split out from the accept loop so protocol tests can drive it
// over a net.Pipe with a fixed Montage tid.
func (s *Server) serveConn(nc net.Conn, tid int) {
	c := s.newConn(nc, tid)
	c.runBlocking()
}

// runBlocking pairs the blocking read loop with a fallback writer
// goroutine and waits for both: the writer keeps draining (including
// parked epoch-wait acks resolving on the lot) after the read side
// stops, exactly like the old dedicated-writer teardown.
func (c *conn) runBlocking() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.fallbackWriter()
	}()
	c.readLoop()
	<-done
	c.closeNow()
}

// readLoop is the blocking driver: read, ingest, repeat, pausing while
// the response queue is full.
func (c *conn) readLoop() {
	rec := c.srv.rec
	var ierr error
	for {
		c.wmu.Lock()
		for c.qlen >= pipelineCap && !c.dead && !c.closing {
			c.wcond.Wait()
		}
		stop := c.dead || c.closing
		c.wmu.Unlock()
		if stop {
			return
		}
		var n int
		var err error
		if ierr != errThrottle {
			c.ensureSpare(readChunk)
			n, err = c.nc.Read(c.in[len(c.in):cap(c.in)])
			if n > 0 {
				rec.Add(c.rtid, obs.CNetBytesIn, uint64(n))
				c.in = c.in[:len(c.in)+n]
			}
		}
		// A throttled ingest left complete commands buffered: run them
		// before touching the socket again, or a client that has already
		// sent everything is never answered (pumpOnce does the same).
		if n > 0 || ierr == errThrottle {
			tid := c.tid
			borrowed := tid < 0
			if borrowed {
				tid = <-c.srv.tids
			}
			ierr = c.ingest(tid)
			if borrowed {
				c.srv.tids <- tid
			}
			switch ierr {
			case nil, errThrottle:
			default:
				// quit or unrecoverable framing damage: stop reading, let
				// the writer drain queued responses, then close.
				c.closeSoon()
				return
			}
		}
		if err != nil {
			if err == io.EOF {
				c.closeSoon()
			} else {
				c.abort()
			}
			return
		}
	}
}

// ensureSpare guarantees min bytes of append room in the input buffer,
// counting growths (steady state re-reads into the same array).
func (c *conn) ensureSpare(min int) {
	if cap(c.in)-len(c.in) >= min {
		return
	}
	newCap := 2 * cap(c.in)
	if newCap < len(c.in)+min {
		newCap = len(c.in) + min
	}
	if newCap < readChunk {
		newCap = readChunk
	}
	buf := make([]byte, len(c.in), newCap)
	copy(buf, c.in)
	c.in = buf
	c.srv.rec.Inc(c.rtid, obs.CNetParseAllocs)
}

// ingest consumes as much of the buffered input as possible: complete
// command lines are tokenized in place and dispatched, storage bodies
// are executed once fully buffered, oversized bodies are swallowed.
// Returns nil (need more input), errThrottle (pipeline full — stop
// reading until the flusher resumes us), errQuit, or errProtocol
// (unrecoverable framing: close after the queued responses flush).
func (c *conn) ingest(tid int) error {
	base := 0
	var ret error
loop:
	for {
		switch c.st {
		case stLine:
			idx := bytes.IndexByte(c.in[base:], '\n')
			if idx < 0 {
				if len(c.in)-base > maxLineLen {
					// The request boundary is lost; report and hang up.
					c.protoErr(serverError("line too long"))
					ret = errProtocol
				}
				break loop
			}
			line := c.in[base : base+idx]
			base += idx + 1
			if len(line) > maxLineLen {
				c.protoErr(serverError("line too long"))
				ret = errProtocol
				break loop
			}
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if err := c.dispatchLine(line, tid); err != nil {
				ret = err
				break loop
			}
		case stBody:
			need := c.sa.bytes + 2
			if len(c.in)-base < need {
				break loop
			}
			body := c.in[base : base+need]
			base += need
			c.st = stLine
			if body[c.sa.bytes] != '\r' || body[c.sa.bytes+1] != '\n' {
				c.protoErr(clientError("bad data chunk"))
			} else {
				c.execStore(body[:c.sa.bytes], tid)
			}
		case stDiscard:
			avail := len(c.in) - base
			if avail < c.discard {
				base += avail
				c.discard -= avail
				break loop
			}
			base += c.discard
			c.discard = 0
			c.st = stLine
			c.srv.rec.Inc(c.rtid, obs.CNetProtoErrors)
			if !c.sa.noreply {
				c.enqueue(newPending(respTooLarge, nil))
			}
		}
		if ret == nil && c.pipelineFull() {
			ret = errThrottle
			break loop
		}
	}
	// Compact: move the unconsumed tail to the front so borrowed tokens
	// never outlive one ingest call.
	if base > 0 {
		n := copy(c.in, c.in[base:])
		c.in = c.in[:n]
	}
	if cap(c.in) > shrinkCap && len(c.in) < readChunk {
		buf := make([]byte, len(c.in), 2*readChunk)
		copy(buf, c.in)
		c.in = buf
		c.srv.rec.Inc(c.rtid, obs.CNetParseAllocs)
	}
	return ret
}

func (c *conn) pipelineFull() bool {
	c.wmu.Lock()
	full := c.qlen >= pipelineCap
	c.wmu.Unlock()
	return full
}

// protoErr reports a recoverable protocol error on this connection.
func (c *conn) protoErr(resp []byte) {
	c.srv.rec.Inc(c.rtid, obs.CNetProtoErrors)
	c.enqueue(newPending(resp, nil))
}

// dispatchLine tokenizes one command line in place and runs it.
func (c *conn) dispatchLine(line []byte, tid int) error {
	grew := cap(c.tok)
	c.tok = memtext.AppendFields(c.tok[:0], line)
	if cap(c.tok) != grew {
		c.srv.rec.Inc(c.rtid, obs.CNetParseAllocs)
	}
	if len(c.tok) == 0 {
		return nil
	}
	rec := c.srv.rec
	verb, args := c.tok[0], c.tok[1:]
	switch string(verb) {
	case "get":
		rec.Inc(c.rtid, obs.CNetOpsGet)
		c.doGet(args, false, tid)
		return nil
	case "gets":
		rec.Inc(c.rtid, obs.CNetOpsGet)
		c.doGet(args, true, tid)
		return nil

	case "set":
		rec.Inc(c.rtid, obs.CNetOpsSet)
		return c.doStoreHead('s', args)
	case "add":
		rec.Inc(c.rtid, obs.CNetOpsSet)
		return c.doStoreHead('a', args)
	case "replace":
		rec.Inc(c.rtid, obs.CNetOpsSet)
		return c.doStoreHead('r', args)
	case "cas":
		rec.Inc(c.rtid, obs.CNetOpsSet)
		return c.doStoreHead('c', args)

	case "delete":
		rec.Inc(c.rtid, obs.CNetOpsDelete)
		c.doDelete(args, tid)
		return nil

	case "touch":
		rec.Inc(c.rtid, obs.CNetOpsTouch)
		c.doTouch(args, tid)
		return nil

	case "flush_all":
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		c.doFlushAll(args, tid)
		return nil

	case "stats":
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		s := c.srv
		s.mu.RLock()
		data := c.statsBody(s.cur)
		s.mu.RUnlock()
		c.enqueue(newPending(data, nil))
		return nil

	case "version":
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		c.enqueue(newPending([]byte("VERSION montage/0.2\r\n"), nil))
		return nil

	case "verbosity":
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		if !hasNoreplyTok(args) {
			c.enqueue(newPending(respOK, nil))
		}
		return nil

	case "sync":
		// Extension: force all completed operations durable now.
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		s := c.srv
		s.mu.RLock()
		if s.cur.pool != nil {
			s.cur.pool.Sync(tid)
		}
		s.mu.RUnlock()
		c.enqueue(newPending(respOK, nil))
		return nil

	case "durability":
		// Extension: query or set this connection's ack mode.
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		if len(args) == 0 {
			c.enqueue(newPending([]byte("DURABILITY "+c.mode.String()+"\r\n"), nil))
			return nil
		}
		noreply := hasNoreplyTok(args)
		if noreply {
			args = args[:len(args)-1]
		}
		if len(args) != 1 {
			c.protoErr(clientError("bad command line format"))
			return nil
		}
		mode, perr := ParseAckMode(string(args[0]))
		if perr != nil {
			c.protoErr(clientError(perr.Error()))
			return nil
		}
		c.mode = mode
		if !noreply {
			c.enqueue(newPending(respOK, nil))
		}
		return nil

	case "crash":
		// Extension (gated): simulated power failure + in-place recovery.
		rec.Inc(c.rtid, obs.CNetOpsAdmin)
		if !c.srv.cfg.AllowCrash {
			c.protoErr(respError)
			return nil
		}
		mode := pmem.CrashDropAll
		if len(args) == 1 && string(args[0]) == "partial" {
			mode = pmem.CrashPartial
		}
		// Deliberately NOT under the read lock: Crash takes the write lock.
		if _, cerr := c.srv.Crash(mode); cerr != nil {
			c.enqueue(newPending(serverError(cerr.Error()), nil))
			return nil
		}
		c.enqueue(newPending(respOK, nil))
		return nil

	case "quit":
		return errQuit

	default:
		c.protoErr(respError)
		return nil
	}
}

// getViewer renders VALUE blocks straight from the store's borrowed
// value view into the pooled response buffer — no intermediate copy,
// no per-call closure. One per conn, reused across gets.
type getViewer struct {
	c       *conn
	buf     []byte
	key     []byte
	withCAS bool
}

func (g *getViewer) ViewValue(v []byte, cas uint64) {
	flags, data := decodeValue(v)
	b := append(g.buf, "VALUE "...)
	b = append(b, g.key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(len(data)), 10)
	if g.withCAS {
		b = append(b, ' ')
		b = strconv.AppendUint(b, cas, 10)
	}
	b = append(b, '\r', '\n')
	b = append(b, data...)
	b = append(b, '\r', '\n')
	g.buf = b
}

// doGet serves get/gets over any number of keys.
func (c *conn) doGet(keys [][]byte, withCAS bool, tid int) {
	if len(keys) == 0 {
		c.protoErr(clientError("bad command line format"))
		return
	}
	for _, k := range keys {
		if !memtext.ValidKey(k) {
			c.protoErr(clientError("bad key"))
			return
		}
	}
	s := c.srv
	pbuf := getRespBuf()
	g := &c.gv
	g.withCAS = withCAS
	g.buf = (*pbuf)[:0]
	s.mu.RLock()
	store := s.cur.store
	for _, k := range keys {
		g.key = k
		store.GetView(tid, memtext.String(k), g)
	}
	s.mu.RUnlock()
	g.buf = append(g.buf, respEnd...)
	*pbuf = g.buf
	c.enqueue(newPending(*pbuf, pbuf))
	g.buf = nil
	g.key = nil
}

// doStoreHead parses a storage-command header. The key is copied into
// the conn's key buffer (the read buffer compacts before the body
// arrives); the body is executed from stBody once fully buffered.
func (c *conn) doStoreHead(verb byte, args [][]byte) error {
	key, perr := parseStorageFields(args, verb == 'c', &c.sa)
	if perr != nil {
		// The declared body length is unknown; stay on the line boundary
		// and let any body bytes fail as commands.
		c.protoErr(clientError(perr.Error()))
		return nil
	}
	if c.sa.bytes > c.srv.cfg.MaxItemSize {
		if c.sa.bytes+2 > discardCap {
			c.protoErr(serverError("object too large for cache"))
			return errProtocol
		}
		c.discard = c.sa.bytes + 2
		c.st = stDiscard
		return nil
	}
	c.sa.klen = copy(c.keyb[:], key)
	c.verb = verb
	c.st = stBody
	return nil
}

// execStore runs the buffered storage command. The key crosses the
// kvstore boundary as an unsafe borrowed string (every retaining layer
// clones); the value is encoded into per-conn scratch that the store
// copies out of under its own locks.
func (c *conn) execStore(body []byte, tid int) {
	s := c.srv
	need := 4 + len(body)
	if cap(c.vbuf) < need {
		c.vbuf = make([]byte, 0, need+need/2)
		s.rec.Inc(c.rtid, obs.CNetParseAllocs)
	}
	enc := c.vbuf[:need]
	binary.LittleEndian.PutUint32(enc, c.sa.flags)
	copy(enc[4:], body)
	ttl := ttlFor(c.sa.exptime)
	key := memtext.String(c.keyb[:c.sa.klen])

	var data []byte
	var tag kvstore.DurabilityTag
	s.mu.RLock()
	r := s.cur
	switch c.verb {
	case 's':
		t, err := r.store.SetTag(tid, key, enc, ttl)
		if err != nil {
			data = serverError(err.Error())
		} else {
			data, tag = respStored, t
		}
	case 'a':
		stored, t, err := r.store.Add(tid, key, enc, ttl)
		switch {
		case err != nil:
			data = serverError(err.Error())
		case !stored:
			data = respNotStored
		default:
			data, tag = respStored, t
		}
	case 'r':
		stored, t, err := r.store.Replace(tid, key, enc, ttl)
		switch {
		case err != nil:
			data = serverError(err.Error())
		case !stored:
			data = respNotStored
		default:
			data, tag = respStored, t
		}
	default: // 'c'
		out, t, err := r.store.CompareAndSwap(tid, key, enc, ttl, c.sa.cas)
		switch {
		case err != nil:
			data = serverError(err.Error())
		case out == kvstore.CASStored:
			data, tag = respStored, t
		case out == kvstore.CASExists:
			data = respExists
		default:
			data = respNotFound
		}
	}
	c.finishWrite(r, tid, c.sa.noreply, data, tag)
	s.mu.RUnlock()
}

// finishWrite applies the connection's durability-ack mode to one
// completed write and queues the response: buffered acks immediately,
// sync forces the owning shard's Sync first, epoch-wait enqueues the
// response parked on the shard lot until the write's epoch persists.
// Called under the server's read lock (released by the caller after).
func (c *conn) finishWrite(r *rt, tid int, noreply bool, data []byte, tag kvstore.DurabilityTag) {
	s := c.srv
	var lot *shardLot
	var lotEpoch uint64
	if !tag.IsZero() && r.pool != nil && !noreply {
		switch c.mode {
		case AckSync:
			st := s.rec.Start()
			r.pool.Shard(tag.Shard).Sync(tid)
			s.rec.ObserveSince(c.rtid, obs.HAckSyncNs, st)
			s.rec.Inc(c.rtid, obs.CNetAcksSync)
		case AckEpochWait:
			lot = r.lot.shard(tag.Shard)
			lotEpoch = tag.Epoch
		default:
			s.rec.Inc(c.rtid, obs.CNetAcksBuffered)
		}
	}
	if noreply {
		return
	}
	if lot == nil {
		c.enqueue(newPending(data, nil))
		return
	}
	// Epoch-wait: enqueue first (ordering), then park the callback.
	// These pendings are never pooled — a racing late fire must not
	// observe a recycled object.
	p := &pending{data: data, start: s.rec.Start(), nwait: 1}
	c.enqueue(p)
	c.registerWait(lot, lotEpoch, p)
}

// registerWait parks p's ack on the shard lot, recording the cancel
// handle so a dead connection can drop the slot (satellite: a closed
// client must not hold lot fan-out for whole epochs).
func (c *conn) registerWait(l *shardLot, e uint64, p *pending) {
	lw := l.register(e, c, p)
	if lw == nil {
		c.ackFired(p, true)
		return
	}
	c.wmu.Lock()
	if c.dead {
		c.wmu.Unlock()
		lw.cancel()
		return
	}
	p.lws = append(p.lws, lw)
	c.wmu.Unlock()
}

// doDelete serves "delete <key> [0] [noreply]" (the legacy time arg is
// accepted and ignored, as memcached does).
func (c *conn) doDelete(args [][]byte, tid int) {
	noreply := hasNoreplyTok(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) == 2 && string(args[1]) == "0" {
		args = args[:1]
	}
	if len(args) != 1 || !memtext.ValidKey(args[0]) {
		c.protoErr(clientError("bad command line format"))
		return
	}
	key := memtext.String(args[0])
	s := c.srv
	s.mu.RLock()
	r := s.cur
	var data []byte
	var tag kvstore.DurabilityTag
	ok, t, err := r.store.DeleteTag(tid, key)
	switch {
	case err != nil:
		data = serverError(err.Error())
	case !ok:
		data = respNotFound
	default:
		data, tag = respDeleted, t
	}
	c.finishWrite(r, tid, noreply, data, tag)
	s.mu.RUnlock()
}

// doTouch serves "touch <key> <exptime> [noreply]".
func (c *conn) doTouch(args [][]byte, tid int) {
	noreply := hasNoreplyTok(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 || !memtext.ValidKey(args[0]) {
		c.protoErr(clientError("bad command line format"))
		return
	}
	exptime, ok := memtext.ParseInt(args[1])
	if !ok {
		c.protoErr(clientError("bad exptime"))
		return
	}
	key, ttl := memtext.String(args[0]), ttlFor(exptime)
	s := c.srv
	s.mu.RLock()
	r := s.cur
	var data []byte
	var tag kvstore.DurabilityTag
	found, t, err := r.store.Touch(tid, key, ttl)
	switch {
	case err != nil:
		data = serverError(err.Error())
	case !found:
		data = respNotFound
	default:
		data, tag = respTouched, t
	}
	c.finishWrite(r, tid, noreply, data, tag)
	s.mu.RUnlock()
}

// doFlushAll serves "flush_all [delay] [noreply]"; delayed flushes are
// applied immediately. The ack may cover one epoch tag per shard, all
// of which must persist before an epoch-wait ack releases.
func (c *conn) doFlushAll(args [][]byte, tid int) {
	noreply := hasNoreplyTok(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) > 1 {
		c.protoErr(clientError("bad command line format"))
		return
	}
	if len(args) == 1 {
		if _, ok := memtext.ParseInt(args[0]); !ok {
			c.protoErr(clientError("bad flush delay"))
			return
		}
	}
	s := c.srv
	s.mu.RLock()
	r := s.cur
	_, tags, err := r.store.Flush(tid)
	if err != nil {
		if !noreply {
			defer c.enqueue(newPending(serverError(err.Error()), nil))
		}
		s.mu.RUnlock()
		return
	}
	data := respOK
	if len(tags) == 0 || r.pool == nil || noreply {
		c.finishWrite(r, tid, noreply, data, kvstore.DurabilityTag{})
		s.mu.RUnlock()
		return
	}
	switch c.mode {
	case AckSync:
		st := s.rec.Start()
		for _, tag := range tags {
			r.pool.Shard(tag.Shard).Sync(tid)
		}
		s.rec.ObserveSince(c.rtid, obs.HAckSyncNs, st)
		s.rec.Inc(c.rtid, obs.CNetAcksSync)
		s.mu.RUnlock()
		c.enqueue(newPending(data, nil))
	case AckEpochWait:
		p := &pending{data: data, start: s.rec.Start(), nwait: len(tags)}
		lots := make([]*shardLot, len(tags))
		for i, tag := range tags {
			lots[i] = r.lot.shard(tag.Shard)
		}
		s.mu.RUnlock()
		c.enqueue(p)
		for i, tag := range tags {
			c.registerWait(lots[i], tag.Epoch, p)
		}
	default:
		s.rec.Inc(c.rtid, obs.CNetAcksBuffered)
		s.mu.RUnlock()
		c.enqueue(newPending(data, nil))
	}
}

// statsBody renders the stats command: cache counters, the epoch clock
// and its persistence watermark, and the server's ack/pipeline metrics.
// Called under the read lock.
func (c *conn) statsBody(r *rt) []byte {
	var buf bytes.Buffer
	put := func(k string, v interface{}) { fmt.Fprintf(&buf, "STAT %s %v\r\n", k, v) }

	put("version", "montage/0.2")
	put("backend", c.srv.cfg.Backend)
	put("durability", c.mode.String())
	st := r.store.Stats()
	put("get_hits", st.Hits.Load())
	put("get_misses", st.Misses.Load())
	put("cmd_set", st.Sets.Load())
	put("delete_hits", st.Deletes.Load())
	put("touch_hits", st.Touches.Load())
	put("cas_hits", st.CASHits.Load())
	put("cas_badval", st.CASMisses.Load())
	put("evictions", st.Evictions.Load())
	put("expired_unfetched", st.Expirations.Load())
	put("curr_items", r.store.Len())
	if r.pool != nil {
		// Shard 0's clock keeps the historic flat keys meaningful (and,
		// with one shard, identical to the pre-pool output); multi-shard
		// pools additionally report every domain's own watermarks.
		e0 := r.pool.Shard(0).Epochs()
		put("epoch", e0.Epoch())
		put("persisted_epoch", e0.PersistedEpoch())
		if n := r.pool.NumShards(); n > 1 {
			put("shards", n)
			for i := 0; i < n; i++ {
				es := r.pool.Shard(i).Epochs()
				put(fmt.Sprintf("shard_%d_epoch", i), es.Epoch())
				put(fmt.Sprintf("shard_%d_persisted_epoch", i), es.PersistedEpoch())
			}
		}
	}
	if snap := c.srv.rec.Snapshot(); snap.Enabled {
		put("curr_connections", snap.Server.Conns-snap.Server.ConnsClosed)
		put("total_connections", snap.Server.Conns)
		put("bytes_read", snap.Server.BytesIn)
		put("bytes_written", snap.Server.BytesOut)
		put("proto_errors", snap.Server.ProtoErrors)
		put("acks_buffered", snap.Server.AcksBuffered)
		put("acks_sync", snap.Server.AcksSync)
		put("acks_epoch_wait", snap.Server.AcksEpoch)
		put("acks_aborted", snap.Server.AcksAborted)
		put("park_waiters", snap.Server.ParkWaiters)
		put("park_fanout_p99", snap.Latency.ParkFanout.P99)
		put("crash_injections", snap.Server.Crashes)
		put("recovery_sweep_ns", snap.Runtime.RecoverySweepNs)
		put("recovery_filter_ns", snap.Runtime.RecoveryFilterNs)
		put("recovery_invalidate_ns", snap.Runtime.RecoveryInvalNs)
		put("recovery_rebuild_ns", snap.Runtime.RecoveryRebuildNs)
		put("flushes", snap.Server.Flushes)
		put("flush_batch_p99", snap.Latency.FlushBatch.P99)
		put("parse_allocs", snap.Server.ParseAllocs)
		put("ack_sync_p99_ns", snap.Latency.AckSyncNs.P99)
		put("ack_epoch_wait_p99_ns", snap.Latency.AckEpochNs.P99)
		put("pipeline_depth_p99", snap.Latency.PipelineDepth.P99)
	}
	buf.Write(respEnd)
	return buf.Bytes()
}

// ttlFor maps a memcached exptime to a store TTL: 0 never expires,
// negative (or an absolute time in the past) is already expired — the
// kvstore's immediate-expiry sentinel, which survives frozen test
// clocks where a 1ns TTL would not — small values are relative seconds,
// large ones absolute unix times.
func ttlFor(exptime int64) time.Duration {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return kvstore.TTLImmediate
	case exptime <= maxRelativeExp:
		return time.Duration(exptime) * time.Second
	default:
		d := time.Until(time.Unix(exptime, 0))
		if d <= 0 {
			return kvstore.TTLImmediate
		}
		return d
	}
}

// encodeValue prefixes an item's data with its 32-bit client flags, so
// flags survive in the store (and across crashes) with the value.
// (The serving hot path encodes in place into conn.vbuf; this helper
// remains for tests and tools.)
func encodeValue(flags uint32, data []byte) []byte {
	buf := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(buf, flags)
	copy(buf[4:], data)
	return buf
}

func decodeValue(v []byte) (uint32, []byte) {
	if len(v) < 4 {
		return 0, v
	}
	return binary.LittleEndian.Uint32(v), v[4:]
}
