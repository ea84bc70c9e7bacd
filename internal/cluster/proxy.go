package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"montage/internal/memtext"
	"montage/internal/obs"
)

// pipelineCap bounds the per-client response queue, like the server's:
// it is the request-queuing budget a client gets while a backend is
// slow or recovering — beyond it the client's pipeline blocks.
const pipelineCap = 256

// Config configures a Proxy.
type Config struct {
	// Addr is the TCP listen address (":0" picks a free port).
	Addr string
	// Nodes are the backend montage-serve addresses, in ring order. The
	// order matters only for node indices (stats, logs); key placement
	// depends on the address strings, not their order.
	Nodes []string
	// VNodes is the virtual-node count per backend (0: DefaultVNodes).
	VNodes int
	// MaxConns bounds concurrent client connections (default 64).
	MaxConns int
	// DefaultMode is the durability-ack mode ("buffered", "sync",
	// "epoch-wait") handshaken onto every backend connection at dial, and
	// the mode new client connections start in. Empty means "buffered".
	DefaultMode string
	// RetryWindow is how long a request bound to a dead node retries the
	// dial (with backoff) before giving up with a SERVER_ERROR — the
	// grace a crashed node has to recover in place (default 5s).
	RetryWindow time.Duration
	// BackendTimeout is the per-response read deadline on backend
	// connections (default 30s). It must comfortably exceed the longest
	// epoch-wait ack park a backend may impose.
	BackendTimeout time.Duration
	// Recorder, when non-nil, receives the proxy's counters.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.DefaultMode == "" {
		c.DefaultMode = "buffered"
	}
	if c.RetryWindow == 0 {
		c.RetryWindow = 5 * time.Second
	}
	if c.BackendTimeout == 0 {
		c.BackendTimeout = 30 * time.Second
	}
	return c
}

// Proxy is a consistent-hash router speaking the memcached text
// protocol on both sides: clients connect to it as if it were one big
// montage-serve, and it fans their requests out to the ring's nodes,
// preserving per-connection pipeline order across nodes.
//
// Durability acks pass through untouched: a STORED from a sync or
// epoch-wait backend connection already carries that node's durability
// promise, so relaying the bytes relays the guarantee. Broadcast
// commands (flush_all, sync) collect one ack per node and combine them
// — all OK or the first failure — which in epoch-wait mode makes a
// flush_all ack wait on every backend's persist watermark.
type Proxy struct {
	cfg  Config
	ring *Ring
	rec  *obs.Recorder

	ln     net.Listener
	tids   chan int
	closed atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
}

// NewProxy builds a proxy over cfg.Nodes. Call Listen then Serve.
func NewProxy(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: proxy needs at least one node")
	}
	if !validMode([]byte(cfg.DefaultMode)) {
		return nil, fmt.Errorf("cluster: unknown durability mode %q", cfg.DefaultMode)
	}
	p := &Proxy{
		cfg:   cfg,
		ring:  NewRing(cfg.Nodes, cfg.VNodes),
		rec:   cfg.Recorder,
		tids:  make(chan int, cfg.MaxConns),
		conns: make(map[net.Conn]struct{}),
	}
	for tid := 0; tid < cfg.MaxConns; tid++ {
		p.tids <- tid
	}
	return p, nil
}

// Ring returns the proxy's hash ring (read-only; used by load
// generators to predict placement).
func (p *Proxy) Ring() *Ring { return p.ring }

// Listen binds the TCP listener and returns its address.
func (p *Proxy) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", p.cfg.Addr)
	if err != nil {
		return nil, err
	}
	p.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound listener address (nil before Listen).
func (p *Proxy) Addr() net.Addr {
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Serve accepts client connections until the listener closes. It
// returns nil after a Shutdown-initiated close.
func (p *Proxy) Serve() error {
	if p.ln == nil {
		if _, err := p.Listen(); err != nil {
			return err
		}
	}
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			if p.closed.Load() {
				return nil
			}
			return err
		}
		var tid int
		select {
		case tid = <-p.tids:
		default:
			nc.Write(memtext.RespTooManyConns)
			nc.Close()
			continue
		}
		p.connMu.Lock()
		p.conns[nc] = struct{}{}
		p.connMu.Unlock()
		p.rec.Inc(tid, obs.CCluConns)
		p.connWG.Add(1)
		go func() {
			defer p.connWG.Done()
			p.serveConn(nc, tid)
			p.connMu.Lock()
			delete(p.conns, nc)
			p.connMu.Unlock()
			p.rec.Inc(tid, obs.CCluConnsClosed)
			p.tids <- tid
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (p *Proxy) ListenAndServe() error {
	if _, err := p.Listen(); err != nil {
		return err
	}
	return p.Serve()
}

// Shutdown stops accepting, waits up to drain for in-flight client
// connections, then force-closes stragglers. Backend connections are
// per-client and die with their clients.
func (p *Proxy) Shutdown(drain time.Duration) error {
	p.closed.Store(true)
	if p.ln != nil {
		p.ln.Close()
	}
	done := make(chan struct{})
	go func() { p.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain):
		p.connMu.Lock()
		for nc := range p.conns {
			nc.Close()
		}
		p.connMu.Unlock()
		<-done
	}
	return nil
}

// bconn is one client connection's private link to one backend node.
// Backend connections are per client connection, not pooled: each
// client's requests reach each node on a dedicated TCP stream, so the
// node's own response ordering IS the client's pipeline ordering and no
// demultiplexing is ever needed. The executor goroutine owns nc/br/bw
// and gen; the collector only touches readers captured in pendRefs and
// reports deaths through the atomic failed watermark.
type bconn struct {
	addr string

	// gen counts successful dials; a pendRef snapshots the gen its
	// request was written under. Executor-owned.
	gen uint64
	// failed is the highest gen known dead (conn closed or read/write
	// error). gen > failed means the current connection is presumed live.
	failed atomic.Uint64

	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	dirty bool // unflushed request bytes in bw
}

// live reports whether the current connection exists and has not been
// marked dead.
func (b *bconn) live() bool {
	return b.nc != nil && b.failed.Load() < b.gen
}

// markFailed records gen as dead, keeping the watermark monotonic.
func (b *bconn) markFailed(gen uint64) {
	for {
		cur := b.failed.Load()
		if gen <= cur || b.failed.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// pendRef names one backend response to collect: the reader is pinned
// at enqueue time, so even if the executor has since redialed the
// backend (bumping gen), the collector still drains the generation the
// request was actually written to.
type pendRef struct {
	b   *bconn
	gen uint64
	nc  net.Conn
	br  *bufio.Reader
}

// fail marks the ref's generation dead and severs it, waking any
// blocked reader.
func (r pendRef) fail() {
	r.nc.Close()
	r.b.markFailed(r.gen)
}

// dead reports whether this ref's generation is already known dead.
func (r pendRef) dead() bool { return r.b.failed.Load() >= r.gen }

// Pending response kinds.
const (
	pLocal = iota // data is ready
	pLine         // relay one line from refs[0]
	pGet          // gather VALUE blocks from every ref, emit in key order
	pBcast        // read one line per ref, combine (all OK or first failure)
)

// ppending is one queued response in client pipeline order.
type ppending struct {
	kind int
	data []byte // pLocal: the response; pBcast: the local fallback (nil: combine)
	refs []pendRef
	keys []string // pGet: original request key order
	// quiet suppresses output (noreply): backend responses are still
	// collected to keep the streams framed, but nothing reaches the
	// client.
	quiet bool
}

// wouldBlock reports whether assembling this slot will probably block on
// the network: it needs backend reads and no involved reader has bytes
// buffered. Only the collector calls it (it is the sole reader of
// backend connections, so peeking Buffered is race-free).
func (p ppending) wouldBlock() bool {
	if len(p.refs) == 0 {
		return false
	}
	for _, ref := range p.refs {
		if ref.br != nil && ref.br.Buffered() > 0 {
			return false
		}
	}
	return true
}

// pconn is one proxied client connection: an executor (parse, route,
// forward) feeding a collector goroutine that assembles responses in
// order. The split mirrors the server's executor/writer split and for
// the same reason: an epoch-wait backend parks acks, and the client's
// pipeline must keep moving while earlier acks trail.
type pconn struct {
	px   *Proxy
	nc   net.Conn
	tid  int
	br   *bufio.Reader
	mode string
	// tok is the executor's reused token scratch (loop/dispatch only);
	// ctok is the collector's own (gatherValues runs concurrently with
	// the executor, so the two must not share).
	tok  [][]byte
	ctok [][]byte
	// backends[i] is this connection's lazily dialed link to ring node i.
	backends []*bconn
	pend     chan ppending
	// sinceFlush counts forwarded requests since the last backend flush;
	// the executor caps it so a continuously streaming client cannot hold
	// forwarded requests hostage in the write buffers for a whole burst.
	sinceFlush int
}

func (p *Proxy) serveConn(nc net.Conn, tid int) {
	defer nc.Close()
	c := &pconn{
		px:   p,
		nc:   nc,
		tid:  tid,
		br:   memtext.NewReader(nc),
		mode: p.cfg.DefaultMode,
		pend: make(chan ppending, pipelineCap),
	}
	names := p.ring.Nodes()
	c.backends = make([]*bconn, len(names))
	for i, addr := range names {
		c.backends[i] = &bconn{addr: addr}
	}
	done := make(chan struct{})
	go c.collector(done)
	c.loop()
	c.flushBackends()
	close(c.pend)
	<-done
	for _, b := range c.backends {
		if b.nc != nil {
			b.nc.Close()
		}
	}
}

// loop is the executor: read a client command, route it, repeat.
func (c *pconn) loop() {
	for {
		if c.br.Buffered() == 0 {
			// About to block on the client: everything forwarded so far must
			// reach the backends, or their responses (which the collector may
			// already be waiting on) would never come.
			c.flushBackends()
		}
		line, n, err := memtext.ReadLine(c.br)
		c.px.rec.Add(c.tid, obs.CCluBytesIn, uint64(n))
		if err != nil {
			if err == memtext.ErrLineTooLong {
				c.protoErr(memtext.RespLineTooLong)
			}
			return
		}
		c.tok = memtext.AppendFields(c.tok[:0], line)
		fields := c.tok
		if len(fields) == 0 {
			continue
		}
		if err := c.dispatch(line, fields); err != nil {
			return
		}
		if c.sinceFlush >= flushBatch {
			c.flushBackends()
		}
	}
}

// enqueue hands a response slot to the collector. A full queue first
// flushes the backends — the collector may be parked on a response
// whose request is still sitting in a write buffer.
func (c *pconn) enqueue(p ppending) {
	c.px.rec.Observe(c.tid, obs.HPipelineDepth, uint64(len(c.pend)))
	select {
	case c.pend <- p:
	default:
		c.flushBackends()
		c.pend <- p
	}
}

func (c *pconn) protoErr(resp []byte) {
	c.px.rec.Inc(c.tid, obs.CCluProtoErrors)
	c.enqueue(ppending{kind: pLocal, data: resp})
}

// flushBackends pushes every dirty backend write buffer to the wire.
func (c *pconn) flushBackends() {
	for _, b := range c.backends {
		if !b.dirty || !b.live() {
			b.dirty = false
			continue
		}
		if err := b.bw.Flush(); err != nil {
			b.nc.Close()
			b.markFailed(b.gen)
		}
		b.dirty = false
	}
	c.sinceFlush = 0
}

// backend returns a live connection to ring node ni, dialing (with
// backoff, within the retry window) if the node is new or died. This
// dial-retry is the proxy's "bounded queuing while a node recovers":
// the client's pipeline stalls here, bounded by RetryWindow, instead of
// failing instantly while the node's in-place recovery finishes.
func (c *pconn) backend(ni int) (*bconn, error) {
	b := c.backends[ni]
	if b.live() {
		return b, nil
	}
	if b.nc != nil {
		b.nc.Close()
		b.nc = nil
	}
	deadline := time.Now().Add(c.px.cfg.RetryWindow)
	backoff := 5 * time.Millisecond
	for {
		nc, err := c.dialProbe(b.addr)
		if err == nil {
			b.gen++
			b.nc = nc
			b.br = memtext.NewReader(nc)
			b.bw = bufio.NewWriterSize(nc, 16<<10)
			b.dirty = false
			c.px.rec.Inc(c.tid, obs.CCluRedials)
			return b, nil
		}
		if time.Now().After(deadline) {
			c.px.rec.Inc(c.tid, obs.CCluNodeErrors)
			return nil, errNodeDown
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// dialProbe dials a backend and handshakes the connection's durability
// mode, which doubles as a liveness probe: a node that accepts but is
// out of connection slots (or mid-recovery) answers with a SERVER_ERROR
// here, not deep inside the pipeline.
func (c *pconn) dialProbe(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Write([]byte("durability " + c.mode + "\r\n")); err != nil {
		nc.Close()
		return nil, err
	}
	br := memtext.NewReader(nc)
	line, _, err := memtext.ReadLine(br)
	if err != nil || !bytes.Equal(line, []byte("OK")) {
		nc.Close()
		if err == nil {
			err = fmt.Errorf("cluster: %s refused handshake: %s", addr, line)
		}
		return nil, err
	}
	// The probe's reader may have buffered nothing beyond the handshake
	// line (the backend sends one line and waits), so dropping it loses
	// no bytes.
	nc.SetDeadline(time.Time{})
	return nc, nil
}

// send writes a request to a backend's buffer, marking it dirty; a
// write error fails the connection (the collector will turn the lost
// responses into node errors).
func (c *pconn) send(b *bconn, parts ...[]byte) pendRef {
	ref := pendRef{b: b, gen: b.gen, nc: b.nc, br: b.br}
	for _, part := range parts {
		if _, err := b.bw.Write(part); err != nil {
			b.nc.Close()
			b.markFailed(b.gen)
			return ref
		}
	}
	b.dirty = true
	c.sinceFlush++
	c.px.rec.Inc(c.tid, obs.CCluForwards)
	return ref
}

// flushBatch bounds how many forwarded requests may sit in backend write
// buffers while the client keeps streaming. Without a bound, a pipelined
// client that never goes quiet turns the connection into lockstep
// full-window rounds: nothing reaches the backends until the client
// stalls on its own window, so every round pays the slowest node's epoch
// park back to back. Sixteen mirrors the server-side writer's batching.
const flushBatch = 16

var crlf = []byte("\r\n")

// dispatch routes one parsed command. The fields are borrowed from the
// executor's token scratch and valid only for this call. A returned
// error closes the connection.
func (c *pconn) dispatch(line []byte, fields [][]byte) error {
	rec := c.px.rec
	rec.Inc(c.tid, obs.CCluOps)
	verb, args := fields[0], fields[1:]
	switch string(verb) {
	case "get", "gets":
		return c.doGet(line, verb, args)

	case "set", "add", "replace", "cas":
		return c.doStore(line, string(verb) == "cas", args)

	case "delete", "touch":
		// Single-key commands: route on the key, relay the line verbatim.
		if len(args) == 0 || !memtext.ValidKey(args[0]) {
			c.protoErr(memtext.RespBadFormat)
			return nil
		}
		noreply := memtext.HasNoreply(args)
		ni := c.px.ring.Node(memtext.String(args[0]))
		b, err := c.backend(ni)
		if err != nil {
			if !noreply {
				c.enqueue(ppending{kind: pLocal, data: nodeError(c.backends[ni].addr)})
			}
			return nil
		}
		ref := c.send(b, line, crlf)
		if !noreply {
			c.enqueue(ppending{kind: pLine, refs: []pendRef{ref}})
		}
		return nil

	case "flush_all", "sync":
		return c.doBroadcast(line, verb, args)

	case "durability":
		return c.doDurability(args)

	case "stats":
		c.enqueue(ppending{kind: pLocal, data: c.statsBody()})
		return nil

	case "version":
		c.enqueue(ppending{kind: pLocal, data: []byte("VERSION montage/0.2-proxy\r\n")})
		return nil

	case "verbosity":
		if !memtext.HasNoreply(args) {
			c.enqueue(ppending{kind: pLocal, data: memtext.RespOK})
		}
		return nil

	case "quit":
		return errQuit

	default:
		// Includes "crash": killing a node is not meaningful through the
		// router (which node?); chaos schedules kill nodes directly.
		c.protoErr(memtext.RespError)
		return nil
	}
}

// doGet serves get/gets over any number of keys, possibly spanning
// nodes. Reply order must match request key order even when the keys'
// nodes answer at different speeds, so multi-node gets gather.
func (c *pconn) doGet(line []byte, verb []byte, rawKeys [][]byte) error {
	if len(rawKeys) == 0 {
		c.protoErr(memtext.RespBadFormat)
		return nil
	}
	for _, k := range rawKeys {
		if !memtext.ValidKey(k) {
			c.protoErr(memtext.RespBadKey)
			return nil
		}
	}
	// The keys outlive this call (the collector matches VALUE blocks to
	// them after the token scratch is reused), so materialize them here —
	// the proxy's one retention point on the get path.
	keys := make([]string, len(rawKeys))
	for i, k := range rawKeys {
		keys[i] = string(k)
	}
	// Group keys by node, preserving first-appearance node order.
	nodeOrder := make([]int, 0, 2)
	nodeKeys := make(map[int][]string, 2)
	for _, k := range keys {
		ni := c.px.ring.Node(k)
		if _, ok := nodeKeys[ni]; !ok {
			nodeOrder = append(nodeOrder, ni)
		}
		nodeKeys[ni] = append(nodeKeys[ni], k)
	}
	// Resolve every node before writing to any: a get must either reach
	// all its nodes or fail whole, never leave a backend with a request
	// whose response nothing will collect.
	bs := make([]*bconn, len(nodeOrder))
	for i, ni := range nodeOrder {
		b, err := c.backend(ni)
		if err != nil {
			c.enqueue(ppending{kind: pLocal, data: nodeError(c.backends[ni].addr)})
			return nil
		}
		bs[i] = b
	}
	refs := make([]pendRef, len(nodeOrder))
	if len(nodeOrder) == 1 {
		refs[0] = c.send(bs[0], line, crlf)
	} else {
		var req bytes.Buffer
		for i, ni := range nodeOrder {
			req.Reset()
			req.Write(verb)
			for _, k := range nodeKeys[ni] {
				req.WriteByte(' ')
				req.WriteString(k)
			}
			req.Write(crlf)
			refs[i] = c.send(bs[i], req.Bytes())
		}
	}
	c.enqueue(ppending{kind: pGet, refs: refs, keys: keys})
	return nil
}

// doStore serves set/add/replace/cas: parse the header exactly as the
// backend will — a header the backend would refuse must be refused
// here, before its body is read, or the backend answers the header and
// then the body as a command, two responses to one request — then relay
// the original header and body bytes to the owning node. A returned
// error closes the connection (framing loss).
func (c *pconn) doStore(line []byte, wantCAS bool, args [][]byte) error {
	var h memtext.Storage
	rawKey, perr := memtext.ParseStorage(args, wantCAS, &h)
	if perr != nil {
		// Body length unknown: stay on the line boundary, as the server
		// does, and let any body bytes fail as commands.
		c.protoErr(memtext.ClientError(perr.Error()))
		return nil
	}
	// Routing happens after the body read clobbers the buffer the key
	// aliases: materialize it.
	key := string(rawKey)
	if h.Bytes+2 > memtext.MaxBodyLen {
		// Too large to buffer for forwarding, but the declared length still
		// frames the stream: swallow the body and keep the connection, as
		// the backend (and real memcached) would.
		m, derr := c.br.Discard(h.Bytes + 2)
		c.px.rec.Add(c.tid, obs.CCluBytesIn, uint64(m))
		if derr != nil {
			return derr
		}
		c.px.rec.Inc(c.tid, obs.CCluProtoErrors)
		if !h.Noreply {
			c.enqueue(ppending{kind: pLocal, data: memtext.RespTooLarge})
		}
		return nil
	}
	// line aliases the client reader's internal buffer, which the body
	// read below is about to clobber; the header must be copied first.
	hdr := append([]byte(nil), line...)
	// Read the body (with its CRLF) before routing: the client has
	// already committed these bytes, and the stream must stay framed even
	// if the owning node is dead.
	body := make([]byte, h.Bytes+2)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return err
	}
	c.px.rec.Add(c.tid, obs.CCluBytesIn, uint64(len(body)))
	if body[h.Bytes] != '\r' || body[h.Bytes+1] != '\n' {
		c.protoErr(memtext.RespBadChunk)
		return nil
	}
	ni := c.px.ring.Node(key)
	b, err := c.backend(ni)
	if err != nil {
		if !h.Noreply {
			c.enqueue(ppending{kind: pLocal, data: nodeError(c.backends[ni].addr)})
		}
		return nil
	}
	ref := c.send(b, hdr, crlf, body)
	if !h.Noreply {
		c.enqueue(ppending{kind: pLine, refs: []pendRef{ref}})
	}
	return nil
}

// doBroadcast fans flush_all/sync out to every node and combines one
// ack per node. All nodes must be reachable up front: a partial
// broadcast cannot honestly be acked, so one dead node fails the whole
// command (again as a non-binding SERVER_ERROR).
func (c *pconn) doBroadcast(line []byte, verb []byte, args [][]byte) error {
	noreply := string(verb) == "flush_all" && memtext.HasNoreply(args)
	c.px.rec.Inc(c.tid, obs.CCluBcasts)
	bs := make([]*bconn, len(c.backends))
	for ni := range c.backends {
		b, err := c.backend(ni)
		if err != nil {
			if !noreply {
				c.enqueue(ppending{kind: pLocal, data: nodeError(c.backends[ni].addr)})
			}
			return nil
		}
		bs[ni] = b
	}
	if noreply {
		// The backends honor noreply and send nothing back, so there are no
		// responses to collect; enqueuing refs here would make the collector
		// consume the NEXT command's responses and desynchronize the stream.
		// Forward verbatim (noreply included) and enqueue nothing, exactly
		// like the single-key noreply paths.
		for _, b := range bs {
			c.send(b, line, crlf)
		}
		return nil
	}
	refs := make([]pendRef, len(bs))
	for ni, b := range bs {
		refs[ni] = c.send(b, line, crlf)
	}
	c.enqueue(ppending{kind: pBcast, refs: refs})
	return nil
}

// doDurability handles the mode extension: the mode is per client
// connection, applied to every backend connection this client already
// holds (newly dialed ones pick it up in the handshake).
func (c *pconn) doDurability(args [][]byte) error {
	if len(args) == 0 {
		c.enqueue(ppending{kind: pLocal, data: []byte("DURABILITY " + c.mode + "\r\n")})
		return nil
	}
	noreply := memtext.HasNoreply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 1 {
		c.protoErr(memtext.RespBadFormat)
		return nil
	}
	if !validMode(args[0]) {
		c.protoErr(memtext.ClientError(fmt.Sprintf("unknown durability mode %q (want buffered, sync, or epoch-wait)", args[0])))
		return nil
	}
	c.mode = string(args[0]) // retained across commands: materialize
	var refs []pendRef
	req := []byte("durability " + c.mode + "\r\n")
	for _, b := range c.backends {
		if !b.live() {
			continue
		}
		refs = append(refs, c.send(b, req))
	}
	// The local OK stands regardless of backend fates: a backend that
	// died here gets the mode re-handshaken on redial, so the promise
	// "your connection is now in mode X" holds either way.
	p := ppending{kind: pBcast, refs: refs, data: memtext.RespOK, quiet: noreply}
	c.enqueue(p)
	return nil
}

// statsBody renders the proxy's own stats: ring shape, this
// connection's per-node link state, and the proxy counters. Backend
// stats stay on the backends (scrape their /metrics or stats commands
// directly).
func (c *pconn) statsBody() []byte {
	var buf bytes.Buffer
	put := func(k string, v interface{}) { fmt.Fprintf(&buf, "STAT %s %v\r\n", k, v) }
	put("version", "montage/0.2-proxy")
	put("durability", c.mode)
	put("proxy_nodes", len(c.backends))
	put("proxy_vnodes", c.px.ring.VNodes())
	for i, b := range c.backends {
		put(fmt.Sprintf("node_%d_addr", i), b.addr)
		up := 0
		if b.live() {
			up = 1
		}
		put(fmt.Sprintf("node_%d_link", i), up)
	}
	if snap := c.px.rec.Snapshot(); snap.Enabled {
		put("curr_connections", snap.Cluster.Conns-snap.Cluster.ConnsClosed)
		put("total_connections", snap.Cluster.Conns)
		put("proxy_ops", snap.Cluster.Ops)
		put("proxy_forwards", snap.Cluster.Forwards)
		put("proxy_broadcasts", snap.Cluster.Bcasts)
		put("proxy_redials", snap.Cluster.Redials)
		put("proxy_node_errors", snap.Cluster.NodeErrors)
		put("proto_errors", snap.Cluster.ProtoErrors)
		put("bytes_read", snap.Cluster.BytesIn)
		put("bytes_written", snap.Cluster.BytesOut)
	}
	buf.Write(memtext.RespEnd)
	return buf.Bytes()
}

// collector drains the pending queue in client pipeline order,
// assembling each response from its backend reader(s) and writing it
// out. Like the server's writer it batches flushes on momentary queue
// emptiness — plus one cluster-specific flush point: before a backend
// read that would block. Epoch-wait acks park on their node's epoch
// boundary, and with several nodes the boundaries are staggered, so the
// queue head is almost always parked on SOME node and the queue never
// empties; without this flush the acks already assembled would sit in
// the write buffer behind it, the client's pipeline window would starve,
// and the whole connection would degenerate into full-window lockstep
// rounds paced by the slowest node's clock.
func (c *pconn) collector(done chan struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(c.nc, 16<<10)
	dead := false
	for p := range c.pend {
		if !dead && bw.Buffered() > 0 && p.wouldBlock() {
			if bw.Flush() != nil {
				dead = true
			}
		}
		data := c.assemble(p)
		if dead || p.quiet || len(data) == 0 {
			continue
		}
		if _, err := bw.Write(data); err != nil {
			dead = true
			continue
		}
		c.px.rec.Add(c.tid, obs.CCluBytesOut, uint64(len(data)))
		if len(c.pend) == 0 && bw.Flush() != nil {
			dead = true
		}
	}
	if !dead {
		bw.Flush()
	}
}

// assemble turns one pending slot into response bytes, reading from
// backends as needed. Backend failures become single SERVER_ERROR
// lines, so one response slot always yields one well-framed response.
func (c *pconn) assemble(p ppending) []byte {
	switch p.kind {
	case pLocal:
		return p.data

	case pLine:
		line, err := c.readRefLine(p.refs[0])
		if err != nil {
			c.px.rec.Inc(c.tid, obs.CCluNodeErrors)
			return nodeError(p.refs[0].b.addr)
		}
		return append(line, crlf...)

	case pGet:
		return c.assembleGet(p)

	case pBcast:
		var firstBad []byte
		failed := ""
		for _, ref := range p.refs {
			line, err := c.readRefLine(ref)
			if err != nil {
				if failed == "" {
					failed = ref.b.addr
				}
				continue
			}
			if firstBad == nil && !bytes.Equal(line, []byte("OK")) {
				firstBad = append(line, crlf...)
			}
		}
		if p.data != nil {
			// Locally-acked broadcast (durability): backend responses were
			// consumed above purely to keep the streams framed.
			return p.data
		}
		if failed != "" {
			c.px.rec.Inc(c.tid, obs.CCluNodeErrors)
			return nodeError(failed)
		}
		if firstBad != nil {
			return firstBad
		}
		return memtext.RespOK

	default:
		return nil
	}
}

// readRefLine reads one response line from a pendRef under the backend
// deadline.
func (c *pconn) readRefLine(ref pendRef) ([]byte, error) {
	if ref.dead() {
		return nil, errNodeDown
	}
	ref.nc.SetReadDeadline(time.Now().Add(c.px.cfg.BackendTimeout))
	line, _, err := memtext.ReadLine(ref.br)
	if err != nil {
		ref.fail()
		return nil, err
	}
	return append([]byte(nil), line...), nil
}

// assembleGet gathers each backend's VALUE blocks and emits them in the
// request's key order, so a pipelined multi-node get looks exactly like
// a single-node one. Any backend failure fails the whole get with one
// SERVER_ERROR line (the client cannot tell a miss from a dead node's
// hit, so pretending partial success would be a lie).
func (c *pconn) assembleGet(p ppending) []byte {
	blocks := make(map[string][]byte, len(p.keys))
	// Every ref must be drained even after a failure: the healthy nodes'
	// VALUE/END responses are already in flight, and leaving them unread
	// would misframe every later response collected from those links.
	failed := ""
	for _, ref := range p.refs {
		if err := c.gatherValues(ref, blocks); err != nil && failed == "" {
			failed = ref.b.addr
		}
	}
	if failed != "" {
		c.px.rec.Inc(c.tid, obs.CCluNodeErrors)
		return nodeError(failed)
	}
	var buf bytes.Buffer
	seen := make(map[string]bool, len(p.keys))
	for _, k := range p.keys {
		// A repeated key in one get yields one VALUE block from the
		// backend; emit it once, as the backend itself would.
		if seen[k] {
			continue
		}
		seen[k] = true
		if blk, ok := blocks[k]; ok {
			buf.Write(blk)
		}
	}
	buf.Write(memtext.RespEnd)
	return buf.Bytes()
}

// gatherValues reads one backend's get response (VALUE blocks until
// END) into blocks, keyed by item key, each block carrying its complete
// wire form.
func (c *pconn) gatherValues(ref pendRef, blocks map[string][]byte) error {
	if ref.dead() {
		return errNodeDown
	}
	for {
		ref.nc.SetReadDeadline(time.Now().Add(c.px.cfg.BackendTimeout))
		line, _, err := memtext.ReadLine(ref.br)
		if err != nil {
			ref.fail()
			return err
		}
		if bytes.Equal(line, []byte("END")) {
			return nil
		}
		c.ctok = memtext.AppendFields(c.ctok[:0], line)
		fields := c.ctok
		if len(fields) < 4 || string(fields[0]) != "VALUE" {
			// A SERVER_ERROR (or anything else) in a get stream leaves the
			// remaining response length unknown; sever the link to stay sound.
			ref.fail()
			return fmt.Errorf("cluster: unexpected get response %q", line)
		}
		size, ok := memtext.ParseUint(fields[3], 31)
		if !ok || int(size)+2 > memtext.MaxBodyLen {
			ref.fail()
			return fmt.Errorf("cluster: bad VALUE size %q", fields[3])
		}
		blk := make([]byte, 0, len(line)+2+int(size)+2)
		blk = append(blk, line...)
		blk = append(blk, crlf...)
		body := make([]byte, int(size)+2)
		ref.nc.SetReadDeadline(time.Now().Add(c.px.cfg.BackendTimeout))
		if _, err := io.ReadFull(ref.br, body); err != nil {
			ref.fail()
			return err
		}
		blk = append(blk, body...)
		blocks[string(fields[1])] = blk
	}
}
