package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"montage/internal/memtext"
	"montage/internal/obs"
	"montage/internal/pool"
	"montage/internal/ycsb"
)

// LoadConfig configures RunLoad, the multi-connection YCSB load
// generator behind cmd/montage-load and the over-the-wire benchmark.
type LoadConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Conns is the number of concurrent connections (default 1).
	Conns int
	// Duration is the timed-phase length (default 5s).
	Duration time.Duration
	// Records is the YCSB key-space size (default 1000). Each connection
	// preloads its shard before the timed phase.
	Records uint64
	// ValueSize is the stored value length (default 100, YCSB's field
	// size ballpark).
	ValueSize int
	// ReadFrac is the read fraction; negative means YCSB-A (0.5).
	ReadFrac float64
	// Mode is the durability-ack mode each connection requests.
	Mode AckMode
	// Pipeline is the number of outstanding requests per connection
	// (default 1, classic request-response).
	Pipeline int
	// Seed seeds the workload generators (per-connection offsets are
	// derived from it).
	Seed int64
	// Shards, when > 1, tallies which pool shard each issued operation's
	// key routes to (pool.ShardForKey with this count), so the result
	// reports router balance under the real workload skew. It must match
	// the server's shard count for the tally to mean anything; it does
	// not change the generated load.
	Shards int
	// Recorder, when non-nil, receives the client-side counters
	// (obs.CLoad*) and the per-request latency histogram (obs.HLoadNs).
	// Sharing the server's recorder puts both halves of a run in one
	// stream; nil uses a private recorder, so the latency percentiles in
	// LoadResult always come from the same log2 histograms the runtime
	// reports everywhere else. Connections record at tid id modulo
	// loadRecTids, so a 10k-connection run does not need (or allocate) a
	// 10k-thread recorder.
	Recorder *obs.Recorder
}

// loadRecTids caps how many recorder thread slots a load run spreads
// over: per-thread cells beyond a few hundred buy no contention relief
// and cost ~20 KiB each (obs.New(10000) would be ~200 MiB).
const loadRecTids = 256

// recTids returns the recorder width a run actually needs.
func (c LoadConfig) recTids() int {
	if c.Conns < loadRecTids {
		return c.Conns
	}
	return loadRecTids
}

// connBufSize scales the per-connection bufio buffers down as the
// connection count grows: 64 KiB buffers are right for a handful of
// hot pipelines but would pin >1 GiB at 10k connections.
func (c LoadConfig) connBufSize() int {
	switch {
	case c.Conns >= 4096:
		return 4 << 10
	case c.Conns >= 1024:
		return 16 << 10
	default:
		return 64 << 10
	}
}

// dialParallel bounds concurrent dial+handshake attempts (the ramp): an
// unthrottled 10k-connection burst overruns the server's accept backlog
// and turns into timeouts and SYN retries instead of connections.
func (c LoadConfig) dialParallel() int {
	if c.Conns < 128 {
		return c.Conns
	}
	return 128
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Records == 0 {
		c.Records = 1000
	}
	if c.ValueSize == 0 {
		c.ValueSize = 100
	}
	if c.ReadFrac < 0 {
		c.ReadFrac = 0.5
	}
	if c.Pipeline == 0 {
		c.Pipeline = 1
	}
	return c
}

// LoadResult is RunLoad's aggregate: acked operations, their rate, and
// client-observed latency percentiles (interpolated within the
// runtime's log2 histogram buckets; Max is a bucket bound with at most
// 2x relative error).
type LoadResult struct {
	Ops       uint64 // operations acknowledged
	Reads     uint64
	Writes    uint64
	Errors    uint64 // SERVER_ERROR acks (e.g. crash-aborted writes)
	Elapsed   time.Duration
	OpsPerSec float64
	// Ramp is how long it took every connection to dial, handshake, and
	// finish preloading — the connection-establishment cost the timed
	// phase deliberately excludes (interesting at 10k connections).
	Ramp time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Max  time.Duration
	// Latency is the full client-observed latency summary for the timed
	// phase (the obs.HLoadNs interval histogram the percentiles above
	// are drawn from).
	Latency obs.HistStats
	// ShardOps[i] counts timed-phase operations whose key routes to pool
	// shard i (only populated when LoadConfig.Shards > 1).
	ShardOps []uint64
}

func (r LoadResult) String() string {
	s := fmt.Sprintf("%d ops in %v (%.0f ops/s, %d errors) latency p50=%v p95=%v p99=%v max=%v",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.OpsPerSec, r.Errors,
		r.P50, r.P95, r.P99, r.Max)
	if r.Ramp >= 100*time.Millisecond {
		s += fmt.Sprintf(" (conn ramp %v)", r.Ramp.Round(time.Millisecond))
	}
	if dist := r.ShardDistribution(); dist != "" {
		s += "\n" + dist
	}
	return s
}

// ShardDistribution renders the per-shard routing tally ("" when it was
// not collected): each shard's share of issued operations, plus the
// max/mean imbalance factor, so workload skew across the router is
// visible next to the latency numbers.
func (r LoadResult) ShardDistribution() string {
	if len(r.ShardOps) < 2 {
		return ""
	}
	var total, max uint64
	for _, n := range r.ShardOps {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shard distribution (%d shards):", len(r.ShardOps))
	for s, n := range r.ShardOps {
		fmt.Fprintf(&b, " %d:%.1f%%", s, 100*float64(n)/float64(total))
	}
	mean := float64(total) / float64(len(r.ShardOps))
	fmt.Fprintf(&b, " (imbalance max/mean %.2f)", float64(max)/mean)
	return b.String()
}

// connStats is one connection's tally. Latency is not tallied here: it
// goes straight into the recorder's per-thread HLoadNs histogram, the
// same log2 pipeline every other runtime latency uses.
type connStats struct {
	ops, reads, writes, errors uint64
	shardOps                   []uint64
}

// reqToken tracks one in-flight pipelined request.
type reqToken struct {
	kind  ycsb.OpKind
	start time.Time
}

// RunLoad preloads the key space, runs cfg.Conns connections of
// YCSB-style load for cfg.Duration, and aggregates acked throughput and
// client-observed latency.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.New(cfg.recTids())
	}
	stats := make([]connStats, cfg.Conns)
	errs := make([]error, cfg.Conns)
	start := make(chan struct{})
	ready := make(chan struct{}, cfg.Conns)
	// dialSem throttles the connection ramp; a slot is held across dial,
	// handshake, and preload so a 10k-connection start climbs smoothly
	// instead of stampeding the accept backlog.
	dialSem := make(chan struct{}, cfg.dialParallel())
	rampStart := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var once sync.Once
			signalReady := func() {
				once.Do(func() {
					<-dialSem // release the ramp slot
					ready <- struct{}{}
				})
			}
			// A worker that fails before the start barrier must still
			// signal, or the barrier would stall instead of reporting.
			defer signalReady()
			dialSem <- struct{}{}
			errs[id] = runLoadConn(cfg, id, rec, &stats[id], signalReady, start)
		}(i)
	}
	// Wait for every connection to finish preloading, then start the
	// timed phase together. The latency delta brackets exactly the timed
	// phase, so a shared recorder carrying earlier runs stays clean.
	preloadTimeout := 2 * time.Minute
	if cfg.Conns >= 1024 {
		preloadTimeout = 5 * time.Minute
	}
	for i := 0; i < cfg.Conns; i++ {
		select {
		case <-ready:
		case <-time.After(preloadTimeout):
			return nil, fmt.Errorf("loadgen: preload stalled")
		}
	}
	ramp := time.Since(rampStart)
	prev := rec.Snapshot()
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	lat := rec.Snapshot().Sub(prev).Latency.LoadNs

	res := &LoadResult{Elapsed: elapsed, Latency: lat, Ramp: ramp}
	for i := range stats {
		if errs[i] != nil {
			return nil, fmt.Errorf("loadgen conn %d: %w", i, errs[i])
		}
		res.Ops += stats[i].ops
		res.Reads += stats[i].reads
		res.Writes += stats[i].writes
		res.Errors += stats[i].errors
		if stats[i].shardOps != nil {
			if res.ShardOps == nil {
				res.ShardOps = make([]uint64, len(stats[i].shardOps))
			}
			for s, n := range stats[i].shardOps {
				res.ShardOps[s] += n
			}
		}
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	res.P50 = time.Duration(lat.Percentile(0.50))
	res.P95 = time.Duration(lat.Percentile(0.95))
	res.P99 = time.Duration(lat.Percentile(0.99))
	res.Max = time.Duration(lat.Max)
	return res, nil
}

// runLoadConn is one connection's worker: handshake, preload its key
// shard, then pump pipelined requests until the deadline while a reader
// goroutine matches responses to in-flight tokens.
func runLoadConn(cfg LoadConfig, id int, rec *obs.Recorder, st *connStats, signalReady func(), start <-chan struct{}) error {
	// Recording tid: spread over a capped slot range (see loadRecTids).
	tid := id % cfg.recTids()
	// Dial and handshake, retrying while the server's connection slots
	// are full (a previous load round's connections drain asynchronously
	// and hold their slots for a moment after the client side closes).
	var nc net.Conn
	var br *bufio.Reader
	var bw *bufio.Writer
	bufSize := cfg.connBufSize()
	for attempt := 0; ; attempt++ {
		var err error
		nc, err = net.Dial("tcp", cfg.Addr)
		if err != nil {
			return err
		}
		br = bufio.NewReaderSize(nc, bufSize)
		bw = bufio.NewWriterSize(nc, bufSize)
		fmt.Fprintf(bw, "durability %s\r\n", cfg.Mode)
		if err := bw.Flush(); err != nil {
			nc.Close()
			return err
		}
		line, err := readAck(br)
		if err == nil && line == "OK" {
			break
		}
		nc.Close()
		if attempt >= 100 || (err == nil && !strings.HasPrefix(line, "SERVER_ERROR too many connections")) {
			return fmt.Errorf("durability handshake: %q %v", line, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer nc.Close()
	value := strings.Repeat("x", cfg.ValueSize)
	lenStr := strconv.Itoa(len(value))

	// Preload this connection's shard of the key space (a version
	// roundtrip is the completion barrier). Only the first set asks for
	// a reply: a server that rejects the value (larger than any size
	// class) says so there, instead of the run measuring an empty store.
	noreply := ""
	for k := uint64(id); k < cfg.Records; k += uint64(cfg.Conns) {
		fmt.Fprintf(bw, "set %s 0 0 %d%s\r\n%s\r\n", ycsb.Key(k), len(value), noreply, value)
		noreply = " noreply"
	}
	fmt.Fprintf(bw, "version\r\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	if noreply != "" {
		if line, err := readAck(br); err != nil || line != "STORED" {
			return fmt.Errorf("preload set: server replied %q %v", line, err)
		}
	}
	if line, err := readAck(br); err != nil || !strings.HasPrefix(line, "VERSION") {
		return fmt.Errorf("preload barrier: %q %v", line, err)
	}

	// Build the workload before signaling ready: the zipfian generator's
	// zeta constant costs thousands of math.Pow calls, and at 1k+
	// connections doing that after the start barrier would burn a large
	// slice of the timed phase on generator setup instead of load.
	w := ycsb.NewWorkload(cfg.Records, cfg.ReadFrac, cfg.Seed+int64(id)*7919)

	signalReady()
	<-start

	if cfg.Shards > 1 {
		st.shardOps = make([]uint64, cfg.Shards)
	}
	inflight := make(chan reqToken, cfg.Pipeline)
	readerDone := make(chan error, 1)
	go func() { readerDone <- loadReader(br, inflight, rec, tid, st) }()

	// The send loop ends at the deadline, on a failed flush, or when the
	// reader returns early (an error reply): nothing drains inflight after
	// that, so a sender blocked on a full pipeline would wait forever.
	deadline := time.Now().Add(cfg.Duration)
	sinceFlush := 0
	var sendErr, readErr error
	readerExited := false
send:
	for time.Now().Before(deadline) {
		op := w.Next()
		if st.shardOps != nil {
			st.shardOps[pool.ShardForKey(op.Key, cfg.Shards)]++
		}
		// Hand-rolled request framing: fmt.Fprintf per request costs enough
		// that at 1k+ connections on few cores the generator starts
		// competing with the server it is measuring.
		if op.Kind == ycsb.Read {
			bw.WriteString("get ")
			bw.WriteString(op.Key)
			bw.WriteString("\r\n")
		} else {
			bw.WriteString("set ")
			bw.WriteString(op.Key)
			bw.WriteString(" 0 0 ")
			bw.WriteString(lenStr)
			bw.WriteString("\r\n")
			bw.WriteString(value)
			bw.WriteString("\r\n")
		}
		tok := reqToken{kind: op.Kind, start: time.Now()}
		select {
		case inflight <- tok:
			sinceFlush++
			if sinceFlush >= 16 {
				if sendErr = bw.Flush(); sendErr != nil {
					break send
				}
				sinceFlush = 0
			}
		default:
			// The pipeline is full: everything buffered must reach the
			// server before we block, or the reader starves.
			if sendErr = bw.Flush(); sendErr != nil {
				break send
			}
			sinceFlush = 0
			select {
			case inflight <- tok:
			case readErr = <-readerDone:
				readerExited = true
				break send
			}
		}
	}
	if sendErr == nil && !readerExited {
		sendErr = bw.Flush()
	}
	close(inflight)
	if !readerExited {
		readErr = <-readerDone
	}
	if sendErr != nil {
		return sendErr
	}
	return readErr
}

// loadReader drains responses for every in-flight token, recording
// latency and classifying acks. It reads borrowed line slices (valid
// until the next read) rather than allocating a string per response:
// the reader runs once per acked op on every connection, and its
// garbage is pure generator overhead charged against the server. A get's
// body is skipped by the byte count its VALUE header declares, never read
// as a line, so values larger than the reader's buffer stay framed.
func loadReader(br *bufio.Reader, inflight <-chan reqToken, rec *obs.Recorder, tid int, st *connStats) error {
	for tok := range inflight {
		if tok.kind == ycsb.Read {
			for {
				line, _, err := memtext.ReadLine(br)
				if err != nil {
					return err
				}
				if string(line) == "END" {
					break
				}
				if !bytes.HasPrefix(line, []byte("VALUE ")) {
					return fmt.Errorf("unexpected get response %q", line)
				}
				n, ok := memtext.ParseUint(line[bytes.LastIndexByte(line, ' ')+1:], 31)
				if !ok {
					return fmt.Errorf("bad get response header %q", line)
				}
				if _, err := br.Discard(int(n)); err != nil {
					return err
				}
				if crlf, err := br.Peek(2); err != nil || string(crlf) != "\r\n" {
					return fmt.Errorf("%d-byte get body not followed by CRLF (%q, %v)", n, crlf, err)
				}
				br.Discard(2)
			}
			st.reads++
			st.ops++
			rec.Inc(tid, obs.CLoadReads)
			rec.Inc(tid, obs.CLoadOps)
		} else {
			line, _, err := memtext.ReadLine(br)
			if err != nil {
				return err
			}
			switch {
			case string(line) == "STORED":
				st.writes++
				st.ops++
				rec.Inc(tid, obs.CLoadWrites)
				rec.Inc(tid, obs.CLoadOps)
			case bytes.HasPrefix(line, []byte("SERVER_ERROR")):
				st.errors++
				rec.Inc(tid, obs.CLoadErrors)
			default:
				return fmt.Errorf("unexpected set response %q", line)
			}
		}
		rec.Observe(tid, obs.HLoadNs, uint64(time.Since(tok.start)))
	}
	return nil
}

// readAck reads one handshake or preload reply line.
func readAck(br *bufio.Reader) (string, error) {
	line, _, err := memtext.ReadLine(br)
	return string(line), err
}
