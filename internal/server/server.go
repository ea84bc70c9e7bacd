// Package server puts a networked front end over the in-process
// kvstore: a TCP server speaking the memcached text protocol
// (get/gets/set/add/replace/cas/delete/touch/flush_all/stats/version/
// quit, with noreply and request pipelining) whose items live in a
// persistent Montage pool.
//
// The headline feature is epoch-aware durability acknowledgement.
// Montage makes every completed operation durable within two epoch
// advances, so a server has three defensible moments to ack a write:
//
//   - buffered: ack as soon as the operation linearizes. The write is
//     durable within two epochs (the paper's buffered durable
//     linearizability); a crash inside that window may lose it.
//   - sync: force a full Sync (two epoch advances) before the ack, like
//     a write(2)+fsync(2) pair. Strongest guarantee, serializes every
//     connection through the epoch clock.
//   - epoch-wait: park the ack until the write's epoch persists
//     naturally. The connection's pipeline keeps executing; only the
//     acks trail behind by at most two epoch lengths. Durability is
//     batched across all connections by the shared epoch clock, so
//     throughput scales where sync cannot.
//
// Each connection picks its mode with the "durability <mode>" extension
// command; the server sets the default. A "crash [partial]" extension
// (off by default) injects a simulated power failure and recovers in
// place while the listener stays up, so tests can watch acked writes
// survive.
package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"montage/internal/baselines"
	"montage/internal/core"
	"montage/internal/epoch"
	"montage/internal/kvstore"
	"montage/internal/memtext"
	"montage/internal/obs"
	"montage/internal/pmem"
	"montage/internal/pool"
)

// AckMode is a connection's durability-acknowledgement mode.
type AckMode int

const (
	// AckBuffered acks when the operation linearizes (durable within two
	// epochs).
	AckBuffered AckMode = iota
	// AckSync forces a Sync before each write's ack.
	AckSync
	// AckEpochWait parks each write's ack until its epoch has persisted.
	AckEpochWait
)

// ParseAckMode parses a mode name as used on the command line and in
// the "durability" protocol extension.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "buffered":
		return AckBuffered, nil
	case "sync":
		return AckSync, nil
	case "epoch-wait", "epoch_wait", "epochwait":
		return AckEpochWait, nil
	}
	return 0, fmt.Errorf("unknown durability mode %q (want buffered, sync, or epoch-wait)", s)
}

func (m AckMode) String() string {
	switch m {
	case AckSync:
		return "sync"
	case AckEpochWait:
		return "epoch-wait"
	default:
		return "buffered"
	}
}

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:11211"; ":0" picks
	// a free port).
	Addr string
	// PoolPath, when set, is a device image to reopen (if it exists) and
	// to save on Shutdown.
	PoolPath string
	// Backend selects the item store: "montage" (persistent, default),
	// "dram" or "nvm" (transient references; every mode degrades to
	// buffered with no durability).
	Backend string
	// ArenaSize is the persistent arena size (default 64 MiB).
	ArenaSize int
	// Buckets is the index bucket count (default 4096).
	Buckets int
	// Capacity bounds the item count with LRU eviction (0 = unbounded).
	Capacity int
	// Shards is the number of independent Montage epoch domains the
	// store is partitioned into (default 1). Keys route to shards by a
	// stable hash; each shard has its own device, heap, and epoch
	// daemon, so epoch advances and durability waits on one shard never
	// contend with another's. ArenaSize is per shard. When reopening a
	// pool image, the image's own shard count wins.
	Shards int
	// MaxConns bounds concurrent connections (default 64). Connections
	// hold no Montage thread id: whoever pumps one uses its own or
	// borrows one from a fixed pool (sized by cores, not connections)
	// for the pass, so MaxConns can be 10k+ without growing the
	// thread-id space.
	MaxConns int
	// EpochLength is the background epoch advance period (default 10ms,
	// the paper's choice). Shorter epochs shrink the epoch-wait ack
	// latency; longer ones batch more work per advance.
	EpochLength time.Duration
	// PersistDelay, when nonzero, emulates the real device's persist-
	// fence latency: every epoch advance sleeps this long in wall-clock
	// time after draining write-backs. The simulated device is free on
	// the wall clock, which flatters sync-mode acks; enabling a delay
	// makes the three ack modes pay their real relative costs.
	PersistDelay time.Duration
	// DefaultMode is the durability-ack mode new connections start in.
	DefaultMode AckMode
	// MaxItemSize bounds one item's value (default 1 MiB).
	MaxItemSize int
	// AllowCrash enables the "crash" protocol extension.
	AllowCrash bool
	// Recorder, when non-nil, receives the server's counters; when nil
	// the underlying system's private recorder is used.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Backend == "" {
		c.Backend = "montage"
	}
	if c.ArenaSize == 0 {
		c.ArenaSize = 64 << 20
	}
	if c.Buckets == 0 {
		c.Buckets = 4096
	}
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.EpochLength == 0 {
		c.EpochLength = 10 * time.Millisecond
	}
	if c.MaxItemSize == 0 {
		c.MaxItemSize = 1 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// serverExecThreads is the executor-tid pool size: pumps take a tid
// for life (the poller, the surplus workers) or for one pass (a stream
// source's reader), so the Montage thread-id space (and its per-thread
// structures) scales with cores, not connections.
func serverExecThreads() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// maxThreads is the Montage thread-id space: the executor-tid pool,
// one admin tid (recovery, stats, shutdown sync), one spare.
func (c Config) maxThreads() int { return serverExecThreads() + 2 }

func (c Config) coreConfig() core.Config {
	return core.Config{
		ArenaSize:  c.ArenaSize,
		MaxThreads: c.maxThreads(),
		Epoch: epoch.Config{
			EpochLength:  c.EpochLength,
			PersistDelay: c.PersistDelay,
		},
		Recorder: c.Recorder,
	}
}

// rt is the crash-replaceable half of the server: the Montage pool, the
// store over it, and the abort channel wired to every response parked
// on this incarnation's epoch clocks. Crash swaps the whole bundle
// under the server's write lock.
type rt struct {
	pool    *pool.Pool // nil for transient backends
	store   *kvstore.Store
	crashCh chan struct{} // closed by Crash to abort parked acks
	// lot is the shared epoch-wait parking lot: one watermark subscriber
	// per shard fanning out to parked responses (nil for transient
	// backends, which never produce durability tags).
	lot *parkingLot
}

// newMontageRT bundles a pool incarnation with its store, crash-abort
// channel, and parking lot.
func newMontageRT(p *pool.Pool, store *kvstore.Store, rec *obs.Recorder, tid int) *rt {
	crashCh := make(chan struct{})
	return &rt{
		pool:    p,
		store:   store,
		crashCh: crashCh,
		lot:     newParkingLot(p, crashCh, rec, tid),
	}
}

// Server is the TCP front end.
type Server struct {
	cfg Config
	rec *obs.Recorder

	// mu guards cur: executors hold the read lock across one command's
	// execution, Crash holds the write lock across the swap. Parked
	// epoch-wait acks hold no lock; crashCh releases them.
	mu  sync.RWMutex
	cur *rt

	ln net.Listener
	// adminTid sits just above the executor-tid pool; execThreads is the
	// pool size and tids hands out exclusive use of each executor tid.
	adminTid    int
	execThreads int
	tids        chan int
	closed      atomic.Bool

	// connSlots enforces MaxConns; connSeq spreads connections'
	// recording tids over the executor range.
	connSlots atomic.Int32
	connSeq   atomic.Uint64

	connMu sync.Mutex
	conns  map[*conn]struct{}
	connWG sync.WaitGroup

	// The surplus workers (pump.go), started with the first connection,
	// and their queue; stop ends them and the epoll poller.
	pumpOnce sync.Once
	surplus  chan *conn
	stop     chan struct{}
	stopOnce sync.Once

	reactorState
}

// New builds a server and its backing store (reopening cfg.PoolPath if
// the image exists). Call Listen then Serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	exec := serverExecThreads()
	s := &Server{
		cfg:         cfg,
		adminTid:    exec,
		execThreads: exec,
		tids:        make(chan int, exec),
		conns:       make(map[*conn]struct{}),
		surplus:     make(chan *conn, cfg.MaxConns),
		stop:        make(chan struct{}),
	}
	// The epoll poller and the surplus workers take theirs for life;
	// every other pump borrows one for a pass.
	for tid := exec - 1; tid >= 0; tid-- {
		s.tids <- tid
	}

	switch cfg.Backend {
	case "montage":
		r, err := s.openMontage()
		if err != nil {
			return nil, err
		}
		s.cur = r
		s.rec = r.pool.Shard(0).Recorder()
	case "dram", "nvm":
		env, err := baselines.NewEnv(cfg.ArenaSize, cfg.maxThreads(), nil)
		if err != nil {
			return nil, err
		}
		medium := baselines.DRAM
		if cfg.Backend == "nvm" {
			medium = baselines.NVM
		}
		m := baselines.NewTransientMap(env, medium, cfg.Buckets)
		s.cur = &rt{
			store:   kvstore.New(kvstore.NewTransientBackend(m), cfg.Capacity),
			crashCh: make(chan struct{}),
		}
		s.rec = cfg.Recorder
	default:
		return nil, fmt.Errorf("server: unknown backend %q", cfg.Backend)
	}
	return s, nil
}

// poolConfig assembles the pool configuration, ensuring a recorder is
// shared by every shard: the server's counters must live in one place
// (ack metrics from conn.go, pool stats from every shard) and must
// survive crash-injection swaps.
func (s *Server) poolConfig() pool.Config {
	ccfg := s.cfg.coreConfig()
	if ccfg.Recorder == nil {
		ccfg.Recorder = obs.New(s.cfg.maxThreads())
	}
	return pool.Config{Shards: s.cfg.Shards, Core: ccfg}
}

// openMontage builds the persistent runtime, from the pool image when
// one exists (the image's shard count wins over cfg.Shards: the stored
// keys were routed under it).
func (s *Server) openMontage() (*rt, error) {
	pcfg := s.poolConfig()
	if s.cfg.PoolPath != "" {
		p, chunks, loaded, err := pool.Open(s.cfg.PoolPath, pcfg, pcfg.Core.MaxThreads)
		if err != nil {
			return nil, fmt.Errorf("server: recover pool %s: %w", s.cfg.PoolPath, err)
		}
		if loaded {
			store, err := kvstore.RecoverShardedStore(p, s.cfg.Buckets, chunks, s.cfg.Capacity)
			if err != nil {
				return nil, fmt.Errorf("server: rebuild store: %w", err)
			}
			return newMontageRT(p, store, p.Shard(0).Recorder(), s.adminTid), nil
		}
	}
	p, err := pool.New(pcfg)
	if err != nil {
		return nil, err
	}
	store := kvstore.New(kvstore.NewShardedBackend(p, s.cfg.Buckets), s.cfg.Capacity)
	return newMontageRT(p, store, p.Shard(0).Recorder(), s.adminTid), nil
}

// Listen binds the TCP listener and returns its address (useful with
// ":0").
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until the listener closes. It returns nil
// after a Shutdown-initiated close.
func (s *Server) Serve() error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				// Shutdown closed the listener deliberately.
				return nil
			}
			return err
		}
		if s.connSlots.Add(1) > int32(s.cfg.MaxConns) {
			s.connSlots.Add(-1)
			nc.Write(memtext.RespTooManyConns)
			nc.Close()
			continue
		}
		c := s.newConn(nc)
		c.accepted = true
		// On the reactor, or — off Linux, or not TCP — the same pump over
		// a stream source with a reader and a writer goroutine. The source
		// is set before Shutdown can see the conn, and its edges start after.
		if c.src = s.rawSource(c); c.src == nil {
			c.src = newStreamSource(c)
		}
		s.startConn(c)
		c.src.start()
	}
}

// startConn tracks an accepted connection for Shutdown.
func (s *Server) startConn(c *conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	s.rec.Inc(c.rtid, obs.CNetConns)
	s.connWG.Add(1)
}

// finishConn is the exactly-once teardown bookkeeping (via conn
// finalize).
func (s *Server) finishConn(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	s.rec.Inc(c.rtid, obs.CNetConnsClosed)
	s.connSlots.Add(-1)
	s.connWG.Done()
}

// Crash simulates a power failure and recovers in place while the
// listener stays up: every staged (pre-durable) write is dropped per
// mode, parked epoch-wait acks are failed with a SERVER_ERROR, and a
// recovered store replaces the old one. Montage backend only.
func (s *Server) Crash(mode pmem.CrashMode) (survivors int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur
	if old.pool == nil {
		return 0, errors.New("server: crash requires the montage backend")
	}
	// Release every response parked on the old epoch clocks first: after
	// Abandon the old clocks never tick again, so a waiter that missed
	// this close would hang forever.
	close(old.crashCh)
	// Crash abandons every shard's daemon WITHOUT the flushing advances
	// of Close — stale buffers and clocks must never reach the devices
	// the recovered pool is about to own — then fails every shard's
	// device. Recover keeps each shard's recorder, so counters span the
	// crash.
	old.pool.Crash(mode)
	p, chunks, err := old.pool.Recover(s.cfg.maxThreads())
	if err != nil {
		return 0, err
	}
	store, err := kvstore.RecoverShardedStore(p, s.cfg.Buckets, chunks, s.cfg.Capacity)
	if err != nil {
		return 0, err
	}
	s.cur = newMontageRT(p, store, s.rec, s.adminTid)
	s.rec.Inc(s.adminTid, obs.CNetCrashes)
	return store.Len(), nil
}

// Sync forces all completed operations durable on every shard (admin
// path: shutdown, tests).
func (s *Server) Sync() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cur.pool != nil {
		s.cur.pool.Sync(s.adminTid)
	}
}

// SeedCrashRNG seeds the current pool's partial-crash sampler, making
// "crash partial" injections reproducible (chaos harness). No-op for
// transient backends.
func (s *Server) SeedCrashRNG(seed int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cur.pool != nil {
		s.cur.pool.SeedCrashRNG(seed)
	}
}

// Shutdown drains the server: stop accepting, wait up to drain for
// in-flight connections (then force-close stragglers), make all acked
// work durable, save the pool image if configured, and stop the epoch
// daemon.
func (s *Server) Shutdown(drain time.Duration) error {
	s.closed.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain):
		for _, c := range s.liveConns() {
			c.abort()
		}
		<-done
	}
	s.stopOnce.Do(func() { close(s.stop) })
	var err error
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cur.pool != nil {
		if s.cfg.PoolPath != "" {
			err = s.cur.pool.Save(s.adminTid, s.cfg.PoolPath)
		} else {
			s.cur.pool.Sync(s.adminTid)
		}
		s.cur.pool.Close()
	}
	return err
}

// liveConns snapshots the tracked connection set (abort must run
// outside connMu: teardown bookkeeping re-enters it).
func (s *Server) liveConns() []*conn {
	s.connMu.Lock()
	out := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	s.connMu.Unlock()
	return out
}

// Recorder returns the observability recorder serving this server.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// NumShards reports the pool's shard count (1 for transient backends,
// which have a single logical domain). When a pool image was reopened,
// this is the image's count, which may differ from Config.Shards.
func (s *Server) NumShards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cur.pool == nil {
		return 1
	}
	return s.cur.pool.NumShards()
}

// Store returns the current store (tests; swapped by Crash).
func (s *Server) Store() *kvstore.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.store
}
