// Package core implements the Montage runtime: the paper's Recoverable
// base class, payload lifecycle (PNEW, PDELETE, get/set with old-see-new
// detection), the buffered-durable-linearizability contract, and the
// whole-system recovery driver.
//
// The division of labor follows the paper exactly. The data structure
// keeps its index in transient memory and performs all synchronization
// there; only payloads — the semantic state — live in the persistent
// arena. Operations that create or modify payloads bracket themselves
// with BeginOp/EndOp (or DoOp); Montage labels every payload with the
// operation's epoch, buffers its write-back, and guarantees that epoch
// e's payloads persist atomically when the clock ticks from e+1 to e+2.
// After a crash in epoch e, Recover discards epochs e and e-1 and hands
// the surviving payloads to the structure's rebuild routine.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"montage/internal/epoch"
	"montage/internal/obs"
	"montage/internal/pmem"
	"montage/internal/ralloc"
	"montage/internal/simclock"
)

// ErrOldSeeNew is the Go rendering of the paper's OldSeeNewException: an
// operation running in epoch e touched a payload created in an epoch
// newer than e. The usual response is to abort the operation and retry
// it in the newer epoch (see DoOp's retry loop in the data structure
// packages); operations that can prove the access harmless may use
// GetUnsafe instead.
var ErrOldSeeNew = errors.New("montage: operation saw a payload from a newer epoch")

// Config configures a Montage system.
type Config struct {
	// ArenaSize is the persistent arena size in bytes.
	ArenaSize int
	// MaxThreads is the number of worker thread ids.
	MaxThreads int
	// Epoch tunes the epoch system (buffer size, policies, epoch length).
	// MaxThreads is filled in from the outer config.
	Epoch epoch.Config
	// Costs, when non-nil, attaches a virtual-time cost model for the
	// benchmark harness.
	Costs *simclock.Costs
	// Recorder, when non-nil, is the observability recorder the system
	// reports to; sharing one recorder across systems aggregates their
	// counters (the benchmark harness does this). When nil, NewSystem and
	// Recover create a private recorder sized for MaxThreads.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.ArenaSize == 0 {
		c.ArenaSize = 64 << 20
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 1
	}
	c.Epoch.MaxThreads = c.MaxThreads
	return c
}

// System is one Montage instance: a persistent arena, its allocator, and
// an epoch system, shared by any number of data structures.
type System struct {
	cfg  Config
	dev  *pmem.Device
	heap *ralloc.Heap
	esys *epoch.Sys
	clk  *simclock.Clock
	rec  *obs.Recorder
	uid  atomic.Uint64
}

// recorderFor returns the configured shared recorder or a fresh private
// one.
func recorderFor(cfg Config) *obs.Recorder {
	if cfg.Recorder != nil {
		return cfg.Recorder
	}
	return obs.New(cfg.MaxThreads)
}

// NewSystem creates a Montage system over a fresh simulated-NVM arena.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	var clk *simclock.Clock
	if cfg.Costs != nil {
		clk = simclock.New(cfg.MaxThreads, *cfg.Costs)
	}
	rec := recorderFor(cfg)
	dev := pmem.NewDevice(cfg.ArenaSize, cfg.MaxThreads, clk)
	// Attach the recorder before the heap and epoch system are built so
	// both inherit it (the epoch daemon may start ticking immediately).
	dev.SetRecorder(rec)
	heap, err := ralloc.New(dev, cfg.MaxThreads, ralloc.Options{})
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, dev: dev, heap: heap, clk: clk, rec: rec}
	s.esys = epoch.New(heap, cfg.Epoch)
	return s, nil
}

// Device exposes the underlying simulated NVM device (for crash tests
// and image save/load).
func (s *System) Device() *pmem.Device { return s.dev }

// Heap exposes the allocator (for statistics).
func (s *System) Heap() *ralloc.Heap { return s.heap }

// Epochs exposes the epoch system.
func (s *System) Epochs() *epoch.Sys { return s.esys }

// Clock returns the attached virtual clock, or nil.
func (s *System) Clock() *simclock.Clock { return s.clk }

// Recorder returns the system's observability recorder.
func (s *System) Recorder() *obs.Recorder { return s.rec }

// Stats returns a point-in-time snapshot of the system's runtime
// counters: epoch advances and drains, device write-backs and fences,
// operation/retry counts, allocator usage, and latency histograms.
func (s *System) Stats() obs.Snapshot { return s.rec.Snapshot() }

// Advance manually advances the epoch once (mostly for tests; normal
// configurations advance via the background daemon or at operation
// boundaries).
func (s *System) Advance() { s.esys.Advance() }

// Sync blocks until all operations completed before the call are
// durable: the file-system fsync analogue, implemented as a two-epoch
// advance in which the caller helps write back its peers' buffers. It
// must not be called between BeginOp and EndOp.
func (s *System) Sync(tid int) { s.esys.Sync(tid) }

// Close stops background activity and flushes all completed work.
func (s *System) Close() { s.esys.Close() }

// Abandon stops the epoch daemon without the final flushing advances of
// Close. It is the correct teardown for a System whose device crashed:
// the stale buffers and clock must never reach the device that a
// recovered System now owns. After Abandon, drop the System.
func (s *System) Abandon() { s.esys.Abandon() }

// Checkpoint forces all completed work durable (Sync) and writes the
// device image to path, so a later process can reopen the pool with
// pmem.NewDeviceFromFile and Recover. It must not be called between
// BeginOp and EndOp.
func (s *System) Checkpoint(tid int, path string) error {
	s.esys.Sync(tid)
	return s.dev.Save(path)
}

// Op is a handle on an in-flight update operation. All payload
// mutations go through it.
type Op struct {
	sys   *System
	tid   int
	epoch uint64
}

// TID returns the worker thread id the operation runs on.
func (op Op) TID() int { return op.tid }

// Epoch returns the epoch the operation runs in.
func (op Op) Epoch() uint64 { return op.epoch }

// BeginOp starts an update operation on thread tid. Prefer DoOp, which
// pairs it with EndOp automatically (the BEGIN_OP_AUTOEND idiom).
func (s *System) BeginOp(tid int) Op {
	s.rec.Inc(tid, obs.COps)
	e := s.esys.BeginOp(tid)
	return Op{sys: s, tid: tid, epoch: e}
}

// EndOp completes an update operation.
func (s *System) EndOp(tid int) { s.esys.EndOp(tid) }

// BeginRead registers a read that holds no lock against the payloads'
// unlinking: until EndRead, no payload it can reach is reclaimed and
// reused. Lock-free structures bracket every payload read with it,
// because a recovered payload's data is its block in the arena, not a
// copy (DESIGN §15). It is not an operation: it counts nothing and
// charges no virtual time.
func (s *System) BeginRead(tid int) { s.esys.BeginRead(tid) }

// EndRead ends a read begun with BeginRead.
func (s *System) EndRead(tid int) { s.esys.EndRead(tid) }

// DoOp runs fn inside a BeginOp/EndOp bracket.
func (s *System) DoOp(tid int, fn func(op Op) error) error {
	op := s.BeginOp(tid)
	defer s.EndOp(tid)
	return fn(op)
}

// DoOpRetry runs fn like DoOp, restarting it in a fresh epoch whenever it
// reports ErrOldSeeNew. This is the paper's "roll back what it has done
// so far and start over in the newer epoch" response; the data structure
// must make fn idempotent up to its linearization point.
func (s *System) DoOpRetry(tid int, fn func(op Op) error) error {
	for {
		err := s.DoOp(tid, fn)
		if !errors.Is(err, ErrOldSeeNew) {
			return err
		}
		s.rec.Inc(tid, obs.COpRetries)
	}
}

// CheckEpoch returns ErrOldSeeNew if the operation's epoch is no longer
// current. Nonblocking structures call it immediately before their
// linearizing CAS.
func (op Op) CheckEpoch() error {
	if !op.sys.esys.CheckEpoch(op.tid) {
		return fmt.Errorf("%w (epoch advanced past %d)", ErrOldSeeNew, op.epoch)
	}
	return nil
}

// nextUID allocates a fresh payload uid.
func (s *System) nextUID() uint64 { return s.uid.Add(1) }
