package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"montage/internal/core"
	"montage/internal/epoch"
	"montage/internal/kvstore"
	"montage/internal/obs"
	"montage/internal/pmem"
	"montage/internal/pool"
)

// Config parameterizes one seeded crash schedule.
type Config struct {
	// Seed determines everything the schedule decides: the op streams,
	// the ack modes, the crash trigger, and the arming point.
	Seed int64
	// Shards is the pool's shard count (default 1).
	Shards int
	// Workers is the number of concurrent op-driving goroutines
	// (default 3).
	Workers int
	// Keys is the size of the key universe (default 12; contention is the
	// point).
	Keys int
	// OpsPerWorker bounds each worker's op count (default 40); a crash
	// usually cuts the schedule short.
	OpsPerWorker int
	// Mode is the crash mode injected (DropAll or Partial).
	Mode pmem.CrashMode
	// Net drives the schedule through a live TCP server instead of the
	// direct kvstore API. Net schedules use whole-pool crash triggers and
	// the weaker binding-ack-only checks (per-shard watermarks are not
	// observable through the wire).
	Net bool
	// ArenaSize is the per-shard arena (default 4 MiB).
	ArenaSize int
	// Recorder, when non-nil, receives the schedule's runtime counters
	// and trace events (a violation report prints the trace tail).
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Keys <= 0 {
		c.Keys = 12
	}
	if c.OpsPerWorker <= 0 {
		c.OpsPerWorker = 40
	}
	if c.ArenaSize <= 0 {
		c.ArenaSize = 1 << 22
	}
	return c
}

// Result summarizes one executed schedule.
type Result struct {
	Seed    int64
	Shards  int
	Mode    pmem.CrashMode
	Net     bool
	Trigger string
	// Ops is the number of recorded (completed) operations.
	Ops      int
	CrashSeq uint64
	// Cutoffs are the per-shard persist watermarks recovery enforced
	// (nil in net mode).
	Cutoffs []uint64
	// Survivors is the number of keys present after recovery.
	Survivors int
	// MidRecoveryCrash reports whether the schedule also armed a crash
	// inside the recovery sweep (and recovered a second time).
	MidRecoveryCrash bool
	Violations       []Violation
	// History is the full recorded op history (violation forensics).
	History []Op
}

// crashPlan is the schedule's decision vector, drawn from the seed up
// front so one seed maps to one plan regardless of runtime interleaving.
type crashPlan struct {
	armed bool
	point pmem.CrashPoint
	shard int
	skip  int
	// afterOps triggers the unarmed whole-pool crash once this many ops
	// have completed.
	afterOps uint64
	// midRecovery arms a second crash inside the recovery sweep
	// (CrashAtDurable on recShard, skipping recSkip hits), after which
	// recovery is run again — the sweep must be idempotent.
	midRecovery bool
	recShard    int
	recSkip     int
}

func drawPlan(rng *rand.Rand, cfg Config) crashPlan {
	var p crashPlan
	// The pinned seeds in regression_test.go depend on this exact draw
	// sequence: the draw stays five-way, with 2 and 4 both arming the
	// drain point.
	switch rng.Intn(5) {
	case 1:
		p.armed, p.point = true, pmem.CrashAtFence
	case 2, 4:
		p.armed, p.point = true, pmem.CrashAtDrain
	case 3:
		p.armed, p.point = true, pmem.CrashAtDurable
	}
	p.shard = rng.Intn(cfg.Shards)
	p.skip = rng.Intn(8)
	p.afterOps = uint64(1 + rng.Intn(cfg.Workers*cfg.OpsPerWorker))
	p.midRecovery = rng.Intn(4) == 0
	p.recShard = rng.Intn(cfg.Shards)
	p.recSkip = rng.Intn(3)
	return p
}

func (p crashPlan) trigger(net bool) string {
	var s string
	switch {
	case net:
		s = fmt.Sprintf("net-ops@%d", p.afterOps)
	case p.armed:
		s = fmt.Sprintf("%s@shard%d+%d", p.point, p.shard, p.skip)
	default:
		s = fmt.Sprintf("ops@%d", p.afterOps)
	}
	if p.midRecovery && !net {
		s += "+recovery"
	}
	return s
}

// scheduleTimeout is the per-schedule watchdog. A healthy schedule takes
// milliseconds; one still running after this long has stopped making
// progress.
var scheduleTimeout = 2 * time.Minute

// RunSchedule executes one seeded crash schedule end to end — drive ops,
// crash, recover, check — and returns its result. A non-nil error means
// the schedule itself could not run (not a checker violation) — including
// one the watchdog gave up on, whose error carries every goroutine's stack
// and the tail of the recorder's trace ring; its goroutines are left
// behind, so the caller should report the error and exit.
func RunSchedule(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	run := runDirectSchedule
	if cfg.Net {
		run = runNetSchedule
	}
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run(cfg)
		done <- outcome{res, err}
	}()
	watchdog := time.NewTimer(scheduleTimeout)
	defer watchdog.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-watchdog.C:
		var b strings.Builder
		fmt.Fprintf(&b, "chaos: schedule seed=%d still running after %v (GOMAXPROCS=%d)\n",
			cfg.Seed, scheduleTimeout, runtime.GOMAXPROCS(0))
		evs := cfg.Recorder.TraceEvents()
		for _, ev := range evs[max(0, len(evs)-32):] {
			fmt.Fprintf(&b, "  %s\n", ev)
		}
		stacks := make([]byte, 1<<20)
		b.Write(stacks[:runtime.Stack(stacks, true)])
		return Result{Seed: cfg.Seed, Shards: cfg.Shards, Mode: cfg.Mode, Net: cfg.Net},
			errors.New(b.String())
	}
}

// runDirectSchedule drives one schedule against the pool through the
// kvstore API, with armed in-device crash points and per-shard watermark
// checks.
func runDirectSchedule(cfg Config) (Result, error) {
	res := Result{Seed: cfg.Seed, Shards: cfg.Shards, Mode: cfg.Mode}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := drawPlan(rng, cfg)
	res.Trigger = plan.trigger(false)
	res.MidRecoveryCrash = plan.midRecovery

	ccfg := core.Config{
		ArenaSize:  cfg.ArenaSize,
		MaxThreads: cfg.Workers + 1,
		Recorder:   cfg.Recorder,
	}
	p, err := pool.New(pool.Config{Shards: cfg.Shards, Core: ccfg})
	if err != nil {
		return res, err
	}
	p.SeedCrashRNG(cfg.Seed)
	store := kvstore.New(kvstore.NewShardedBackend(p, 64), 0)
	hist := NewHistory(cfg.Workers)

	crashed := make(chan struct{})
	var crashOnce sync.Once
	markCrashed := func() { crashOnce.Do(func() { close(crashed) }) }
	if plan.armed {
		p.Shard(plan.shard).Device().ArmCrash(plan.point, plan.skip, cfg.Mode, func() {
			hist.MarkCrash()
			markCrashed()
		})
	}
	var poolCrashed atomic.Bool
	maybePoolCrash := func() {
		if plan.armed || hist.Completed() < plan.afterOps {
			return
		}
		if poolCrashed.CompareAndSwap(false, true) {
			hist.MarkCrash()
			p.Crash(cfg.Mode)
			markCrashed()
		}
	}

	// The advancer stands in for the epoch daemons (the pool is built
	// with no timers so the seed governs as much of the schedule as
	// possible): paced seeded advances on random shards until the crash.
	// It must outlive the workers — epoch-wait acks ride its ticks.
	advStop := make(chan struct{})
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		arng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eedcafe))
		for {
			select {
			case <-crashed:
				return
			case <-advStop:
				return
			default:
			}
			p.Shard(arng.Intn(cfg.Shards)).Advance()
			time.Sleep(time.Duration(20+arng.Intn(120)) * time.Microsecond)
		}
	}()

	opErrs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(w)))
			tid := w
			for i := 0; i < cfg.OpsPerWorker; i++ {
				select {
				case <-crashed:
					return
				default:
				}
				// Occasional inline advances put worker threads inside the
				// epoch boundary (and under the armed crash points) too.
				if wrng.Intn(8) == 0 {
					p.Shard(wrng.Intn(cfg.Shards)).Advance()
				}
				op := Op{Worker: w, Index: i, Key: fmt.Sprintf("k%02d", wrng.Intn(cfg.Keys))}
				if wrng.Intn(4) == 0 {
					op.Kind = OpDelete
				}
				switch wrng.Intn(4) {
				case 0:
					op.Mode = AckSync
				case 1:
					op.Mode = AckEpochWait
				}
				op.Start = hist.Next()
				var tag kvstore.DurabilityTag
				var err error
				if op.Kind == OpSet {
					op.Value = fmt.Sprintf("s%x.w%d.%d", uint64(cfg.Seed), w, i)
					op.Found = true
					tag, err = store.SetTag(tid, op.Key, []byte(op.Value), 0)
				} else {
					op.Found, tag, err = store.DeleteTag(tid, op.Key)
				}
				if err != nil {
					opErrs[w] = fmt.Errorf("w%d#%d %s %s: %w", w, i, op.Kind, op.Key, err)
					return
				}
				op.Tag = tag
				op.End = hist.Next()
				op.Acked = true
				if tag.IsZero() {
					op.Mode = AckBuffered // nothing to wait on (not-found delete)
				} else {
					switch op.Mode {
					case AckSync:
						p.Shard(tag.Shard).Sync(tid)
					case AckEpochWait:
						op.Acked = p.Shard(tag.Shard).Epochs().WaitPersisted(tag.Epoch, crashed)
					}
				}
				op.AckSeq = hist.Next()
				hist.Record(op)
				maybePoolCrash()
			}
		}(w)
	}
	wg.Wait()
	close(advStop)
	<-advDone
	for _, e := range opErrs {
		if e != nil {
			return res, e
		}
	}

	// Force the armed crash if the natural interleaving never reached it:
	// fence and drain points fire within a few advances of the armed
	// shard; a durable point may never come, so fall through to a plain
	// pool crash.
	if plan.armed && hist.CrashSeq() == 0 {
		for i := 0; i < 16 && hist.CrashSeq() == 0; i++ {
			p.Shard(plan.shard).Advance()
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		p.Shard(i).Device().DisarmCrash()
	}
	if hist.CrashSeq() == 0 {
		hist.MarkCrash()
	}
	if !poolCrashed.Load() {
		// Down the whole machine: an armed crash failed one shard at its
		// instant; the rest of the pool dies here, before recovery.
		p.Crash(cfg.Mode)
	}
	markCrashed()

	// The per-shard watermarks recovery will enforce, read from the
	// durable clocks after the crash and before any recovery touches the
	// media. A later mid-recovery crash must not change the surviving
	// prefix, so the checker keeps judging against these.
	cutoffs := make([]uint64, cfg.Shards)
	for i := range cutoffs {
		clk, err := epoch.ReadClock(p.Shard(i).Device())
		if err != nil {
			return res, err
		}
		if clk > 2 {
			cutoffs[i] = clk - 2
		}
	}
	res.CrashSeq = hist.CrashSeq()
	res.Cutoffs = cutoffs

	cur := p
	if plan.midRecovery {
		rdev := cur.Shard(plan.recShard).Device()
		rdev.ArmCrash(pmem.CrashAtDurable, plan.recSkip, cfg.Mode, nil)
		pTmp, _, err := cur.Recover(2)
		if err != nil {
			return res, err
		}
		rdev.DisarmCrash()
		// Whether or not the armed crash fired inside the sweep, discard
		// this recovery and run it again from the media: recovery must be
		// idempotent, and a crash inside it must leave a state the next
		// recovery handles.
		pTmp.Abandon()
		cur = pTmp
	}
	p2, chunks, err := cur.Recover(2)
	if err != nil {
		return res, err
	}
	if debugChunks != nil {
		debugChunks(p2, chunks)
	}
	store2, err := kvstore.RecoverShardedStore(p2, 64, chunks, 0)
	if err != nil {
		return res, err
	}
	recovered := make(map[string]string)
	for _, k := range store2.Keys(0) {
		if v, ok := store2.Get(0, k); ok {
			recovered[k] = string(v)
		}
	}
	res.Survivors = len(recovered)

	ops := hist.Ops()
	res.Ops = len(ops)
	res.History = ops
	res.Violations = Check(CheckInput{
		Ops:       ops,
		CrashSeq:  hist.CrashSeq(),
		Cutoffs:   cutoffs,
		Recovered: recovered,
	})
	p2.Close()
	runtime.KeepAlive(store)
	return res, nil
}

// debugChunks is a test-only hook invoked with the recovered pool and its
// survivor chunks before the store rebuild.
var debugChunks func(*pool.Pool, [][][]*core.PBlk)
