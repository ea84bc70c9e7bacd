package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"montage/internal/obs"
	"montage/internal/payload"
	"montage/internal/pmem"
	"montage/internal/ralloc"
)

// mockPayload implements Persistable for tests.
type mockPayload struct {
	addr     pmem.Addr
	epoch    uint64
	uid      uint64
	data     []byte
	buffered atomic.Bool
	flushed  atomic.Bool
	dead     atomic.Bool
}

func (m *mockPayload) PAddr() pmem.Addr  { return m.addr }
func (m *mockPayload) PEncodedSize() int { return payload.EncodedSize(len(m.data)) }
func (m *mockPayload) PEncodeInto(dst []byte) {
	payload.Encode(dst, payload.Header{Epoch: m.epoch, UID: m.uid, Typ: payload.Alloc}, m.data)
}
func (m *mockPayload) MarkBuffered() bool { return m.buffered.CompareAndSwap(false, true) }
func (m *mockPayload) ClearBuffered()     { m.buffered.Store(false) }
func (m *mockPayload) MarkFlushed()       { m.flushed.Store(true) }
func (m *mockPayload) PDead() bool        { return m.dead.Load() }

type fixture struct {
	dev  *pmem.Device
	heap *ralloc.Heap
	sys  *Sys
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 4
	}
	dev := pmem.NewDevice(1<<22, cfg.MaxThreads, nil)
	heap, err := ralloc.New(dev, cfg.MaxThreads, ralloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{dev: dev, heap: heap, sys: New(heap, cfg)}
}

func (f *fixture) newPayload(t testing.TB, tid int, e, uid uint64, data []byte) *mockPayload {
	t.Helper()
	addr, err := f.heap.Alloc(tid, len(data))
	if err != nil {
		t.Fatal(err)
	}
	return &mockPayload{addr: addr, epoch: e, uid: uid, data: data}
}

// durableHeader decodes the durable block at addr.
func (f *fixture) durableHeader(t *testing.T, addr pmem.Addr) (payload.Header, bool) {
	t.Helper()
	buf := make([]byte, f.heap.BlockSize(addr))
	if err := f.dev.Read(0, addr, buf); err != nil {
		t.Fatal(err)
	}
	h, _, ok := payload.Decode(buf)
	return h, ok
}

func TestBeginEndOp(t *testing.T) {
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	if e != f.sys.Epoch() {
		t.Fatalf("BeginOp returned %d, clock is %d", e, f.sys.Epoch())
	}
	if !f.sys.CheckEpoch(0) {
		t.Fatal("CheckEpoch false for fresh op")
	}
	if f.sys.OpEpoch(0) != e {
		t.Fatal("OpEpoch mismatch")
	}
	f.sys.EndOp(0)
	if f.sys.OpEpoch(0) != 0 {
		t.Fatal("EndOp did not clear op epoch")
	}
}

func TestCheckEpochDetectsAdvance(t *testing.T) {
	f := newFixture(t, Config{})
	f.sys.BeginOp(0)
	f.sys.EndOp(0) // must end before advancing or waitAll would spin

	f.sys.BeginOp(1)
	go func() {
		// The op in epoch e does not block an advance from e to e+1
		// (only e-1 must be quiescent).
		f.sys.Advance()
	}()
	deadline := time.After(2 * time.Second)
	for f.sys.CheckEpoch(1) {
		select {
		case <-deadline:
			t.Fatal("advance never happened")
		default:
		}
	}
	f.sys.EndOp(1)
}

func TestPayloadDurableAfterTwoAdvances(t *testing.T) {
	// The buffered container defers the write-back to the e+1 -> e+2
	// boundary.
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("payload-one"))
	f.sys.AddToPersist(0, e, p)
	f.sys.EndOp(0)

	// After zero or one advance the payload must not be durable.
	if _, ok := f.durableHeader(t, p.addr); ok {
		t.Fatal("payload durable before any advance")
	}
	f.sys.Advance() // e -> e+1
	if _, ok := f.durableHeader(t, p.addr); ok {
		t.Fatal("payload durable after one advance; epoch e persists at the e+1 -> e+2 tick")
	}
	f.sys.Advance() // e+1 -> e+2: epoch e payloads persist now
	h, ok := f.durableHeader(t, p.addr)
	if !ok {
		t.Fatal("payload not durable after two advances")
	}
	if h.Epoch != e || h.UID != 1 {
		t.Fatalf("durable header wrong: %+v", h)
	}
	if !p.flushed.Load() {
		t.Fatal("MarkFlushed not called")
	}
}

func TestClockPersistsOnAdvance(t *testing.T) {
	f := newFixture(t, Config{})
	start := f.sys.Epoch()
	f.sys.Advance()
	f.sys.Advance()
	got, err := ReadClock(f.dev)
	if err != nil {
		t.Fatal(err)
	}
	if got != start+2 {
		t.Fatalf("durable clock = %d, want %d", got, start+2)
	}
}

func TestBufferOverflowIncrementalWriteback(t *testing.T) {
	f := newFixture(t, Config{BufferSize: 8})
	e := f.sys.BeginOp(0)
	var ps []*mockPayload
	for i := 0; i < 13; i++ {
		p := f.newPayload(t, 0, e, uint64(i+1), []byte{byte(i)})
		f.sys.AddToPersist(0, e, p)
		ps = append(ps, p)
	}
	f.sys.EndOp(0)
	if got := f.sys.PendingPersist(0); got != 8 {
		t.Fatalf("buffer holds %d entries, want 8", got)
	}
	// The 5 oldest must have been incrementally written back (staged).
	flushed := 0
	for _, p := range ps {
		if p.flushed.Load() {
			flushed++
		}
	}
	if flushed != 5 {
		t.Fatalf("%d payloads incrementally flushed, want 5", flushed)
	}
	// They are staged, not durable, until a fence/drain.
	if _, ok := f.durableHeader(t, ps[0].addr); ok {
		t.Fatal("incremental write-back became durable without a fence")
	}
	f.sys.Advance()
	f.sys.Advance()
	for i, p := range ps {
		if _, ok := f.durableHeader(t, p.addr); !ok {
			t.Fatalf("payload %d not durable after two advances", i)
		}
	}
}

func TestRebufferAfterIncrementalFlush(t *testing.T) {
	// A payload drained by overflow and then modified again in the same
	// epoch must be re-queued and re-flushed.
	f := newFixture(t, Config{BufferSize: 2})
	e := f.sys.BeginOp(0)
	p0 := f.newPayload(t, 0, e, 1, []byte("v1"))
	f.sys.AddToPersist(0, e, p0)
	for i := 0; i < 4; i++ {
		p := f.newPayload(t, 0, e, uint64(10+i), []byte{byte(i)})
		f.sys.AddToPersist(0, e, p)
	}
	if !p0.flushed.Load() || p0.buffered.Load() {
		t.Fatal("p0 should have been incrementally flushed and dequeued")
	}
	p0.data = []byte("v2")
	f.sys.AddToPersist(0, e, p0) // re-queue after modification
	f.sys.EndOp(0)
	f.sys.Advance()
	f.sys.Advance()
	buf := make([]byte, f.heap.BlockSize(p0.addr))
	if err := f.dev.Read(0, p0.addr, buf); err != nil {
		t.Fatal(err)
	}
	_, data, ok := payload.Decode(buf)
	if !ok || string(data) != "v2" {
		t.Fatalf("durable data %q, want v2", data)
	}
}

func TestDuplicateAddSkipped(t *testing.T) {
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("x"))
	f.sys.AddToPersist(0, e, p)
	f.sys.AddToPersist(0, e, p)
	f.sys.EndOp(0)
	if got := f.sys.PendingPersist(0); got != 1 {
		t.Fatalf("duplicate add queued %d entries, want 1", got)
	}
}

func TestDeadPayloadSkipped(t *testing.T) {
	// A payload that dies while buffered is skipped.
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("cancelled"))
	f.sys.AddToPersist(0, e, p)
	p.dead.Store(true)
	f.sys.EndOp(0)
	f.sys.Advance()
	f.sys.Advance()
	if _, ok := f.durableHeader(t, p.addr); ok {
		t.Fatal("dead payload was written back")
	}
	if p.flushed.Load() {
		t.Fatal("dead payload marked flushed")
	}
}

func TestDelayedReclamation(t *testing.T) {
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("doomed"))
	f.sys.AddToPersist(0, e, p)
	f.sys.EndOp(0)
	f.sys.Advance()
	f.sys.Advance() // p durable now

	live := f.heap.Live()
	e2 := f.sys.BeginOp(0)
	f.sys.AddToFree(0, e2, p.addr)
	f.sys.EndOp(0)
	if f.heap.Live() != live {
		t.Fatal("block reclaimed immediately; must be delayed")
	}
	f.sys.Advance() // e2 -> e2+1
	if f.heap.Live() != live {
		t.Fatal("block reclaimed after one advance")
	}
	f.sys.Advance() // e2+1 -> e2+2: reclaim happens at the NEXT advance
	f.sys.Advance() // e2+2 -> e2+3: reclaims to_free[e2]
	if f.heap.Live() != live-1 {
		t.Fatalf("block not reclaimed: live=%d want %d", f.heap.Live(), live-1)
	}
	// The reclaimed block's durable header must be invalidated so a later
	// recovery cannot resurrect it.
	if _, ok := f.durableHeader(t, p.addr); ok {
		t.Fatal("reclaimed block still decodes as a valid payload")
	}
}

func TestLocalFreeReclamation(t *testing.T) {
	f := newFixture(t, Config{LocalFree: true})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("doomed"))
	f.sys.AddToPersist(0, e, p)
	f.sys.AddToFree(0, e, p.addr)
	f.sys.EndOp(0)
	live := f.heap.Live()
	f.sys.Advance()
	f.sys.Advance()
	// The daemon must NOT have reclaimed it (LocalFree moves that to the
	// worker); the worker's next BeginOp does.
	if f.heap.Live() != live {
		t.Fatal("daemon reclaimed despite LocalFree")
	}
	f.sys.BeginOp(0)
	f.sys.EndOp(0)
	if f.heap.Live() != live-1 {
		t.Fatalf("worker did not reclaim: live=%d want %d", f.heap.Live(), live-1)
	}
}

func TestDirectFreeImmediate(t *testing.T) {
	f := newFixture(t, Config{DirectFree: true})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("x"))
	live := f.heap.Live()
	f.sys.AddToFree(0, e, p.addr)
	f.sys.EndOp(0)
	if f.heap.Live() != live-1 {
		t.Fatal("DirectFree did not reclaim immediately")
	}
}

func TestTransientModeNoPersistence(t *testing.T) {
	f := newFixture(t, Config{Transient: true})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("transient"))
	f.sys.AddToPersist(0, e, p)
	live := f.heap.Live()
	f.sys.AddToFree(0, e, p.addr)
	f.sys.EndOp(0)
	if f.sys.PendingPersist(0) != 0 {
		t.Fatal("transient mode queued a write-back")
	}
	if f.heap.Live() != live-1 {
		t.Fatal("transient mode did not free immediately")
	}
	f.sys.Advance()
	if got, _ := ReadClock(f.dev); got != FirstEpoch {
		t.Fatalf("transient mode persisted the clock: %d", got)
	}
}

func TestPolicyPerOpFlushesAtEndOp(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyPerOp})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("dw"))
	f.sys.AddToPersist(0, e, p)
	if p.flushed.Load() {
		t.Fatal("PolicyPerOp flushed before EndOp")
	}
	f.sys.EndOp(0)
	if _, ok := f.durableHeader(t, p.addr); !ok {
		t.Fatal("PolicyPerOp payload not durable after EndOp")
	}
}

func TestPolicyDirectFlushesAtAdd(t *testing.T) {
	f := newFixture(t, Config{Policy: PolicyDirect})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("dirwb"))
	f.sys.AddToPersist(0, e, p)
	if !p.flushed.Load() {
		t.Fatal("PolicyDirect did not flush at AddToPersist")
	}
	f.sys.EndOp(0)
	if _, ok := f.durableHeader(t, p.addr); !ok {
		t.Fatal("PolicyDirect payload not durable after EndOp fence")
	}
}

func TestSyncMakesWorkDurable(t *testing.T) {
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("sync me"))
	f.sys.AddToPersist(0, e, p)
	f.sys.EndOp(0)
	f.sys.Sync(0)
	if _, ok := f.durableHeader(t, p.addr); !ok {
		t.Fatal("payload not durable after Sync")
	}
	if got, _ := ReadClock(f.dev); got < e+2 {
		t.Fatalf("durable clock %d after sync, want >= %d", got, e+2)
	}
}

func TestAdvanceWaitsForStragglers(t *testing.T) {
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0) // op in epoch e
	// Advance e -> e+1 does not require e's quiescence, but the next
	// advance (e+1 -> e+2) must wait for our op.
	f.sys.Advance()
	done := make(chan struct{})
	go func() {
		f.sys.Advance()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("advance completed while an epoch-e operation was active")
	case <-time.After(50 * time.Millisecond):
	}
	_ = e
	f.sys.EndOp(0)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("advance never completed after EndOp")
	}
}

func TestBeginOpConcurrentWithAdvances(t *testing.T) {
	f := newFixture(t, Config{MaxThreads: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.sys.Advance()
			}
		}
	}()
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				e := f.sys.BeginOp(tid)
				if e == 0 {
					t.Error("BeginOp returned epoch 0")
				}
				p := f.newPayload(t, tid, e, uint64(tid*1000+i), []byte{byte(i)})
				f.sys.AddToPersist(tid, e, p)
				f.sys.EndOp(tid)
			}
		}(tid)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	f.sys.Close()
}

func TestRealTimeDaemon(t *testing.T) {
	f := newFixture(t, Config{EpochLength: time.Millisecond})
	start := f.sys.Epoch()
	deadline := time.After(2 * time.Second)
	for f.sys.Epoch() < start+3 {
		select {
		case <-deadline:
			t.Fatal("daemon did not advance the epoch")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	f.sys.Close()
	after := f.sys.Epoch()
	time.Sleep(5 * time.Millisecond)
	if f.sys.Epoch() < after {
		t.Fatal("epoch moved backward")
	}
}

func TestCloseFlushesEverything(t *testing.T) {
	f := newFixture(t, Config{})
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("closing"))
	f.sys.AddToPersist(0, e, p)
	f.sys.EndOp(0)
	f.sys.Close()
	if _, ok := f.durableHeader(t, p.addr); !ok {
		t.Fatal("payload not durable after Close")
	}
}

func TestOldestUnpersistedTracking(t *testing.T) {
	// The mindicator mirrors the buffered containers.
	f := newFixture(t, Config{})
	if f.sys.OldestUnpersisted() != int64(1<<63-1) {
		t.Fatal("fresh system should report Empty")
	}
	e := f.sys.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("x"))
	f.sys.AddToPersist(0, e, p)
	f.sys.EndOp(0)
	if got := f.sys.OldestUnpersisted(); got != int64(e) {
		t.Fatalf("OldestUnpersisted = %d, want %d", got, e)
	}
	f.sys.Advance()
	f.sys.Advance()
	if got := f.sys.OldestUnpersisted(); got != int64(1<<63-1) {
		t.Fatalf("OldestUnpersisted = %d after full persist, want Empty", got)
	}
}

func TestAdvancesCounter(t *testing.T) {
	f := newFixture(t, Config{})
	if f.sys.Advances() != 0 {
		t.Fatal("fresh system has nonzero advance count")
	}
	f.sys.Advance()
	f.sys.Advance()
	if got := f.sys.Advances(); got != 2 {
		t.Fatalf("Advances = %d, want 2", got)
	}
}

func TestEpochOpsTrigger(t *testing.T) {
	f := newFixture(t, Config{MaxThreads: 2, EpochOps: 10})
	start := f.sys.Epoch()
	for i := 0; i < 10; i++ {
		f.sys.BeginOp(0)
		f.sys.EndOp(0)
	}
	if got := f.sys.Epoch(); got != start+1 {
		t.Fatalf("epoch = %d after 10 ops, want %d", got, start+1)
	}
	for i := 0; i < 9; i++ {
		f.sys.BeginOp(1)
		f.sys.EndOp(1)
	}
	if got := f.sys.Epoch(); got != start+1 {
		t.Fatalf("epoch advanced early: %d", got)
	}
	f.sys.BeginOp(1)
	f.sys.EndOp(1)
	if got := f.sys.Epoch(); got != start+2 {
		t.Fatalf("epoch = %d after 20 ops, want %d", got, start+2)
	}
}

func TestEpochPayloadsTrigger(t *testing.T) {
	f := newFixture(t, Config{MaxThreads: 1, EpochPayloads: 5})
	start := f.sys.Epoch()
	// Ops without payloads must not advance the epoch.
	for i := 0; i < 20; i++ {
		f.sys.BeginOp(0)
		f.sys.EndOp(0)
	}
	if got := f.sys.Epoch(); got != start {
		t.Fatalf("epoch advanced without payloads: %d", got)
	}
	uid := uint64(0)
	for i := 0; i < 5; i++ {
		e := f.sys.BeginOp(0)
		uid++
		p := f.newPayload(t, 0, e, uid, []byte{byte(i)})
		f.sys.AddToPersist(0, e, p)
		f.sys.EndOp(0)
	}
	if got := f.sys.Epoch(); got != start+1 {
		t.Fatalf("epoch = %d after 5 payloads, want %d", got, start+1)
	}
}

// TestAdvLockWaitHistogram proves the advance's convoy instrumentation:
// every advMu acquisition on the Advance/Sync paths records into
// adv_lock_wait_ns, so daemon-vs-Sync contention is visible.
func TestAdvLockWaitHistogram(t *testing.T) {
	f := newFixture(t, Config{})
	rec := obs.New(4)
	f.sys.SetRecorder(rec)
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				e := f.sys.BeginOp(tid)
				p := f.newPayload(t, tid, e, uint64(tid*100+i+1), []byte("convoy"))
				f.sys.AddToPersist(tid, e, p)
				f.sys.EndOp(tid)
				f.sys.Sync(tid)
			}
		}(tid)
	}
	wg.Wait()
	if got := rec.Snapshot().Latency.AdvLockWaitNs.Count; got == 0 {
		t.Fatal("no adv_lock_wait_ns samples recorded under Sync contention")
	}
}
