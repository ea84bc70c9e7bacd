package pmem

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
)

// readAt reads n durable bytes at addr, failing the test on error.
func readAt(t *testing.T, d *Device, addr Addr, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	if err := d.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDrainStealNotFenced(t *testing.T) {
	// A crash between a drain's whole-device steal and its commits must
	// not hand any of the stolen batch to the media: a stolen-but-
	// uncommitted block was never fenced, so recovery must not see it.
	d := newDev(t)
	var fired bool
	d.ArmCrash(CrashAtDrain, 0, CrashDropAll, func() { fired = true })
	for tid := 0; tid < 3; tid++ {
		if err := d.WriteBack(tid, Addr(64+tid*64), []byte{0xAA, byte(tid)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain(0)
	if !fired {
		t.Fatal("armed drain crash did not fire")
	}
	if !d.Failed() {
		t.Fatal("device not fail-stopped after armed crash")
	}
	for tid := 0; tid < 3; tid++ {
		if got := readAt(t, d, Addr(64+tid*64), 2); !bytes.Equal(got, []byte{0, 0}) {
			t.Fatalf("stolen write for tid %d reached the media: %v", tid, got)
		}
	}
}

func TestDrainStealPartialCrashSamplesStolenBatch(t *testing.T) {
	// Under CrashPartial the stolen batch is exactly the staged population
	// at the crash instant: a seeded subset may survive, and the fate must
	// be reproducible from the seed.
	run := func(seed int64) []byte {
		d := newDev(t)
		d.SeedCrashRNG(seed)
		d.ArmCrash(CrashAtDrain, 0, CrashPartial, nil)
		for i := 0; i < 32; i++ {
			if err := d.WriteBack(i%4, Addr(64+i*8), []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		d.Drain(0)
		got := make([]byte, 32*8)
		if err := d.Read(0, 64, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(11), run(11)
	if !bytes.Equal(a, b) {
		t.Fatal("partial drain-crash fate not reproducible from the seed")
	}
}

func TestCrashAtFenceSkipCount(t *testing.T) {
	// skip counts occurrences: the first `skip` fences commit normally,
	// the next one dies between steal and commit.
	d := newDev(t)
	d.ArmCrash(CrashAtFence, 2, CrashDropAll, nil)
	for i := 0; i < 2; i++ {
		if err := d.WriteBack(0, Addr(64+i*8), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		d.Fence(0)
		if d.Failed() {
			t.Fatalf("crash fired on skipped fence %d", i)
		}
		if got := readAt(t, d, Addr(64+i*8), 1); got[0] != byte(i+1) {
			t.Fatalf("skipped fence %d did not commit: %v", i, got)
		}
	}
	if err := d.WriteBack(0, 128, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	d.Fence(0)
	if !d.Failed() {
		t.Fatal("third fence did not fire the armed crash")
	}
	if got := readAt(t, d, 128, 1); got[0] != 0 {
		t.Fatal("fencing thread's stolen batch committed at the crash")
	}
}

func TestCrashAtDurablePoint(t *testing.T) {
	// CrashAtDurable kills the machine at the head of a direct durable
	// write — the write itself is lost.
	d := newDev(t)
	d.ArmCrash(CrashAtDurable, 0, CrashDropAll, nil)
	if err := d.WriteDurable(64, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	if !d.Failed() {
		t.Fatal("durable-point crash did not fire")
	}
	if got := readAt(t, d, 64, 1); got[0] != 0 {
		t.Fatal("durable write survived the crash armed at its head")
	}
}

func TestDisarmCrash(t *testing.T) {
	d := newDev(t)
	d.ArmCrash(CrashAtFence, 0, CrashDropAll, nil)
	if !d.DisarmCrash() {
		t.Fatal("DisarmCrash on a pending arm reported false")
	}
	if err := d.WriteBack(0, 64, []byte{1}); err != nil {
		t.Fatal(err)
	}
	d.Fence(0)
	if d.Failed() {
		t.Fatal("disarmed crash fired")
	}
	if got := readAt(t, d, 64, 1); got[0] != 1 {
		t.Fatal("fence after disarm did not commit")
	}
	if d.DisarmCrash() {
		t.Fatal("DisarmCrash with nothing armed reported true")
	}
}

func TestCrashFloorDropsStolenBatch(t *testing.T) {
	// White-box: a commit attempt for a batch stolen BEFORE the crash
	// (a fence or drain that lost the race with the power failure)
	// must not reach the media — every write at or below the crash floor
	// is dead. This is the second line of defense behind the armed crash
	// points, for the race that cannot be staged from outside.
	d := newDev(t)
	if err := d.WriteBack(1, 64, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	b := d.buf(1)
	b.mu.Lock()
	batch, _ := b.stealLocked()
	b.mu.Unlock()
	if len(batch) == 0 {
		t.Fatal("test setup: nothing stolen")
	}
	d.Crash(CrashDropAll)
	d.Revive()
	if n := d.commitBatch(batch); n != 0 {
		t.Fatalf("commitBatch landed %d bytes from below the crash floor", n)
	}
	if got := readAt(t, d, 64, 1); got[0] != 0 {
		t.Fatal("stolen pre-crash write reached the media")
	}
}

func TestCrashFloorBlocksStaleCommit(t *testing.T) {
	// Fail-stop semantics across recovery: a thread that staged writes
	// before the crash and fences only after Revive must not commit them —
	// the crash consumed (and here dropped) its staged batch.
	d := newDev(t)
	if err := d.WriteBack(1, 64, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	// The crash samples (and here drops) thread 1's staged write; thread 1
	// has not yet fenced.
	d.Crash(CrashDropAll)
	d.Revive()
	d.Fence(1) // stale fence from the "previous incarnation"
	if got := readAt(t, d, 64, 1); got[0] != 0 {
		t.Fatal("pre-crash staged write committed by a post-revive fence")
	}
	// New writes after Revive are above the floor and commit normally.
	if err := d.WriteBack(1, 72, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	d.Fence(1)
	if got := readAt(t, d, 72, 1); got[0] != 0xCC {
		t.Fatal("post-revive write did not commit")
	}
}

func TestFailedDeviceDiscardsNewStages(t *testing.T) {
	// While fail-stopped, staging is silently discarded: a racing thread
	// cannot seed writes for a post-recovery fence to commit.
	d := newDev(t)
	d.Crash(CrashDropAll)
	if err := d.WriteBack(2, 64, []byte{0xDD}); err != nil {
		t.Fatal(err)
	}
	d.Revive()
	d.Fence(2)
	if got := readAt(t, d, 64, 1); got[0] != 0 {
		t.Fatal("write staged while failed committed after revive")
	}
}

func TestDrainCoversConcurrentFence(t *testing.T) {
	// When Drain returns, every write staged before it began is durable —
	// including one a worker's own Fence is committing at that moment. If
	// the fence's batch could be in flight outside its buffer (stolen, not
	// yet committed), a Drain would pass the empty buffer and return, and
	// an epoch advance would certify an epoch one of whose payloads a
	// crash could still lose.
	d := newDev(t)
	const rounds = 20000
	var staged atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b [8]byte
		for i := uint64(1); i <= rounds; i++ {
			binary.LittleEndian.PutUint64(b[:], i)
			if err := d.WriteBack(1, 64, b[:]); err != nil {
				t.Error(err)
				return
			}
			staged.Store(i)
			d.Fence(1)
		}
	}()
	for staged.Load() < rounds {
		want := staged.Load()
		d.Drain(0)
		if got := binary.LittleEndian.Uint64(readAt(t, d, 64, 8)); got < want {
			t.Fatalf("Drain returned with durable value %d; %d was staged before it began", got, want)
		}
	}
	<-done
}

func TestCrashAtFenceBatchStaysStaged(t *testing.T) {
	// A crash armed at a fence fires with the fencing thread's writes
	// still in its staging buffer. While the crash waits behind a Drain
	// that is already running, that Drain can still take and commit them,
	// so whatever the Drain's caller stages afterwards (the epoch clock)
	// never outlives writes it was entitled to assume durable.
	d := newDev(t)
	if err := d.WriteBack(1, 64, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	d.ArmCrash(CrashAtFence, 0, CrashDropAll, nil)
	d.drainMu.Lock() // a Drain is in progress
	fenced := make(chan struct{})
	go func() {
		defer close(fenced)
		d.Fence(1)
	}()
	for pending := true; pending; runtime.Gosched() { // wait for the fence to consume the arm...
		d.armMu.Lock()
		pending = d.armed != nil
		d.armMu.Unlock()
	}
	if n := d.PendingWrites(1); n != 1 { // ...it now waits for drainMu
		t.Fatalf("fencing thread has %d staged writes while its crash is pending, want 1", n)
	}
	d.drainMu.Unlock()
	<-fenced
	if !d.Failed() {
		t.Fatal("armed fence crash did not fire")
	}
	if got := readAt(t, d, 64, 1); got[0] != 0 {
		t.Fatal("a write that died in the crash reached the media")
	}
}
