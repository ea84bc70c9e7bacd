package pmem

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"montage/internal/simclock"
)

// TestWriteBackCoalescesSameBlock pins the combining contract: repeated
// write-backs of one block by one thread occupy a single staged slot,
// the newest data wins, and the staged-entry count (what a Fence will
// commit) stays one.
func TestWriteBackCoalescesSameBlock(t *testing.T) {
	d := NewDevice(1<<16, 1, nil)
	const addr = Addr(64)
	for i := 0; i < 10; i++ {
		if err := d.WriteBack(0, addr, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.PendingWrites(0); got != 1 {
		t.Fatalf("10 write-backs of one block staged %d entries, want 1", got)
	}
	d.Fence(0)
	got := make([]byte, 32)
	if err := d.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{9}, 32)) {
		t.Fatalf("durable block = %v, want all 9s (newest write)", got[:4])
	}
}

// TestDrainGlobalWriteOrder is the ordering regression test: many
// threads interleave write-backs to one overlapping address set, and the
// drain must leave each block holding its globally newest write — the
// issue order across threads, not any per-thread or per-batch order.
func TestDrainGlobalWriteOrder(t *testing.T) {
	const threads = 8
	d := NewDevice(1<<20, threads, nil)
	addrs := make([]Addr, 128)
	for i := range addrs {
		addrs[i] = Addr(64 + 64*i)
	}
	// A deterministic interleaving: each step picks a thread and a
	// block, so every block accumulates staged entries on several
	// threads with interleaved sequence stamps.
	r := rand.New(rand.NewSource(3))
	want := make(map[Addr]byte)
	for i := 0; i < 4096; i++ {
		tid := r.Intn(threads)
		a := addrs[r.Intn(len(addrs))]
		v := byte(i)
		if err := d.WriteBack(tid, a, bytes.Repeat([]byte{v}, 64)); err != nil {
			t.Fatal(err)
		}
		want[a] = v
	}
	d.Drain(simclock.DaemonTID)
	got := make([]byte, 64)
	for a, v := range want {
		if err := d.Read(0, a, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{v}, 64)) {
			t.Fatalf("block %d = %d..., want %d (globally newest write)",
				a, got[0], v)
		}
	}
}

// TestCrashPartialOrderIndependentOfThreadLayout verifies that partial
// crash sampling walks the coalesced staged set in global sequence
// order: the same logical write sequence issued from different thread
// layouts — and with or without extra absorbed stores per block — maps
// a fixed seed to the same persist/drop decisions, so the surviving
// arena image is identical.
func TestCrashPartialOrderIndependentOfThreadLayout(t *testing.T) {
	const blocks = 64
	run := func(layout func(i int) int, dupStores bool) []byte {
		d := NewDevice(1<<16, 4, nil)
		d.SeedCrashRNG(7)
		for i := 0; i < blocks; i++ {
			a := Addr(64 + 64*i)
			tid := layout(i)
			if dupStores {
				// An extra store the combining buffer absorbs: it must not
				// consume a sampling decision of its own.
				if err := d.WriteBack(tid, a, bytes.Repeat([]byte{0xee}, 32)); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.WriteBack(tid, a, bytes.Repeat([]byte{byte(i + 1)}, 32)); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash(CrashPartial)
		return d.Snapshot()
	}

	base := run(func(i int) int { return 0 }, false)
	for name, img := range map[string][]byte{
		"round-robin":     run(func(i int) int { return i % 4 }, false),
		"halves":          run(func(i int) int { return i / (blocks / 2) }, false),
		"with-dup-stores": run(func(i int) int { return 0 }, true),
		"dup-round-robin": run(func(i int) int { return (i + 1) % 4 }, true),
	} {
		if !bytes.Equal(base, img) {
			t.Fatalf("%s: crash sampling depended on thread layout or absorbed stores", name)
		}
	}
}

// TestSteadyStateWriteBackZeroAllocs asserts the pooling contract: once
// a thread's staging pool is warm, the WriteBack+Fence cycle allocates
// nothing, and neither does an epoch advance's device work: the daemon's
// Drain of every thread's staged blocks, then its one-block clock fence.
func TestSteadyStateWriteBackZeroAllocs(t *testing.T) {
	d := NewDevice(1<<16, 1, nil)
	addrs := make([]Addr, 8)
	for i := range addrs {
		addrs[i] = Addr(64 + 512*i)
	}
	data := bytes.Repeat([]byte{0xab}, 256)
	cycle := func() {
		for _, a := range addrs {
			if err := d.WriteBack(0, a, data); err != nil {
				t.Fatal(err)
			}
		}
		d.Fence(0)
	}
	for i := 0; i < 3; i++ { // warm the pool, batch arrays, and seq maps
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state WriteBack+Fence allocates %.1f/op, want 0", n)
	}

	const threads, perThr = 8, 64
	dd := NewDevice(1<<20, threads, nil)
	drain := func() {
		for tid := 0; tid < threads; tid++ {
			for w := 0; w < perThr; w++ {
				if err := dd.WriteBack(tid, Addr(64+256*(tid*perThr+w)), data); err != nil {
					t.Fatal(err)
				}
			}
		}
		for w := 0; w < perThr; w++ {
			if err := dd.WriteBack(simclock.DaemonTID, Addr(64+256*(threads*perThr+w)), data); err != nil {
				t.Fatal(err)
			}
		}
		dd.Drain(simclock.DaemonTID)
		if err := dd.WriteBack(simclock.DaemonTID, 32, data[:8]); err != nil {
			t.Fatal(err)
		}
		dd.Fence(simclock.DaemonTID)
	}
	for i := 0; i < 3; i++ {
		drain()
	}
	if n := mallocsPerRun(100, drain); n != 0 {
		t.Fatalf("steady-state Drain of %d threads x %d blocks and a clock fence allocates %d/op, want 0", threads, perThr, n)
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS=1 pin: a
// Drain that handed its batch to other goroutines would allocate only
// when more than one processor is available. Like AllocsPerRun it
// rounds down, so a stray allocation elsewhere in the process is not
// charged to f.
func mallocsPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// fillEncoder is a trivial Encoder for the zero-alloc test.
type fillEncoder struct{ v byte }

func (e *fillEncoder) PEncodeInto(dst []byte) {
	for i := range dst {
		dst[i] = e.v
	}
}

// TestSteadyStateWriteBackEncodedZeroAllocs covers the payload flush
// path: serializing through an Encoder interface into the pooled
// staging buffer must not allocate either.
func TestSteadyStateWriteBackEncodedZeroAllocs(t *testing.T) {
	d := NewDevice(1<<16, 1, nil)
	enc := &fillEncoder{v: 0x5a}
	cycle := func() {
		for i := 0; i < 8; i++ {
			if err := d.WriteBackEncoded(0, Addr(64+512*i), 256, enc); err != nil {
				t.Fatal(err)
			}
		}
		d.Fence(0)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state WriteBackEncoded+Fence allocates %.1f/op, want 0", n)
	}
}

// TestConcurrentCombiningWithCrashingDaemon hammers the combining
// buffers from concurrent writers while a daemon drains and injects
// partial crashes. Under -race it checks the locking discipline of the
// steal/commit/recycle pipeline; in any mode it checks that blocks are
// never torn: every writer stores a full block of one repeated byte, so
// whatever survives must be uniform.
func TestConcurrentCombiningWithCrashingDaemon(t *testing.T) {
	const (
		threads   = 4
		blocks    = 64
		blockSize = 64
		iters     = 400
	)
	d := NewDevice(1<<20, threads, nil)
	d.SeedCrashRNG(42)

	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(tid)))
			buf := make([]byte, blockSize)
			for i := 0; i < iters; i++ {
				a := Addr(64 + blockSize*r.Intn(blocks))
				v := byte(tid*iters + i)
				for j := range buf {
					buf[j] = v
				}
				if err := d.WriteBack(tid, a, buf); err != nil {
					t.Error(err)
					return
				}
				switch i % 8 {
				case 3:
					d.Fence(tid)
				case 5:
					if err := d.Read(tid, a, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(tid)
	}

	stop := make(chan struct{})
	daemonDone := make(chan struct{})
	go func() {
		defer close(daemonDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.Drain(simclock.DaemonTID)
			if i%3 == 2 {
				d.Crash(CrashPartial)
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-daemonDone
	d.Drain(simclock.DaemonTID)

	got := make([]byte, blockSize)
	for i := 0; i < blocks; i++ {
		a := Addr(64 + blockSize*i)
		if err := d.Read(0, a, got); err != nil {
			t.Fatal(err)
		}
		for j := 1; j < blockSize; j++ {
			if got[j] != got[0] {
				t.Fatalf("block %d torn: byte 0 = %#x, byte %d = %#x", a, got[0], j, got[j])
			}
		}
	}
}

// TestFenceCostForgetsBulkBatch pins the O(staged) steal: once a
// 100 k-entry batch has been fenced, a one-block WriteBack+Fence must
// cost within 2x of the same cycle on a fresh device. With a steal that
// clears the whole staging index the ratio is in the hundreds.
func TestFenceCostForgetsBulkBatch(t *testing.T) {
	fresh := NewDevice(8<<20, 1, nil)
	bulk := NewDevice(8<<20, 1, nil)
	fenceBulk(t, bulk)
	// Best of several short trials per device, interleaved, so that a
	// scheduling hiccup lands on neither side's figure.
	best := func(d *Device, prev time.Duration) time.Duration {
		const cycles = 2000
		t0 := time.Now()
		for i := 0; i < cycles; i++ {
			oneBlockCycle(t, d)
		}
		if el := time.Since(t0); prev == 0 || el < prev {
			return el
		}
		return prev
	}
	var tf, tb time.Duration
	for trial := 0; trial < 7; trial++ {
		tf = best(fresh, tf)
		tb = best(bulk, tb)
	}
	t.Logf("one-block fence: %v per 2000 cycles after a bulk batch, %v fresh (%.2fx)", tb, tf, float64(tb)/float64(tf))
	if tb > 2*tf {
		t.Fatalf("one-block fence after a bulk batch: %v per 2000 cycles, fresh device %v (want within 2x)", tb, tf)
	}
}
