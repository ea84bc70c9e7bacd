package ralloc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"montage/internal/payload"
	"montage/internal/pmem"
)

func newHeap(t *testing.T, arenaSize, maxThreads int) *Heap {
	t.Helper()
	dev := pmem.NewDevice(arenaSize, maxThreads, nil)
	h, err := New(dev, maxThreads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAllocReturnsDistinctBlocks(t *testing.T) {
	h := newHeap(t, 1<<20, 2)
	seen := map[pmem.Addr]bool{}
	for i := 0; i < 500; i++ {
		a, err := h.Alloc(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if a == pmem.NilAddr {
			t.Fatal("nil address returned")
		}
		if seen[a] {
			t.Fatalf("address %d allocated twice", a)
		}
		seen[a] = true
	}
	if h.Live() != 500 {
		t.Fatalf("Live = %d, want 500", h.Live())
	}
}

func TestFreeThenReuse(t *testing.T) {
	h := newHeap(t, 1<<20, 1)
	a, err := h.Alloc(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	h.Free(0, a)
	b, err := h.Alloc(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("thread cache should reuse freed block: got %d, freed %d", b, a)
	}
}

func TestSizeClassCapacity(t *testing.T) {
	h := newHeap(t, 1<<22, 1)
	for _, sz := range []int{0, 1, 32, 64, 100, 500, 1000, 4096, 8000} {
		a, err := h.Alloc(0, sz)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", sz, err)
		}
		if cap := h.DataCapacity(a); cap < sz {
			t.Fatalf("Alloc(%d) returned block with capacity %d", sz, cap)
		}
	}
}

func TestAllocTooLarge(t *testing.T) {
	h := newHeap(t, 1<<20, 1)
	if _, err := h.Alloc(0, 1<<20); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestOutOfMemory(t *testing.T) {
	// Arena fits exactly one superblock after the meta region.
	dev := pmem.NewDevice(MetaRegionSize+DefaultSuperblockSize, 1, nil)
	h, err := New(dev, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the single superblock of 16K-blocks.
	count := 0
	for {
		if _, err := h.Alloc(0, 16000); err != nil {
			break
		}
		count++
		if count > 100 {
			t.Fatal("allocator never ran out")
		}
	}
	if count == 0 {
		t.Fatal("no allocation succeeded")
	}
}

func TestDistinctSizeClassesDistinctSuperblocks(t *testing.T) {
	h := newHeap(t, 1<<20, 1)
	a, err := h.Alloc(0, 32) // class 64
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(0, 2000) // class 2048
	if err != nil {
		t.Fatal(err)
	}
	if h.sbIndex(a) == h.sbIndex(b) {
		t.Fatal("different size classes share a superblock")
	}
	if h.BlockSize(a) == h.BlockSize(b) {
		t.Fatal("block sizes should differ")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	const threads = 8
	h := newHeap(t, 1<<24, threads)
	var wg sync.WaitGroup
	addrs := make([][]pmem.Addr, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a, err := h.Alloc(tid, 100+tid*13)
				if err != nil {
					t.Error(err)
					return
				}
				addrs[tid] = append(addrs[tid], a)
				if i%3 == 0 {
					h.Free(tid, addrs[tid][len(addrs[tid])-1])
					addrs[tid] = addrs[tid][:len(addrs[tid])-1]
				}
			}
		}(tid)
	}
	wg.Wait()
	seen := map[pmem.Addr]bool{}
	for _, list := range addrs {
		for _, a := range list {
			if seen[a] {
				t.Fatalf("block %d handed to two threads", a)
			}
			seen[a] = true
		}
	}
}

// writeBlock persists a payload into a block so the recovery sweep can
// find it.
func writeBlock(t *testing.T, h *Heap, tid int, addr pmem.Addr, hd payload.Header, data []byte) {
	t.Helper()
	buf := make([]byte, payload.EncodedSize(len(data)))
	payload.Encode(buf, hd, data)
	if err := h.Device().WriteBack(tid, addr, buf); err != nil {
		t.Fatal(err)
	}
	h.Device().Fence(tid)
}

func TestRecoverFindsPersistedBlocks(t *testing.T) {
	dev := pmem.NewDevice(1<<20, 2, nil)
	h, err := New(dev, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []pmem.Addr
	for i := 0; i < 20; i++ {
		a, err := h.Alloc(0, 50)
		if err != nil {
			t.Fatal(err)
		}
		writeBlock(t, h, 0, a, payload.Header{Epoch: 5, UID: uint64(i + 1), Typ: payload.Alloc}, []byte{byte(i)})
		want = append(want, a)
	}
	// One block allocated but never persisted: must not be recovered.
	if _, err := h.Alloc(0, 50); err != nil {
		t.Fatal(err)
	}

	dev.Crash(pmem.CrashDropAll)
	h2, err := New(dev, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := sweep(h2, 2, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != len(want) {
		t.Fatalf("recovered %d blocks, want %d", len(blocks), len(want))
	}
	got := map[pmem.Addr]bool{}
	for _, b := range blocks {
		got[b.Addr] = true
		if b.Header.Epoch != 5 || b.Header.Typ != payload.Alloc {
			t.Fatalf("bad recovered header: %+v", b.Header)
		}
	}
	for _, a := range want {
		if !got[a] {
			t.Fatalf("block %d not recovered", a)
		}
	}
}

// sweep runs h.Recover and returns its valid blocks, holes dropped.
func sweep(h *Heap, workers int, cutoff uint64) ([]Block, error) {
	all, err := h.Recover(workers, cutoff, nil)
	var blocks []Block
	for _, b := range all {
		if b.Addr != pmem.NilAddr {
			blocks = append(blocks, b)
		}
	}
	return blocks, err
}

func TestRecoverReportsAllValidBlocks(t *testing.T) {
	dev := pmem.NewDevice(1<<20, 1, nil)
	h, _ := New(dev, 1, Options{})
	aOld, _ := h.Alloc(0, 20)
	aNew, _ := h.Alloc(0, 20)
	writeBlock(t, h, 0, aOld, payload.Header{Epoch: 3, UID: 1, Typ: payload.Alloc}, []byte("old"))
	writeBlock(t, h, 0, aNew, payload.Header{Epoch: 9, UID: 2, Typ: payload.Alloc}, []byte("new"))

	dev.Crash(pmem.CrashDropAll)
	h2, _ := New(dev, 1, Options{})
	blocks, err := sweep(h2, 1, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep reports all valid blocks; the epoch-cutoff filter is the
	// caller's job. Both blocks must be visible with their true epochs.
	if len(blocks) != 2 {
		t.Fatalf("want both valid blocks, got %+v", blocks)
	}
	for _, b := range blocks {
		if b.Addr == aOld && b.Header.Epoch != 3 {
			t.Fatalf("old block epoch = %d", b.Header.Epoch)
		}
		if b.Addr == aNew && b.Header.Epoch != 9 {
			t.Fatalf("new block epoch = %d", b.Header.Epoch)
		}
	}
}

func TestFinishRecoveryRebuildsFreeLists(t *testing.T) {
	dev := pmem.NewDevice(1<<20, 1, nil)
	h, _ := New(dev, 1, Options{})
	a, _ := h.Alloc(0, 20)
	writeBlock(t, h, 0, a, payload.Header{Epoch: 1, UID: 1, Typ: payload.Alloc}, []byte("x"))

	dev.Crash(pmem.CrashDropAll)
	h2, _ := New(dev, 1, Options{})
	blocks, err := sweep(h2, 1, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	inUse := h2.NewAddrSet()
	for _, b := range blocks {
		inUse.Add(b.Addr)
	}
	h2.FinishRecovery(inUse)
	if h2.Live() != 1 {
		t.Fatalf("Live = %d, want 1", h2.Live())
	}
	// Allocating from the recovered heap must never return the in-use
	// block.
	for i := 0; i < 2000; i++ {
		got, err := h2.Alloc(0, 20)
		if err != nil {
			break // exhausted same-class space: fine
		}
		if got == a {
			t.Fatal("recovered in-use block was reallocated")
		}
	}
}

func TestRecoverSkipsTornBlocks(t *testing.T) {
	dev := pmem.NewDevice(1<<20, 1, nil)
	h, _ := New(dev, 1, Options{})
	a, _ := h.Alloc(0, 20)
	buf := make([]byte, payload.EncodedSize(3))
	payload.Encode(buf, payload.Header{Epoch: 1, UID: 1, Typ: payload.Alloc}, []byte{1, 2, 3})
	buf[len(buf)-1] ^= 0xFF // corrupt data: simulated torn line
	if err := dev.WriteDurable(a, buf); err != nil {
		t.Fatal(err)
	}
	h2, _ := New(dev, 1, Options{})
	blocks, err := sweep(h2, 1, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 0 {
		t.Fatalf("torn block recovered: %+v", blocks)
	}
}

func TestRecoverParallelWorkersEquivalent(t *testing.T) {
	dev := pmem.NewDevice(1<<22, 4, nil)
	h, _ := New(dev, 4, Options{})
	for i := 0; i < 200; i++ {
		a, err := h.Alloc(i%4, 200)
		if err != nil {
			t.Fatal(err)
		}
		writeBlock(t, h, i%4, a, payload.Header{Epoch: 2, UID: uint64(i + 1), Typ: payload.Alloc}, []byte{byte(i)})
	}
	count := func(workers int) int {
		h2, _ := New(dev, 4, Options{})
		blocks, err := sweep(h2, workers, math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		return len(blocks)
	}
	if c1, c4 := count(1), count(4); c1 != 200 || c4 != 200 {
		t.Fatalf("worker counts differ: 1 worker -> %d, 4 workers -> %d", c1, c4)
	}
}

func TestPropertyAllocAlignmentAndBounds(t *testing.T) {
	h := newHeap(t, 1<<22, 1)
	f := func(sizes []uint16) bool {
		for _, s := range sizes {
			sz := int(s) % 8000
			a, err := h.Alloc(0, sz)
			if err != nil {
				return true // exhaustion acceptable
			}
			if a == pmem.NilAddr || a%8 != 0 {
				return false
			}
			if int(a)+payload.EncodedSize(sz) > h.Device().Size() {
				return false
			}
			if h.DataCapacity(a) < sz {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllocFreeConservation(t *testing.T) {
	// live + free is invariant across alloc/free within carved space.
	h := newHeap(t, 1<<21, 1)
	var addrs []pmem.Addr
	for i := 0; i < 100; i++ {
		a, err := h.Alloc(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	total := int(h.Live()) + h.FreeCount()
	for _, a := range addrs[:50] {
		h.Free(0, a)
	}
	if got := int(h.Live()) + h.FreeCount(); got != total {
		t.Fatalf("conservation violated: %d != %d", got, total)
	}
}

// TestRecoverOrderAndDataAcrossWorkers: whatever the worker count, the
// sweep reports the same blocks in address order, and gives data only to
// a block that can survive the cutoff — a view of the arena, capped at
// its length.
func TestRecoverOrderAndDataAcrossWorkers(t *testing.T) {
	dev := pmem.NewDevice(1<<22, 4, nil)
	h, _ := New(dev, 4, Options{})
	const cutoff = 5
	for i := 0; i < 1500; i++ { // several superblocks of two classes
		hd := payload.Header{Epoch: uint64(3 + i%4), UID: uint64(i + 1), Typ: payload.Alloc}
		if i%7 == 0 {
			hd.Typ = payload.Delete
		}
		a, err := h.Alloc(0, 40+i%2*200)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 != 0 { // every fifth slot stays unwritten: a gap to close
			writeBlock(t, h, 0, a, hd, bytes.Repeat([]byte{byte(i)}, 40+i%2*200))
		}
	}
	var want []Block
	for _, workers := range []int{1, 3, 8} {
		h2, _ := New(dev, 4, Options{})
		got, err := sweep(h2, workers, cutoff)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if i > 0 && got[i-1].Addr >= b.Addr {
				t.Fatalf("workers %d: block %d out of address order", workers, i)
			}
			if canSurvive := b.Header.Epoch <= cutoff && b.Header.Typ != payload.Delete; (b.Data != nil) != canSurvive {
				t.Fatalf("workers %d: block %+v: data copied %v, can survive %v", workers, b.Header, b.Data != nil, canSurvive)
			}
			if b.Data != nil && (len(b.Data) != int(b.Header.Size) || b.Data[0] != byte(b.Header.UID-1)) {
				t.Fatalf("workers %d: block %+v carries the wrong data", workers, b.Header)
			}
			if b.Data != nil && (cap(b.Data) != len(b.Data) || !dev.Aliases(b.Data)) {
				t.Fatalf("workers %d: block %+v: data is not a capped view of the arena", workers, b.Header)
			}
		}
		if want == nil {
			want = got
		}
		if len(got) != 1200 || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: %d blocks, differing from the one-worker sweep (%d)", workers, len(got), len(want))
		}
	}
}

// TestAddrSetOneBitPerBlock: blocks of every size class, the five that
// are no multiple of 64 (80, 96, 112, 160, 224) included, land on bits
// of their own. Each class fills one superblock and starts a second.
func TestAddrSetOneBitPerBlock(t *testing.T) {
	h := newHeap(t, 1<<23, 1)
	set := h.NewAddrSet()
	var addrs []pmem.Addr
	for _, bs := range sizeClasses {
		size := bs - payload.HeaderSize
		for i := 0; i <= (DefaultSuperblockSize-sbHeaderSize)/bs; i++ {
			a, err := h.Alloc(0, size)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.BlockSize(a); got != bs {
				t.Fatalf("data size %d landed in a %d-byte block, want %d", size, got, bs)
			}
			if set.Has(a) {
				t.Fatalf("block %d (class %d) shares a bit with an earlier block", a, bs)
			}
			set.Add(a)
			addrs = append(addrs, a)
		}
	}
	for _, a := range addrs {
		if !set.Has(a) {
			t.Fatalf("block %d: lost its bit", a)
		}
	}
}

// TestSizeClassTable pins the table's shape: strictly increasing,
// multiples of 16 from 64 up (AddrSet's one bit per 64 B needs the
// floor), each fitting a default superblock after its header, and no
// request above 64 B given a block of 1.25× its size or more.
func TestSizeClassTable(t *testing.T) {
	for i, c := range sizeClasses {
		if i > 0 && c <= sizeClasses[i-1] {
			t.Fatalf("class %d (%d B) does not exceed class %d (%d B)", i, c, i-1, sizeClasses[i-1])
		}
		if c%16 != 0 || c < 64 {
			t.Fatalf("class %d is %d B: not a multiple of 16 of at least 64", i, c)
		}
		if c > DefaultSuperblockSize-sbHeaderSize {
			t.Fatalf("class %d (%d B) does not fit a superblock after its header", i, c)
		}
	}
	max := sizeClasses[len(sizeClasses)-1]
	for n := 65; n <= max; n++ {
		if bs := sizeClasses[classFor(n)]; 4*bs >= 5*n {
			t.Fatalf("a %d-byte request takes a %d-byte block: not under 1.25x", n, bs)
		}
	}
}

// TestRecoverRejectsUnknownBlockSize: a superblock header with the magic
// but a block size that is no class of this table — a class index as an
// older format wrote it (9 was 1536 B), a size between classes, zero, one
// larger than a superblock — fails recovery with ErrBadSuperblock naming
// the superblock, instead of sweeping it at the wrong stride and losing
// its blocks.
func TestRecoverRejectsUnknownBlockSize(t *testing.T) {
	for _, bad := range []uint32{9, 1000, 0, 1 << 20} {
		dev := pmem.NewDevice(1<<20, 1, nil)
		h, _ := New(dev, 1, Options{})
		// A small block first, so the 1 KB payloads' superblock is not
		// superblock 0 and the error must name the right one.
		small, _ := h.Alloc(0, 20)
		writeBlock(t, h, 0, small, payload.Header{Epoch: 1, UID: 1, Typ: payload.Alloc}, []byte("x"))
		data := bytes.Repeat([]byte("k"), 1024)
		var first pmem.Addr
		for i := 0; i < 10; i++ {
			a, err := h.Alloc(0, len(data))
			if err != nil {
				t.Fatal(err)
			}
			writeBlock(t, h, 0, a, payload.Header{Epoch: 1, UID: uint64(i + 2), Typ: payload.Alloc}, data)
			if i == 0 {
				first = a
			}
		}
		idx := h.sbIndex(first)
		if idx == h.sbIndex(small) || h.BlockSize(first) != 1280 {
			t.Fatalf("test setup: 1 KB payloads in superblock %d with %d-byte blocks", idx, h.BlockSize(first))
		}
		var field [4]byte
		putU32(field[:], bad)
		if err := dev.WriteDurable(h.sbAddr(idx)+4, field[:]); err != nil {
			t.Fatal(err)
		}

		dev.Crash(pmem.CrashDropAll)
		h2, _ := New(dev, 1, Options{})
		blocks, err := sweep(h2, 2, math.MaxUint64)
		if !errors.Is(err, ErrBadSuperblock) {
			t.Fatalf("size field %d: Recover = %d blocks, err %v; want ErrBadSuperblock", bad, len(blocks), err)
		}
		if want := fmt.Sprintf("superblock %d records block size %d", idx, bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("size field %d: error %q does not say %q", bad, err, want)
		}
	}
}
