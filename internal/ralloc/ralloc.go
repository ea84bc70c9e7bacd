// Package ralloc implements a persistent-memory block allocator modeled on
// Ralloc (Cai et al., ISMM '20), the lock-free allocator Montage is built
// on.
//
// Like Ralloc, almost all metadata is transient: free lists and per-thread
// caches live in ordinary Go memory and are rebuilt after a crash by a
// garbage-collection-style sweep of the arena. The only persistent
// metadata is a small per-superblock header recording the superblock's
// block size in bytes, written (and made durable) once when the
// superblock is first carved. Allocation and deallocation therefore
// perform no write-backs and no fences — the property that makes Ralloc fast and that Montage's
// two-epoch reclamation discipline depends on.
//
// The arena is divided into fixed-size superblocks; each superblock serves
// blocks of a single size class. The recovery sweep walks every
// initialized superblock, decodes each block slot as a Montage payload,
// and reports the valid ones to the caller (Montage's epoch system), which
// decides which survive; everything else is returned to the free lists.
package ralloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"montage/internal/obs"
	"montage/internal/payload"
	"montage/internal/pmem"
	"montage/internal/simclock"
)

// MetaRegionSize is the number of bytes reserved at the start of the
// arena for system metadata (the persistent epoch clock and pool header).
// Superblocks start immediately after it.
const MetaRegionSize = 4096

// EpochClockAddr is the fixed arena offset of the persistent epoch clock
// (8 bytes, little endian).
const EpochClockAddr pmem.Addr = 64

// sbHeaderSize is the persisted header at the start of every superblock:
// sbMagic in bytes 0–3 and the block size in bytes, not a class index, in
// bytes 4–7 (both little endian); the rest is zero. Recording the size
// keeps an image readable only by a binary whose table has that exact
// class, so a table change cannot make recovery slice a superblock at
// the wrong stride.
const sbHeaderSize = 64

// sbMagic marks an initialized superblock header.
const sbMagic uint32 = 0x53424c4b // "SBLK"

// DefaultSuperblockSize is the default superblock size in bytes.
const DefaultSuperblockSize = 64 << 10

// sizeClasses are the supported block sizes (header + data), in bytes:
// jemalloc's spacing (also LRMalloc's, Ralloc's lineage), four classes
// per doubling from 64 to 16384, so a block is less than 1.25× any
// request above 64 B. Each is a multiple of 16, at least 64 (AddrSet's
// one bit per 64 B relies on it) and fits a default superblock after its
// header (TestSizeClassTable).
var sizeClasses = [...]int{
	64, 80, 96, 112,
	128, 160, 192, 224,
	256, 320, 384, 448,
	512, 640, 768, 896,
	1024, 1280, 1536, 1792,
	2048, 2560, 3072, 3584,
	4096, 5120, 6144, 7168,
	8192, 10240, 12288, 14336,
	16384,
}

// ErrOutOfMemory reports arena exhaustion.
var ErrOutOfMemory = errors.New("ralloc: out of persistent memory")

// ErrTooLarge reports an allocation request above the largest size class.
var ErrTooLarge = errors.New("ralloc: allocation exceeds largest size class")

// ErrBadSuperblock reports a superblock header that carries the magic but
// a block size that is no size class of this binary's table (or does not
// fit the superblock): an image written under another table, or a corrupt
// header. Recovering around it would lose every block it holds.
var ErrBadSuperblock = errors.New("ralloc: bad superblock header")

// classLUT maps ceil(n/8) to the index of the smallest size class that
// holds n bytes. Size classes are multiples of 16, so 8-byte granularity
// is exact, and the table keeps classFor — on the critical path of every
// Alloc and Free — to a bounds check and one load instead of a scan.
var classLUT [16384/8 + 1]int8

func init() {
	c := 0
	for i := range classLUT {
		for sizeClasses[c] < i*8 {
			c++
		}
		classLUT[i] = int8(c)
	}
}

// classFor returns the index of the smallest size class that can hold n
// bytes, or -1.
func classFor(n int) int {
	if uint(n) > uint(sizeClasses[len(sizeClasses)-1]) {
		return -1
	}
	return int(classLUT[(n+7)/8])
}

// threadCacheMax is how many free blocks a per-thread cache holds per
// class before spilling half to the central list.
const threadCacheMax = 64

type centralList struct {
	mu   sync.Mutex
	free []pmem.Addr
}

type threadCache struct {
	classes [][]pmem.Addr // one stack per size class
	_       [40]byte      // avoid false sharing between caches
}

// Heap is the allocator over one pmem.Device.
type Heap struct {
	dev    *pmem.Device
	clk    *simclock.Clock
	sbSize int

	numSB   int
	nextSB  atomic.Int64 // next never-carved superblock index
	sbClass []atomic.Int32

	central []centralList // per size class
	caches  []threadCache // per thread (+1 daemon)

	allocated atomic.Int64 // live blocks, for stats/tests
	stats     obs.Holder
}

// Options configures heap construction.
type Options struct {
	// SuperblockSize overrides DefaultSuperblockSize.
	SuperblockSize int
}

// New creates a heap managing dev's arena for up to maxThreads workers.
// The arena below MetaRegionSize is left to the caller (epoch clock).
func New(dev *pmem.Device, maxThreads int, opts Options) (*Heap, error) {
	sbSize := opts.SuperblockSize
	if sbSize == 0 {
		sbSize = DefaultSuperblockSize
	}
	if sbSize <= sbHeaderSize+sizeClasses[0] {
		return nil, fmt.Errorf("ralloc: superblock size %d too small", sbSize)
	}
	usable := dev.Size() - MetaRegionSize
	if usable < sbSize {
		return nil, fmt.Errorf("ralloc: arena too small for one superblock")
	}
	if maxThreads < 1 {
		maxThreads = 1
	}
	h := &Heap{
		dev:     dev,
		clk:     dev.Clock(),
		sbSize:  sbSize,
		numSB:   usable / sbSize,
		central: make([]centralList, len(sizeClasses)),
		caches:  make([]threadCache, maxThreads+1),
	}
	h.sbClass = make([]atomic.Int32, h.numSB)
	for i := range h.sbClass {
		h.sbClass[i].Store(-1)
	}
	for i := range h.caches {
		h.caches[i].classes = make([][]pmem.Addr, len(sizeClasses))
	}
	// Inherit any recorder already attached to the device, so a heap built
	// over an instrumented device is instrumented from its first Alloc.
	h.stats.Set(dev.Recorder())
	return h, nil
}

// Device returns the underlying device.
func (h *Heap) Device() *pmem.Device { return h.dev }

// SetRecorder attaches an observability recorder; Alloc, Free, and
// superblock carving report their counts to it.
func (h *Heap) SetRecorder(r *obs.Recorder) { h.stats.Set(r) }

// Recorder returns the attached observability recorder, or nil.
func (h *Heap) Recorder() *obs.Recorder { return h.stats.Get() }

// Live returns the number of currently allocated blocks.
func (h *Heap) Live() int64 { return h.allocated.Load() }

func (h *Heap) sbAddr(idx int) pmem.Addr {
	return pmem.Addr(MetaRegionSize + idx*h.sbSize)
}

func (h *Heap) sbIndex(addr pmem.Addr) int {
	return (int(addr) - MetaRegionSize) / h.sbSize
}

// BlockSize returns the full block size (header + data capacity) of the
// block at addr.
func (h *Heap) BlockSize(addr pmem.Addr) int {
	cls := h.sbClass[h.sbIndex(addr)].Load()
	return sizeClasses[cls]
}

// DataCapacity returns the data capacity of the block at addr.
func (h *Heap) DataCapacity(addr pmem.Addr) int {
	return h.BlockSize(addr) - payload.HeaderSize
}

func (h *Heap) cache(tid int) *threadCache {
	if tid == simclock.DaemonTID {
		return &h.caches[len(h.caches)-1]
	}
	return &h.caches[tid]
}

// Alloc returns a block whose data capacity is at least dataSize bytes.
// No persistence work is performed: the block's contents become durable
// only when the epoch system writes the payload back.
func (h *Heap) Alloc(tid int, dataSize int) (pmem.Addr, error) {
	addr, err := h.alloc(tid, dataSize)
	if err == nil {
		if rec := h.stats.Get(); rec != nil {
			rec.Inc(tid, obs.CAllocs)
			rec.Add(tid, obs.CAllocBytes, uint64(h.BlockSize(addr)))
		}
	}
	return addr, err
}

func (h *Heap) alloc(tid int, dataSize int) (pmem.Addr, error) {
	need := payload.EncodedSize(dataSize)
	cls := classFor(need)
	if cls < 0 || sizeClasses[cls] > h.sbSize-sbHeaderSize {
		return pmem.NilAddr, fmt.Errorf("%w: %d bytes", ErrTooLarge, dataSize)
	}
	h.clk.ChargeAlloc(tid)

	tc := h.cache(tid)
	if s := tc.classes[cls]; len(s) > 0 {
		addr := s[len(s)-1]
		tc.classes[cls] = s[:len(s)-1]
		h.allocated.Add(1)
		return addr, nil
	}

	// Refill from the central list.
	cl := &h.central[cls]
	cl.mu.Lock()
	if n := len(cl.free); n > 0 {
		take := threadCacheMax / 2
		if take > n {
			take = n
		}
		tc.classes[cls] = append(tc.classes[cls], cl.free[n-take:]...)
		cl.free = cl.free[:n-take]
		cl.mu.Unlock()
		s := tc.classes[cls]
		addr := s[len(s)-1]
		tc.classes[cls] = s[:len(s)-1]
		h.allocated.Add(1)
		return addr, nil
	}
	cl.mu.Unlock()

	// Carve a fresh superblock.
	if err := h.carve(tid, cls); err != nil {
		return pmem.NilAddr, err
	}
	return h.alloc(tid, dataSize)
}

// carve initializes the next free superblock for size class cls and
// pushes its blocks onto the central free list.
func (h *Heap) carve(tid int, cls int) error {
	idx := int(h.nextSB.Add(1)) - 1
	if idx >= h.numSB {
		return ErrOutOfMemory
	}
	base := h.sbAddr(idx)
	var hdr [sbHeaderSize]byte
	bs := sizeClasses[cls]
	putU32(hdr[0:], sbMagic)
	putU32(hdr[4:], uint32(bs))
	// The header is persisted eagerly (one write-back + fence per
	// superblock lifetime, amortized over thousands of allocations).
	if err := h.dev.WriteDurable(base, hdr[:]); err != nil {
		return err
	}
	h.sbClass[idx].Store(int32(cls))
	h.stats.Get().Inc(tid, obs.CCarves)

	n := (h.sbSize - sbHeaderSize) / bs
	blocks := make([]pmem.Addr, 0, n)
	for i := 0; i < n; i++ {
		blocks = append(blocks, base+pmem.Addr(sbHeaderSize+i*bs))
	}
	cl := &h.central[cls]
	cl.mu.Lock()
	cl.free = append(cl.free, blocks...)
	cl.mu.Unlock()
	return nil
}

// Free returns a block to the allocator. Callers (the Montage epoch
// system) must only free blocks whose contents are no longer needed for
// recovery; the two-epoch reclamation delay guarantees this.
func (h *Heap) Free(tid int, addr pmem.Addr) {
	cls := int(h.sbClass[h.sbIndex(addr)].Load())
	h.clk.ChargeAlloc(tid)
	if rec := h.stats.Get(); rec != nil {
		rec.Inc(tid, obs.CFrees)
		rec.Add(tid, obs.CFreeBytes, uint64(sizeClasses[cls]))
	}
	tc := h.cache(tid)
	tc.classes[cls] = append(tc.classes[cls], addr)
	h.allocated.Add(-1)
	if len(tc.classes[cls]) > threadCacheMax {
		spill := tc.classes[cls][:threadCacheMax/2]
		rest := tc.classes[cls][threadCacheMax/2:]
		cl := &h.central[cls]
		cl.mu.Lock()
		cl.free = append(cl.free, spill...)
		cl.mu.Unlock()
		tc.classes[cls] = append([]pmem.Addr(nil), rest...)
	}
}

// FreeCount reports the total number of blocks on free lists (central +
// all caches). Intended for tests; not linearizable against concurrent
// allocation.
func (h *Heap) FreeCount() int {
	n := 0
	for i := range h.central {
		h.central[i].mu.Lock()
		n += len(h.central[i].free)
		h.central[i].mu.Unlock()
	}
	for i := range h.caches {
		for _, s := range h.caches[i].classes {
			n += len(s)
		}
	}
	return n
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
