package ralloc

import (
	"fmt"
	"sync"

	"montage/internal/payload"
	"montage/internal/pmem"
)

// Block is one block slot of the recovery sweep. A slot that holds no
// valid payload is a hole: its Addr is NilAddr.
type Block struct {
	Addr   pmem.Addr
	Header payload.Header
	// Data is the data section, in place in the arena (a pmem View,
	// capacity-capped at its length); nil for a block that cannot survive.
	Data []byte
}

// AddrSet is a set of block addresses: one bit per 64 bytes of arena
// above the metadata region. 64 bytes is the smallest size class, so two
// block starts are at least that far apart and never share a bit.
type AddrSet []uint64

// NewAddrSet returns an empty set sized for h's arena.
func (h *Heap) NewAddrSet() AddrSet {
	return make(AddrSet, (h.numSB*h.sbSize/sizeClasses[0]+63)/64)
}

func (s AddrSet) word(a pmem.Addr) (*uint64, uint64) {
	i := uint(a-MetaRegionSize) / uint(sizeClasses[0])
	return &s[i/64], 1 << (i % 64)
}

// Has reports whether a is in the set.
func (s AddrSet) Has(a pmem.Addr) bool { w, bit := s.word(a); return *w&bit != 0 }

// Add inserts a.
func (s AddrSet) Add(a pmem.Addr) { w, bit := s.word(a); *w |= bit }

// Recover rebuilds the heap's transient metadata from the durable arena
// after a crash and returns one Block per block slot of every carved
// superblock, in address order: every slot that decodes as a valid,
// untorn payload — including blocks from epochs the caller will discard
// — and a hole for every other one. Torn and never-written blocks are
// treated as free space.
//
// workers parallelizes the sweep across superblocks (the paper's k
// recovery iterators). Each superblock is read through one pmem View, so
// no byte is copied: a block's Data is its data section in the arena,
// set only if the block can survive (labeled at or below cutoff and not
// an anti-payload). If visit is not nil, sweep worker w (0 <= w <
// workers) calls it for each valid block with the block's index in the
// result, so the caller can sort blocks while they are in cache. The
// caller (Montage's epoch system) picks the newest version per uid,
// durably invalidates the losers, and calls FinishRecovery with the
// survivors' addresses to rebuild the free lists.
func (h *Heap) Recover(workers int, cutoff uint64, visit func(w, i int, b *Block)) ([]Block, error) {
	if workers < 1 {
		workers = 1
	}
	// Phase 1: rebuild superblock class map from persisted headers, each
	// recorded block size mapped back to its class.
	// Superblock i's slots are all[first[i]:first[i+1]], so workers never
	// share one.
	hdr := make([]byte, sbHeaderSize)
	first := make([]int, h.numSB+1)
	for i := 0; i < h.numSB; i++ {
		if err := h.dev.Read(0, h.sbAddr(i), hdr); err != nil {
			return nil, err
		}
		first[i+1] = first[i]
		if getU32(hdr[0:]) != sbMagic {
			h.sbClass[i].Store(-1)
			continue
		}
		bs := int(getU32(hdr[4:]))
		cls := classFor(bs)
		if cls < 0 || sizeClasses[cls] != bs || bs > h.sbSize-sbHeaderSize {
			return nil, fmt.Errorf("%w: superblock %d records block size %d", ErrBadSuperblock, i, bs)
		}
		h.sbClass[i].Store(int32(cls))
		first[i+1] += (h.sbSize - sbHeaderSize) / bs
		if i >= int(h.nextSB.Load()) {
			h.nextSB.Store(int64(i + 1))
		}
	}

	// Phase 2: sweep blocks in parallel, cyclically distributing
	// superblocks among workers.
	all := make([]Block, first[h.numSB])
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < h.numSB; i += workers {
				cls := h.sbClass[i].Load()
				if cls < 0 {
					continue
				}
				sb, err := h.dev.View(w, h.sbAddr(i), h.sbSize)
				if err != nil {
					errs[w] = err
					return
				}
				bs := sizeClasses[cls]
				j := first[i]
				for off := sbHeaderSize; off+bs <= h.sbSize; off, j = off+bs, j+1 {
					ph, data, ok := payload.Decode(sb[off : off+bs])
					if !ok {
						continue
					}
					b := &all[j]
					b.Addr, b.Header = h.sbAddr(i)+pmem.Addr(off), ph
					if ph.Epoch <= cutoff && ph.Typ != payload.Delete {
						b.Data = data[:len(data):len(data)]
					}
					if visit != nil {
						visit(w, j, b)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return all, nil
}

// FinishRecovery rebuilds the free lists: every block slot in every
// initialized superblock whose address is not in inUse becomes free.
// It also resets the live-block counter.
func (h *Heap) FinishRecovery(inUse AddrSet) {
	for i := range h.central {
		h.central[i].mu.Lock()
		h.central[i].free = h.central[i].free[:0]
		h.central[i].mu.Unlock()
	}
	for i := range h.caches {
		for c := range h.caches[i].classes {
			h.caches[i].classes[c] = nil
		}
	}
	var live int64
	for i := 0; i < h.numSB; i++ {
		cls := h.sbClass[i].Load()
		if cls < 0 {
			continue
		}
		bs := sizeClasses[cls]
		n := (h.sbSize - sbHeaderSize) / bs
		cl := &h.central[cls]
		cl.mu.Lock()
		for b := 0; b < n; b++ {
			addr := h.sbAddr(i) + pmem.Addr(sbHeaderSize+b*bs)
			if inUse.Has(addr) {
				live++
			} else {
				cl.free = append(cl.free, addr)
			}
		}
		cl.mu.Unlock()
	}
	h.allocated.Store(live)
}
