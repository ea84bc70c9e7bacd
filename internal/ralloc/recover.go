package ralloc

import (
	"fmt"
	"sync"

	"montage/internal/payload"
	"montage/internal/pmem"
)

// Block describes one valid payload block found by the recovery sweep.
type Block struct {
	Addr   pmem.Addr
	Header payload.Header
	Data   []byte // copy of the data section; nil for a block that cannot survive
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

// Remove deletes a.
func (s AddrSet) Remove(a pmem.Addr) { w, bit := s.word(a); *w &^= bit }

// Recover rebuilds the heap's transient metadata from the durable arena
// after a crash and returns, in address order, every block that decodes
// as a valid, untorn payload — including blocks from epochs the caller
// will discard. Torn and never-written blocks are treated as free space.
//
// workers parallelizes the sweep across superblocks (the paper's k
// recovery iterators). A block's data is copied while its superblock is
// in cache, and only if the block can survive: labeled at or below cutoff
// and not an anti-payload. The caller (Montage's epoch system) picks the
// newest version per uid, durably invalidates the losers, and calls
// FinishRecovery with the survivors' addresses to rebuild the free lists.
func (h *Heap) Recover(workers int, cutoff uint64) ([]Block, error) {
	if workers < 1 {
		workers = 1
	}
	// Phase 1: rebuild superblock class map from persisted headers, each
	// recorded block size mapped back to its class.
	// Superblock i's blocks go to all[first[i]:], one element per slot it
	// has, so workers never share one.
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
	// superblocks among workers; found[i] of superblock i's slots decode.
	all := make([]Block, first[h.numSB])
	found := make([]int, h.numSB)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, h.sbSize)
			for i := w; i < h.numSB; i += workers {
				cls := h.sbClass[i].Load()
				if cls < 0 {
					continue
				}
				if err := h.dev.Read(w, h.sbAddr(i), buf); err != nil {
					errs[w] = err
					return
				}
				bs := sizeClasses[cls]
				out := all[first[i]:first[i]:first[i+1]]
				for off := sbHeaderSize; off+bs <= h.sbSize; off += bs {
					ph, data, ok := payload.Decode(buf[off : off+bs])
					if !ok {
						continue
					}
					var cp []byte
					if ph.Epoch <= cutoff && ph.Typ != payload.Delete {
						cp = make([]byte, len(data))
						copy(cp, data)
					}
					out = append(out, Block{Addr: h.sbAddr(i) + pmem.Addr(off), Header: ph, Data: cp})
				}
				found[i] = len(out)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Close the gaps invalid slots left.
	n := 0
	for i, k := range found {
		if n != first[i] {
			copy(all[n:], all[first[i]:first[i]+k])
		}
		n += k
	}
	return all[:n], nil
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
