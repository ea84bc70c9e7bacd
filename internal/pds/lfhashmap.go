package pds

import (
	"sync"

	"montage/internal/core"
)

// TagLFHashMap is the default tag of LFHashMap payloads.
const TagLFHashMap uint16 = 8

// LFHashMap is a nonblocking Montage hashmap: a fixed array of buckets,
// each an LFSet-style lock-free sorted list. It combines the hashmap's
// O(1) expected lookups with Section 3.3's epoch-verified linearization,
// completing the paper's "nonblocking linked lists, queues, and maps"
// set.
type LFHashMap struct {
	sys     *core.System
	tag     uint16
	buckets []*LFSet
	mask    uint64
}

// NewLFHashMap creates a nonblocking map with nBuckets buckets (rounded
// up to a power of two) carrying the default TagLFHashMap.
func NewLFHashMap(sys *core.System, nBuckets int) *LFHashMap {
	return NewLFHashMapTagged(sys, nBuckets, TagLFHashMap)
}

// NewLFHashMapTagged creates a nonblocking map whose payloads carry tag.
func NewLFHashMapTagged(sys *core.System, nBuckets int, tag uint16) *LFHashMap {
	n := 1
	for n < nBuckets {
		n *= 2
	}
	m := &LFHashMap{sys: sys, tag: tag, buckets: make([]*LFSet, n), mask: uint64(n - 1)}
	for i := range m.buckets {
		m.buckets[i] = NewLFSetTagged(sys, tag)
	}
	return m
}

// RecoverLFHashMap rebuilds the map from recovered payload chunks
// carrying TagLFHashMap.
func RecoverLFHashMap(sys *core.System, nBuckets int, chunks [][]*core.PBlk) (*LFHashMap, error) {
	return RecoverLFHashMapTagged(sys, nBuckets, chunks, TagLFHashMap)
}

// RecoverLFHashMapTagged rebuilds the map from payloads carrying tag.
func RecoverLFHashMapTagged(sys *core.System, nBuckets int, chunks [][]*core.PBlk, tag uint16) (*LFHashMap, error) {
	m := NewLFHashMapTagged(sys, nBuckets, tag)
	threads := sys.Epochs().Config().MaxThreads
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for w, chunk := range chunks {
		wg.Add(1)
		go func(w int, chunk []*core.PBlk) {
			defer wg.Done()
			tid := w % threads
			for _, p := range core.FilterByTag(chunk, tag) {
				key, _, ok := decodeKV(sys.Read(tid, p))
				if !ok {
					errs[w] = ErrCorruptPayload
					return
				}
				b := m.bucket(key)
				node := &lfsNode{key: key, payload: p}
				for {
					prev, curr := b.find(tid, key)
					if curr != nil && curr.key == key {
						break
					}
					node.next.Store(curr, false)
					if prev.next.CAS(curr, false, node, false) {
						break
					}
				}
			}
		}(w, chunk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *LFHashMap) bucket(key string) *LFSet {
	return m.buckets[fnv1a(key)&m.mask]
}

// Get returns a copy of the value stored under key.
func (m *LFHashMap) Get(tid int, key string) ([]byte, bool) {
	return m.bucket(key).Get(tid, key)
}

// Contains reports whether key is present.
func (m *LFHashMap) Contains(tid int, key string) bool {
	return m.bucket(key).Contains(tid, key)
}

// Insert adds key=val if absent, reporting whether it inserted.
func (m *LFHashMap) Insert(tid int, key string, val []byte) (bool, error) {
	return m.bucket(key).Insert(tid, key, val)
}

// Remove deletes key, reporting whether it was present.
func (m *LFHashMap) Remove(tid int, key string) (bool, error) {
	return m.bucket(key).Remove(tid, key)
}

// Len counts stored pairs (O(n), tests only).
func (m *LFHashMap) Len() int {
	n := 0
	for _, b := range m.buckets {
		n += b.Len()
	}
	return n
}

// Snapshot returns the map contents (tests only; not linearizable).
func (m *LFHashMap) Snapshot(tid int) map[string][]byte {
	out := map[string][]byte{}
	for _, b := range m.buckets {
		for k, v := range b.Snapshot(tid) {
			out[k] = v
		}
	}
	return out
}
