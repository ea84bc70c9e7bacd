package pds

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"montage/internal/core"
)

// HashMap is the Montage hashmap of the paper's Figure 2: a lock per
// bucket, each bucket a sorted transient linked list whose nodes hold the
// only pointer to a key-value payload. Only the payloads (a bag of
// key-value pairs) are persistent; the whole bucket array is rebuilt on
// recovery from that bag — the hashmap's recovery routine is the
// "less than 50 LOC" the paper brags about.
type HashMap struct {
	sys     *core.System
	tag     uint16
	buckets []bucket
	mask    uint64
	// enc is per-thread scratch for the encoded pair: core copies payload
	// data on PNew and Set, so the encoding only has to outlive the call,
	// and a thread id has one owner at a time.
	enc   [][]byte
	count atomic.Int64 // stored pairs, kept by insert, remove and rebuild
}

type bucket struct {
	mu   sync.Mutex
	head *mapNode // sentinel-free: head is the first real node
}

// mapNode is the transient index node (the paper's ListNode): it owns
// the single transient-to-persistent pointer for its pair, so a payload
// replaced by Set has exactly one pointer to rewrite (constraint 4).
type mapNode struct {
	key     string
	payload *core.PBlk
	next    *mapNode
}

// NewHashMap creates a map with nBuckets buckets (rounded up to a power
// of two) carrying the default TagHashMap.
func NewHashMap(sys *core.System, nBuckets int) *HashMap {
	return NewHashMapTagged(sys, nBuckets, TagHashMap)
}

// NewHashMapTagged creates a map whose payloads carry tag, allowing
// several maps (or other structures) to share one system.
func NewHashMapTagged(sys *core.System, nBuckets int, tag uint16) *HashMap {
	n := 1
	for n < nBuckets {
		n *= 2
	}
	return &HashMap{
		sys: sys, tag: tag, buckets: make([]bucket, n), mask: uint64(n - 1),
		enc: make([][]byte, sys.Epochs().Config().MaxThreads),
	}
}

// encode is encodeKV into tid's scratch, valid until tid's next call.
func (m *HashMap) encode(tid int, key string, val []byte) []byte {
	m.enc[tid] = encodeKVInto(m.enc[tid], key, val)
	return m.enc[tid]
}

// RecoverHashMap rebuilds a map from the payloads of a recovered system.
// chunks may come from core.RecoverParallel; they are inserted by
// workers goroutines in parallel.
func RecoverHashMap(sys *core.System, nBuckets int, chunks [][]*core.PBlk) (*HashMap, error) {
	return RecoverHashMapTagged(sys, nBuckets, chunks, TagHashMap, nil)
}

// RecoverHashMapTagged rebuilds a map from the payloads carrying tag.
// Each bucket's list is sorted once, after rebuild has pushed every pair
// onto a head: walking the list on each insert costs a chain of cache
// misses per pair, since other buckets' inserts come in between. The
// sort is also where a key held by two payloads shows, as adjacent
// equal keys. If fold is not nil, the rebuild worker w (0 <= w <
// len(chunks)) that links a pair calls it with the pair's value: a
// caller deriving state from every value (the kvstore's CAS sequence)
// gathers it inside the parallel rebuild instead of walking the map
// afterwards. val is borrowed for the call.
func RecoverHashMapTagged(sys *core.System, nBuckets int, chunks [][]*core.PBlk, tag uint16, fold func(w int, val []byte)) (*HashMap, error) {
	m := NewHashMapTagged(sys, nBuckets, tag)
	n, err := rebuild(sys, chunks, tag, func(w, _ int, p *core.PBlk, data []byte) error {
		key, val, ok := decodeKV(data)
		if !ok {
			return ErrCorruptPayload
		}
		b := m.bucketFor(key)
		b.mu.Lock()
		b.head = &mapNode{key: key, payload: p, next: b.head}
		b.mu.Unlock()
		if fold != nil {
			fold(w, val)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.count.Store(int64(n))
	dup := make([]bool, len(chunks))
	var wg sync.WaitGroup
	for w := range chunks {
		wg.Add(1)
		go func(w int, part []bucket) {
			defer wg.Done()
			var nodes []*mapNode
			for i := range part {
				if nodes, dup[w] = part[i].sortNodes(nodes[:0]); dup[w] {
					return
				}
			}
		}(w, m.buckets[w*len(m.buckets)/len(chunks):(w+1)*len(m.buckets)/len(chunks)])
	}
	wg.Wait()
	if slices.Contains(dup, true) {
		return nil, ErrCorruptPayload
	}
	return m, nil
}

func (m *HashMap) bucketFor(key string) *bucket {
	return &m.buckets[fnv1a(key)&m.mask]
}

// sortNodes puts the bucket's list in key order, using nodes as scratch
// and returning it for reuse, and reports whether two nodes hold the
// same key.
func (b *bucket) sortNodes(nodes []*mapNode) ([]*mapNode, bool) {
	if b.head == nil || b.head.next == nil {
		return nodes, false
	}
	for n := b.head; n != nil; n = n.next {
		nodes = append(nodes, n)
	}
	slices.SortFunc(nodes, func(x, y *mapNode) int { return strings.Compare(x.key, y.key) })
	b.head = nil
	dup := false
	for i := len(nodes) - 1; i >= 0; i-- {
		dup = dup || i > 0 && nodes[i-1].key == nodes[i].key
		nodes[i].next, b.head = b.head, nodes[i]
	}
	return nodes, dup
}

// Get returns a copy of the value stored under key. Read-only
// operations need no BeginOp/EndOp: gets are invisible to recovery
// (paper Section 3.1); the bucket lock is the required transient
// synchronization.
func (m *HashMap) Get(tid int, key string) ([]byte, bool) {
	clk := m.sys.Clock()
	clk.ChargeOp(tid)
	b := m.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	for curr := b.head; curr != nil && curr.key <= key; curr = curr.next {
		clk.ChargeDRAM(tid, 16) // index node hop
		if curr.key == key {
			v, ok := decodeVal(m.sys.Read(tid, curr.payload))
			if !ok {
				return nil, false
			}
			return append([]byte(nil), v...), true
		}
	}
	return nil, false
}

// GetView is Get without the copy: on a hit, v.View receives the value
// borrowed from the payload, valid only until GetView returns (the
// bucket lock is held across the call). The serving hot path renders
// responses straight out of the view, so a steady-state get allocates
// nothing.
func (m *HashMap) GetView(tid int, key string, v Viewer) bool {
	clk := m.sys.Clock()
	clk.ChargeOp(tid)
	b := m.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	for curr := b.head; curr != nil && curr.key <= key; curr = curr.next {
		clk.ChargeDRAM(tid, 16) // index node hop
		if curr.key == key {
			val, ok := decodeVal(m.sys.Read(tid, curr.payload))
			if !ok {
				return false
			}
			v.View(val)
			return true
		}
	}
	return false
}

// Put inserts key=val, or updates the value if the key exists, returning
// the previous value if any.
func (m *HashMap) Put(tid int, key string, val []byte) (prev []byte, err error) {
	prev, _, err = m.put(tid, key, val, true)
	return prev, err
}

// PutE is Put for callers that have no use for the previous value (so it
// is neither read nor copied), returning instead the epoch in which the
// update linearized — the tag a caller needs to wait for the write's
// natural durability (epoch.Sys.WaitPersisted).
func (m *HashMap) PutE(tid int, key string, val []byte) (epoch uint64, err error) {
	_, epoch, err = m.put(tid, key, val, false)
	return epoch, err
}

// put is the upsert behind Put and PutE; prev is a copy of the value it
// replaced, if wantPrev. The operation begins after the bucket lock
// is acquired (as in Figure 2), which guarantees the old-see-new
// exception cannot arise: every payload in the bucket was created by an
// operation that held the lock earlier and therefore in an epoch no
// newer than ours.
func (m *HashMap) put(tid int, key string, val []byte, wantPrev bool) (prev []byte, epoch uint64, err error) {
	clk := m.sys.Clock()
	clk.ChargeOp(tid)
	b := m.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	op := m.sys.BeginOp(tid)
	defer m.sys.EndOp(tid)
	epoch = op.Epoch()
	var prevNode *mapNode
	curr := b.head
	for curr != nil && curr.key < key {
		clk.ChargeDRAM(tid, 16)
		prevNode, curr = curr, curr.next
	}
	if curr != nil && curr.key == key {
		if wantPrev {
			data, gerr := op.Get(curr.payload)
			if gerr != nil {
				return nil, epoch, gerr
			}
			_, v, ok := decodeKV(data)
			if !ok {
				return nil, epoch, ErrCorruptPayload
			}
			prev = append([]byte(nil), v...)
		}
		np, serr := op.Set(curr.payload, m.encode(tid, key, val))
		if serr != nil {
			return nil, epoch, serr
		}
		curr.payload = np // rewrite the (single) pointer to the payload
		return prev, epoch, nil
	}
	p, perr := op.PNewTagged(m.tag, m.encode(tid, key, val))
	if perr != nil {
		return nil, epoch, perr
	}
	// Clone: the index node retains the key, and callers (the server's
	// zero-alloc parse path) may pass a string borrowing a reused buffer.
	n := &mapNode{key: strings.Clone(key), payload: p, next: curr}
	if prevNode == nil {
		b.head = n
	} else {
		prevNode.next = n
	}
	m.count.Add(1)
	return nil, epoch, nil
}

// Insert adds key=val only if the key is absent; it reports whether it
// inserted. (The benchmark workloads use insert/remove, never update,
// for comparability with SOFT, which does not support atomic update.)
func (m *HashMap) Insert(tid int, key string, val []byte) (inserted bool, err error) {
	clk := m.sys.Clock()
	clk.ChargeOp(tid)
	b := m.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	err = m.sys.DoOp(tid, func(op core.Op) error {
		var prevNode *mapNode
		curr := b.head
		for curr != nil && curr.key < key {
			clk.ChargeDRAM(tid, 16)
			prevNode, curr = curr, curr.next
		}
		if curr != nil && curr.key == key {
			return nil // present: no-op
		}
		p, perr := op.PNewTagged(m.tag, m.encode(tid, key, val))
		if perr != nil {
			return perr
		}
		n := &mapNode{key: strings.Clone(key), payload: p, next: curr}
		if prevNode == nil {
			b.head = n
		} else {
			prevNode.next = n
		}
		m.count.Add(1)
		inserted = true
		return nil
	})
	return inserted, err
}

// Remove deletes key, reporting whether it was present.
func (m *HashMap) Remove(tid int, key string) (removed bool, err error) {
	removed, _, err = m.RemoveE(tid, key)
	return removed, err
}

// RemoveE is Remove, additionally returning the epoch in which the
// deletion linearized (see PutE).
func (m *HashMap) RemoveE(tid int, key string) (removed bool, epoch uint64, err error) {
	clk := m.sys.Clock()
	clk.ChargeOp(tid)
	b := m.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	err = m.sys.DoOp(tid, func(op core.Op) error {
		epoch = op.Epoch()
		var prevNode *mapNode
		curr := b.head
		for curr != nil && curr.key < key {
			clk.ChargeDRAM(tid, 16)
			prevNode, curr = curr, curr.next
		}
		if curr == nil || curr.key != key {
			return nil
		}
		if derr := op.PDelete(curr.payload); derr != nil {
			return derr
		}
		if prevNode == nil {
			b.head = curr.next
		} else {
			prevNode.next = curr.next
		}
		m.count.Add(-1)
		removed = true
		return nil
	})
	return removed, epoch, err
}

// Len returns the number of stored pairs.
func (m *HashMap) Len() int { return int(m.count.Load()) }

// Range calls fn for every pair. val is borrowed from the payload and
// valid only during the call, which runs under the pair's bucket lock:
// fn must not call back into the map. Not linearizable against
// concurrent updates.
func (m *HashMap) Range(tid int, fn func(key string, val []byte)) {
	for i := range m.buckets {
		b := &m.buckets[i]
		b.mu.Lock()
		for curr := b.head; curr != nil; curr = curr.next {
			if val, ok := decodeVal(m.sys.Read(tid, curr.payload)); ok {
				fn(curr.key, val)
			}
		}
		b.mu.Unlock()
	}
}

// Snapshot returns the map's contents as a Go map. Intended for tests
// and recovery verification; not linearizable against concurrent
// updates.
func (m *HashMap) Snapshot(tid int) map[string][]byte {
	out := make(map[string][]byte)
	m.Range(tid, func(key string, val []byte) { out[key] = append([]byte(nil), val...) })
	return out
}
