package pds

import (
	"math/rand"
	"sync"

	"montage/internal/core"
)

const skipMaxLevel = 24

// SkipListMap is an ordered Montage mapping: a transient skiplist index
// over key-value payloads. It stands in for the "various tree-based
// maps" the paper mentions building; ordered iteration (RangeScan) is
// the capability hashmaps lack. A readers-writer lock synchronizes the
// transient index; as with every Montage structure, only the payload bag
// persists and the skiplist is rebuilt on recovery.
type SkipListMap struct {
	sys  *core.System
	tag  uint16
	mu   sync.RWMutex
	head *skipNode
	rng  *rand.Rand
	n    int
}

type skipNode struct {
	key     string
	payload *core.PBlk
	next    []*skipNode
}

// NewSkipListMap creates an empty ordered map with the default
// TagSkipList.
func NewSkipListMap(sys *core.System) *SkipListMap {
	return NewSkipListMapTagged(sys, TagSkipList)
}

// NewSkipListMapTagged creates an empty ordered map whose payloads
// carry tag.
func NewSkipListMapTagged(sys *core.System, tag uint16) *SkipListMap {
	return &SkipListMap{
		sys:  sys,
		tag:  tag,
		head: &skipNode{next: make([]*skipNode, skipMaxLevel)},
		rng:  rand.New(rand.NewSource(0x5eed)),
	}
}

// RecoverSkipListMap rebuilds the map from recovered payloads.
func RecoverSkipListMap(sys *core.System, payloads []*core.PBlk) (*SkipListMap, error) {
	return RecoverSkipListMapTagged(sys, payloads, TagSkipList)
}

// RecoverSkipListMapTagged rebuilds the map from payloads carrying tag.
func RecoverSkipListMapTagged(sys *core.System, payloads []*core.PBlk, tag uint16) (*SkipListMap, error) {
	m := NewSkipListMapTagged(sys, tag)
	preds := make([]*skipNode, skipMaxLevel)
	if _, err := rebuildKV(sys, [][]*core.PBlk{payloads}, tag, func(tid int, key string, p *core.PBlk) error {
		if c := m.findPredecessors(tid, key, preds); c != nil && c.key == key {
			return ErrCorruptPayload
		}
		m.link(key, p, preds)
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *SkipListMap) randLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && m.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills preds with the rightmost node before key at
// every level and returns the candidate node.
func (m *SkipListMap) findPredecessors(tid int, key string, preds []*skipNode) *skipNode {
	x := m.head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && x.next[lvl].key < key {
			m.sys.Clock().ChargeDRAM(tid, 16)
			x = x.next[lvl]
		}
		if preds != nil {
			preds[lvl] = x
		}
	}
	return x.next[0]
}

// link splices a new node for (key, payload) in after preds, the
// rightmost nodes before key at every level. Caller holds mu.
func (m *SkipListMap) link(key string, p *core.PBlk, preds []*skipNode) {
	lvl := m.randLevel()
	n := &skipNode{key: key, payload: p, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = preds[i].next[i]
		preds[i].next[i] = n
	}
	m.n++
}

// Get returns a copy of the value under key.
func (m *SkipListMap) Get(tid int, key string) ([]byte, bool) {
	m.sys.Clock().ChargeOp(tid)
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.findPredecessors(tid, key, nil)
	if c == nil || c.key != key {
		return nil, false
	}
	_, v, ok := decodeKV(m.sys.Read(tid, c.payload))
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Put inserts or updates key, returning the previous value if any.
func (m *SkipListMap) Put(tid int, key string, val []byte) (prev []byte, err error) {
	m.sys.Clock().ChargeOp(tid)
	m.mu.Lock()
	defer m.mu.Unlock()
	err = m.sys.DoOp(tid, func(op core.Op) error {
		preds := make([]*skipNode, skipMaxLevel)
		c := m.findPredecessors(tid, key, preds)
		if c != nil && c.key == key {
			data, gerr := op.Get(c.payload)
			if gerr != nil {
				return gerr
			}
			_, v, ok := decodeKV(data)
			if !ok {
				return ErrCorruptPayload
			}
			prev = append([]byte(nil), v...)
			np, serr := op.Set(c.payload, encodeKV(key, val))
			if serr != nil {
				return serr
			}
			c.payload = np
			return nil
		}
		p, perr := op.PNewTagged(m.tag, encodeKV(key, val))
		if perr != nil {
			return perr
		}
		m.link(key, p, preds)
		return nil
	})
	return prev, err
}

// Remove deletes key, reporting whether it was present.
func (m *SkipListMap) Remove(tid int, key string) (removed bool, err error) {
	m.sys.Clock().ChargeOp(tid)
	m.mu.Lock()
	defer m.mu.Unlock()
	err = m.sys.DoOp(tid, func(op core.Op) error {
		preds := make([]*skipNode, skipMaxLevel)
		c := m.findPredecessors(tid, key, preds)
		if c == nil || c.key != key {
			return nil
		}
		if derr := op.PDelete(c.payload); derr != nil {
			return derr
		}
		for i := 0; i < len(c.next); i++ {
			if preds[i].next[i] == c {
				preds[i].next[i] = c.next[i]
			}
		}
		m.n--
		removed = true
		return nil
	})
	return removed, err
}

// RangeScan returns all pairs with from <= key < to, in order.
func (m *SkipListMap) RangeScan(tid int, from, to string) (keys []string, vals [][]byte) {
	m.sys.Clock().ChargeOp(tid)
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.findPredecessors(tid, from, nil)
	for c != nil && (to == "" || c.key < to) {
		_, v, ok := decodeKV(m.sys.Read(tid, c.payload))
		if ok {
			keys = append(keys, c.key)
			vals = append(vals, append([]byte(nil), v...))
		}
		c = c.next[0]
	}
	return keys, vals
}

// Len returns the number of pairs.
func (m *SkipListMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}
