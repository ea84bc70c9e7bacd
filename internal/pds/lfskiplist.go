package pds

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"montage/internal/core"
	"montage/internal/dcss"
)

// LFSkipList is a nonblocking ordered Montage map: a lock-free skiplist
// (in the Fraser/Herlihy-Shavit style) whose bottom-level link and mark
// CASes are epoch-verified, so inserts and removes linearize in the
// epoch that labeled their payloads (Section 3.3). It is the
// tree-structured counterpart of LFSet, with O(log n) expected search
// and ordered iteration.
type LFSkipList struct {
	sys  *core.System
	tag  uint16
	head *lfskipNode
	rnd  rand.Source64
	rmu  sync.Mutex
	size atomic.Int64
}

const lfskipMaxLevel = 20

type lfskipNode struct {
	key     string
	payload *core.PBlk
	next    []dcss.Cell[lfskipNode]
	top     int // index of the highest valid level
}

// NewLFSkipList creates an empty nonblocking ordered map with the
// default TagLFSkipList.
func NewLFSkipList(sys *core.System) *LFSkipList { return NewLFSkipListTagged(sys, TagLFSkipList) }

// NewLFSkipListTagged creates an empty nonblocking ordered map whose
// payloads carry tag.
func NewLFSkipListTagged(sys *core.System, tag uint16) *LFSkipList {
	return &LFSkipList{
		sys:  sys,
		tag:  tag,
		head: &lfskipNode{next: make([]dcss.Cell[lfskipNode], lfskipMaxLevel), top: lfskipMaxLevel - 1},
		rnd:  rand.NewSource(0x51c8).(rand.Source64),
	}
}

// RecoverLFSkipList rebuilds the map from recovered payload chunks
// carrying TagLFSkipList.
func RecoverLFSkipList(sys *core.System, chunks [][]*core.PBlk) (*LFSkipList, error) {
	return RecoverLFSkipListTagged(sys, chunks, TagLFSkipList)
}

// RecoverLFSkipListTagged rebuilds the map from payloads carrying tag.
func RecoverLFSkipListTagged(sys *core.System, chunks [][]*core.PBlk, tag uint16) (*LFSkipList, error) {
	m := NewLFSkipListTagged(sys, tag)
	if _, err := rebuildKV(sys, chunks, tag, m.insertNode); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *LFSkipList) randLevel() int {
	m.rmu.Lock()
	bits := m.rnd.Uint64()
	m.rmu.Unlock()
	lvl := 0
	for lvl < lfskipMaxLevel-1 && bits&1 == 1 {
		lvl++
		bits >>= 1
	}
	return lvl
}

// find fills preds/succs with the insertion window for key at every
// level, physically unlinking marked nodes along the way. It returns
// the unmarked bottom-level candidate (nil if absent).
func (m *LFSkipList) find(tid int, key string, preds, succs []*lfskipNode) *lfskipNode {
retry:
	for {
		pred := m.head
		for lvl := lfskipMaxLevel - 1; lvl >= 0; lvl-- {
			curr, _ := pred.next[lvl].Load()
			for curr != nil {
				succ, marked := curr.next[lvl].Load()
				for marked {
					// Help unlink the marked node at this level.
					if !pred.next[lvl].CAS(curr, false, succ, false) {
						continue retry
					}
					curr = succ
					if curr == nil {
						break
					}
					succ, marked = curr.next[lvl].Load()
				}
				if curr == nil || curr.key >= key {
					break
				}
				m.sys.Clock().ChargeDRAM(tid, 16)
				pred, curr = curr, succ
			}
			preds[lvl] = pred
			succs[lvl] = curr
		}
		return succs[0]
	}
}

// insertNode links (key, payload) with plain CASes (recovery only; no
// epoch verification needed because no operations are concurrent with
// rebuild). A key already present is ErrCorruptPayload.
func (m *LFSkipList) insertNode(tid int, key string, p *core.PBlk) error {
	preds := make([]*lfskipNode, lfskipMaxLevel)
	succs := make([]*lfskipNode, lfskipMaxLevel)
	for {
		if c := m.find(tid, key, preds, succs); c != nil && c.key == key {
			return ErrCorruptPayload
		}
		top := m.randLevel()
		node := &lfskipNode{key: key, payload: p, next: make([]dcss.Cell[lfskipNode], top+1), top: top}
		for lvl := 0; lvl <= top; lvl++ {
			node.next[lvl].Store(succs[lvl], false)
		}
		if !preds[0].next[0].CAS(succs[0], false, node, false) {
			continue
		}
		m.linkUpper(tid, node, preds, succs)
		m.size.Add(1)
		return nil
	}
}

// linkUpper links node's levels 1..top after the bottom-level
// linearization (the lock-free skiplist "add" of Herlihy & Shavit,
// chapter 14.4). If the node gets marked for removal at any level, the
// linking stops: the remover owns it now.
func (m *LFSkipList) linkUpper(tid int, node *lfskipNode, preds, succs []*lfskipNode) {
	for lvl := 1; lvl <= node.top; lvl++ {
		for {
			pred, succ := preds[lvl], succs[lvl]
			nsucc, marked := node.next[lvl].Load()
			if marked {
				return
			}
			if succ != nsucc {
				// Repoint our forward pointer at the current window; a
				// failure means a remover marked the level under us.
				if !node.next[lvl].CAS(nsucc, false, succ, false) {
					return
				}
			}
			if pred.next[lvl].CAS(succ, false, node, false) {
				break
			}
			// Window moved: recompute it; bail if the node was removed.
			if c := m.find(tid, node.key, preds, succs); c != node {
				return
			}
		}
	}
}

// Insert adds key=val if absent, reporting whether it inserted. The
// linearizing step is the epoch-verified bottom-level link.
func (m *LFSkipList) Insert(tid int, key string, val []byte) (inserted bool, err error) {
	m.sys.Clock().ChargeOp(tid)
	err = m.sys.DoOpRetry(tid, func(op core.Op) error {
		inserted = false
		var p *core.PBlk
		defer func() {
			if !inserted && p != nil {
				_ = op.PDelete(p)
			}
		}()
		preds := make([]*lfskipNode, lfskipMaxLevel)
		succs := make([]*lfskipNode, lfskipMaxLevel)
		for {
			if c := m.find(tid, key, preds, succs); c != nil && c.key == key {
				return nil // present
			}
			if p == nil {
				var perr error
				p, perr = op.PNewTagged(m.tag, encodeKV(key, val))
				if perr != nil {
					return perr
				}
			}
			top := m.randLevel()
			node := &lfskipNode{key: key, payload: p, next: make([]dcss.Cell[lfskipNode], top+1), top: top}
			for lvl := 0; lvl <= top; lvl++ {
				node.next[lvl].Store(succs[lvl], false)
			}
			swapped, epochOK := dcss.CASVerify(m.sys.Epochs(), op.Epoch(), &preds[0].next[0], succs[0], false, node, false)
			if !epochOK {
				return core.ErrOldSeeNew
			}
			if !swapped {
				continue
			}
			m.linkUpper(tid, node, preds, succs)
			m.size.Add(1)
			inserted = true
			return nil
		}
	})
	return inserted, err
}

// Remove deletes key, reporting whether it was present. The linearizing
// step is the epoch-verified bottom-level mark.
func (m *LFSkipList) Remove(tid int, key string) (removed bool, err error) {
	m.sys.Clock().ChargeOp(tid)
	err = m.sys.DoOpRetry(tid, func(op core.Op) error {
		removed = false
		preds := make([]*lfskipNode, lfskipMaxLevel)
		succs := make([]*lfskipNode, lfskipMaxLevel)
		for {
			victim := m.find(tid, key, preds, succs)
			if victim == nil || victim.key != key {
				return nil
			}
			// Mark the upper levels top-down (plain CAS; not linearizing).
			for lvl := victim.top; lvl >= 1; lvl-- {
				for {
					succ, marked := victim.next[lvl].Load()
					if marked {
						break
					}
					if victim.next[lvl].CAS(succ, false, succ, true) {
						break
					}
				}
			}
			// Bottom-level mark: the epoch-verified linearization point.
			succ, marked := victim.next[0].Load()
			if marked {
				continue // another remover won; re-find (key may be gone)
			}
			swapped, epochOK := dcss.CASVerify(m.sys.Epochs(), op.Epoch(), &victim.next[0], succ, false, succ, true)
			if !epochOK {
				return core.ErrOldSeeNew
			}
			if !swapped {
				continue
			}
			if derr := op.PDelete(victim.payload); derr != nil {
				return derr
			}
			m.size.Add(-1)
			// Best-effort physical unlink.
			m.find(tid, key, preds, succs)
			removed = true
			return nil
		}
	})
	return removed, err
}

// Get returns a copy of the value under key. It registers as a reader
// (core.System.BeginRead; see LFSet) but is no operation.
func (m *LFSkipList) Get(tid int, key string) ([]byte, bool) {
	m.sys.Clock().ChargeOp(tid)
	m.sys.BeginRead(tid)
	defer m.sys.EndRead(tid)
	pred := m.head
	for lvl := lfskipMaxLevel - 1; lvl >= 0; lvl-- {
		curr, _ := pred.next[lvl].Load()
		for curr != nil && curr.key < key {
			m.sys.Clock().ChargeDRAM(tid, 16)
			pred = curr
			curr, _ = curr.next[lvl].Load()
		}
		if curr != nil && curr.key == key {
			if _, marked := curr.next[0].Load(); marked {
				return nil, false
			}
			_, v, ok := decodeKV(m.sys.Read(tid, curr.payload))
			if !ok {
				return nil, false
			}
			return append([]byte(nil), v...), true
		}
	}
	return nil, false
}

// Contains reports whether key is present.
func (m *LFSkipList) Contains(tid int, key string) bool {
	_, ok := m.Get(tid, key)
	return ok
}

// RangeScan returns all pairs with from <= key < to, in order (to == ""
// means unbounded). The scan is a bottom-level traversal and is not
// linearizable against concurrent updates. Like Get, it registers as a
// reader for the whole scan.
func (m *LFSkipList) RangeScan(tid int, from, to string) (keys []string, vals [][]byte) {
	m.sys.Clock().ChargeOp(tid)
	m.sys.BeginRead(tid)
	defer m.sys.EndRead(tid)
	curr, _ := m.head.next[0].Load()
	for curr != nil && curr.key < from {
		curr, _ = curr.next[0].Load()
	}
	for curr != nil && (to == "" || curr.key < to) {
		if _, marked := curr.next[0].Load(); !marked {
			_, v, ok := decodeKV(m.sys.Read(tid, curr.payload))
			if ok {
				keys = append(keys, curr.key)
				vals = append(vals, append([]byte(nil), v...))
			}
		}
		curr, _ = curr.next[0].Load()
	}
	return keys, vals
}

// Len returns the number of pairs.
func (m *LFSkipList) Len() int { return int(m.size.Load()) }

// Snapshot returns the contents (tests only; not linearizable).
func (m *LFSkipList) Snapshot(tid int) map[string][]byte {
	out := map[string][]byte{}
	keys, vals := m.RangeScan(tid, "", "")
	for i, k := range keys {
		out[k] = vals[i]
	}
	return out
}
