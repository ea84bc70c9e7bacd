package pds

import (
	"montage/internal/core"
	"montage/internal/dcss"
)

// LFSet is a nonblocking sorted-list set/mapping (a Harris linked list)
// on Montage: the transient index is a lock-free list with mark-bit
// logical deletion; the key-value pairs are payloads. Insert and Remove
// linearize on CASVerify so they provably linearize in the epoch that
// labeled their payloads. Reads are invisible to recovery, but Get and
// Snapshot hold no lock against a concurrent Remove, so they register
// with the epoch system (core.System.BeginRead) while they touch payload
// data: a recovered payload's data is its block in the arena, which must
// not be reclaimed and reused under them.
type LFSet struct {
	sys  *core.System
	tag  uint16
	head *lfsNode // sentinel; never removed
}

type lfsNode struct {
	key     string
	payload *core.PBlk
	next    dcss.Cell[lfsNode]
}

// NewLFSet creates an empty set with the default TagLFSet.
func NewLFSet(sys *core.System) *LFSet { return NewLFSetTagged(sys, TagLFSet) }

// NewLFSetTagged creates an empty set whose payloads carry tag.
func NewLFSetTagged(sys *core.System, tag uint16) *LFSet {
	return &LFSet{sys: sys, tag: tag, head: &lfsNode{}}
}

// RecoverLFSet rebuilds the set from recovered payloads, in parallel
// across the provided chunks.
func RecoverLFSet(sys *core.System, chunks [][]*core.PBlk) (*LFSet, error) {
	return RecoverLFSetTagged(sys, chunks, TagLFSet)
}

// RecoverLFSetTagged rebuilds the set from the payloads carrying tag.
func RecoverLFSetTagged(sys *core.System, chunks [][]*core.PBlk, tag uint16) (*LFSet, error) {
	s := NewLFSetTagged(sys, tag)
	if _, err := rebuildKV(sys, chunks, tag, s.link); err != nil {
		return nil, err
	}
	return s, nil
}

// link inserts a recovered (key, payload) with plain CASes: only other
// rebuild workers run concurrently, so there is no epoch to verify. A
// key already present is ErrCorruptPayload.
func (s *LFSet) link(tid int, key string, p *core.PBlk) error {
	node := &lfsNode{key: key, payload: p}
	for {
		prev, curr := s.find(tid, key)
		if curr != nil && curr.key == key {
			return ErrCorruptPayload
		}
		node.next.Store(curr, false)
		if prev.next.CAS(curr, false, node, false) {
			return nil
		}
	}
}

// find returns (prev, curr) where curr is the first unmarked node with
// key >= the search key, physically unlinking marked nodes on the way
// (Harris's helping).
func (s *LFSet) find(tid int, key string) (*lfsNode, *lfsNode) {
retry:
	for {
		prev := s.head
		curr, _ := prev.next.Load()
		for curr != nil {
			succ, marked := curr.next.Load()
			if marked {
				// curr is logically deleted: help unlink it.
				if !prev.next.CAS(curr, false, succ, false) {
					continue retry
				}
				curr = succ
				continue
			}
			if curr.key >= key {
				return prev, curr
			}
			s.sys.Clock().ChargeDRAM(tid, 16)
			prev, curr = curr, succ
		}
		return prev, nil
	}
}

// Insert adds key=val if absent, reporting whether it inserted.
func (s *LFSet) Insert(tid int, key string, val []byte) (inserted bool, err error) {
	s.sys.Clock().ChargeOp(tid)
	err = s.sys.DoOpRetry(tid, func(op core.Op) error {
		inserted = false
		var p *core.PBlk
		defer func() {
			if !inserted && p != nil {
				_ = op.PDelete(p) // roll back the payload on any exit
			}
		}()
		for {
			prev, curr := s.find(tid, key)
			if curr != nil && curr.key == key {
				return nil // present
			}
			if p == nil {
				var perr error
				p, perr = op.PNewTagged(s.tag, encodeKV(key, val))
				if perr != nil {
					return perr
				}
			}
			node := &lfsNode{key: key, payload: p}
			node.next.Store(curr, false)
			swapped, epochOK := dcss.CASVerify(s.sys.Epochs(), op.Epoch(), &prev.next, curr, false, node, false)
			if !epochOK {
				return core.ErrOldSeeNew
			}
			if swapped {
				inserted = true
				return nil
			}
		}
	})
	return inserted, err
}

// Remove deletes key, reporting whether it was present. The linearizing
// step is the epoch-verified mark CAS; physical unlinking is best-effort
// (find helps).
func (s *LFSet) Remove(tid int, key string) (removed bool, err error) {
	s.sys.Clock().ChargeOp(tid)
	err = s.sys.DoOpRetry(tid, func(op core.Op) error {
		removed = false
		for {
			prev, curr := s.find(tid, key)
			if curr == nil || curr.key != key {
				return nil
			}
			succ, marked := curr.next.Load()
			if marked {
				continue // another remove got it; re-find
			}
			swapped, epochOK := dcss.CASVerify(s.sys.Epochs(), op.Epoch(), &curr.next, succ, false, succ, true)
			if !epochOK {
				return core.ErrOldSeeNew
			}
			if !swapped {
				continue
			}
			// We own the logical deletion: destroy the payload and
			// best-effort unlink.
			if derr := op.PDelete(curr.payload); derr != nil {
				return derr
			}
			prev.next.CAS(curr, false, succ, false)
			removed = true
			return nil
		}
	})
	return removed, err
}

// Contains reports whether key is present (read-only; no epoch work).
func (s *LFSet) Contains(tid int, key string) bool {
	s.sys.Clock().ChargeOp(tid)
	curr, _ := s.head.next.Load()
	for curr != nil && curr.key < key {
		s.sys.Clock().ChargeDRAM(tid, 16)
		curr, _ = curr.next.Load()
	}
	if curr == nil || curr.key != key {
		return false
	}
	_, marked := curr.next.Load()
	return !marked
}

// Get returns a copy of the value stored under key.
func (s *LFSet) Get(tid int, key string) ([]byte, bool) {
	s.sys.Clock().ChargeOp(tid)
	s.sys.BeginRead(tid)
	defer s.sys.EndRead(tid)
	curr, _ := s.head.next.Load()
	for curr != nil && curr.key < key {
		s.sys.Clock().ChargeDRAM(tid, 16)
		curr, _ = curr.next.Load()
	}
	if curr == nil || curr.key != key {
		return nil, false
	}
	if _, marked := curr.next.Load(); marked {
		return nil, false
	}
	_, v, ok := decodeKV(s.sys.Read(tid, curr.payload))
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len counts unmarked nodes (O(n), tests only).
func (s *LFSet) Len() int {
	n := 0
	curr, _ := s.head.next.Load()
	for curr != nil {
		_, marked := curr.next.Load()
		if !marked {
			n++
		}
		curr, _ = curr.next.Load()
	}
	return n
}

// Snapshot returns the set contents (tests only; not linearizable).
func (s *LFSet) Snapshot(tid int) map[string][]byte {
	s.sys.BeginRead(tid)
	defer s.sys.EndRead(tid)
	out := map[string][]byte{}
	curr, _ := s.head.next.Load()
	for curr != nil {
		if _, marked := curr.next.Load(); !marked {
			_, v, ok := decodeKV(s.sys.Read(tid, curr.payload))
			if ok {
				out[curr.key] = append([]byte(nil), v...)
			}
		}
		curr, _ = curr.next.Load()
	}
	return out
}
