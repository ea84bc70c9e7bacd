package pds

import (
	"sync/atomic"

	"montage/internal/core"
	"montage/internal/dcss"
)

// LFStack is a nonblocking Montage stack: a Treiber stack whose push and
// pop CASes are epoch-verified, completing the nonblocking counterparts
// of every lock-based structure in the package. Payload depth labels are
// made strictly increasing across the stack from bottom to top so that
// recovery can re-establish LIFO order.
type LFStack struct {
	sys  *core.System
	tag  uint16
	top  dcss.Cell[lfstkNode]
	size atomic.Int64
}

type lfstkNode struct {
	payload *core.PBlk
	depth   uint64
	next    *lfstkNode // immutable after push (Treiber)
}

// NewLFStack creates an empty nonblocking stack with the default
// TagLFStack.
func NewLFStack(sys *core.System) *LFStack { return NewLFStackTagged(sys, TagLFStack) }

// NewLFStackTagged creates an empty nonblocking stack whose payloads
// carry tag.
func NewLFStackTagged(sys *core.System, tag uint16) *LFStack {
	return &LFStack{sys: sys, tag: tag}
}

// RecoverLFStack rebuilds the stack from recovered payloads carrying
// TagLFStack.
func RecoverLFStack(sys *core.System, payloads []*core.PBlk) (*LFStack, error) {
	return RecoverLFStackTagged(sys, payloads, TagLFStack)
}

// RecoverLFStackTagged rebuilds the stack from payloads carrying tag.
func RecoverLFStackTagged(sys *core.System, payloads []*core.PBlk, tag uint16) (*LFStack, error) {
	recs, err := recoverSeq(sys, payloads, tag)
	if err != nil {
		return nil, err
	}
	s := NewLFStackTagged(sys, tag)
	var top *lfstkNode
	for _, r := range recs {
		top = &lfstkNode{payload: r.p, depth: r.seq, next: top}
	}
	s.top.Store(top, false)
	s.size.Store(int64(len(recs)))
	return s, nil
}

// Push places val on top of the stack; the linearizing step is the
// epoch-verified top CAS.
func (s *LFStack) Push(tid int, val []byte) error {
	s.sys.Clock().ChargeOp(tid)
	return s.sys.DoOpRetry(tid, func(op core.Op) error {
		p, err := op.PNewTagged(s.tag, encodeSeqVal(0, val))
		if err != nil {
			return err
		}
		for {
			old, _ := s.top.Load()
			depth := uint64(1)
			if old != nil {
				depth = old.depth + 1
			}
			// Fix the depth label before linearizing (in-place: same
			// epoch, same op).
			if _, err := op.Set(p, encodeSeqVal(depth, val)); err != nil {
				_ = op.PDelete(p)
				return err
			}
			node := &lfstkNode{payload: p, depth: depth, next: old}
			swapped, epochOK := dcss.CASVerify(s.sys.Epochs(), op.Epoch(), &s.top, old, false, node, false)
			if !epochOK {
				_ = op.PDelete(p)
				return core.ErrOldSeeNew
			}
			if swapped {
				s.size.Add(1)
				return nil
			}
		}
	})
}

// Pop removes and returns the top value; ok is false when empty.
func (s *LFStack) Pop(tid int) (val []byte, ok bool, err error) {
	s.sys.Clock().ChargeOp(tid)
	err = s.sys.DoOpRetry(tid, func(op core.Op) error {
		val, ok = nil, false
		for {
			old, _ := s.top.Load()
			if old == nil {
				return nil
			}
			swapped, epochOK := dcss.CASVerify(s.sys.Epochs(), op.Epoch(), &s.top, old, false, old.next, false)
			if !epochOK {
				return core.ErrOldSeeNew
			}
			if !swapped {
				continue
			}
			data, gerr := op.Get(old.payload)
			if gerr != nil {
				return gerr
			}
			_, v, okd := decodeSeqVal(data)
			if !okd {
				return ErrCorruptPayload
			}
			val = append([]byte(nil), v...)
			if derr := op.PDelete(old.payload); derr != nil {
				return derr
			}
			s.size.Add(-1)
			ok = true
			return nil
		}
	})
	return val, ok, err
}

// Peek returns a copy of the top value without removing it.
func (s *LFStack) Peek(tid int) ([]byte, bool) {
	s.sys.Clock().ChargeOp(tid)
	top, _ := s.top.Load()
	if top == nil {
		return nil, false
	}
	_, v, ok := decodeSeqVal(s.sys.Read(tid, top.payload))
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Len returns the number of items.
func (s *LFStack) Len() int { return int(s.size.Load()) }

// DrainTopDown returns all values from top to bottom without removing
// them (tests only; not linearizable).
func (s *LFStack) DrainTopDown(tid int) ([][]byte, error) {
	var out [][]byte
	node, _ := s.top.Load()
	for node != nil {
		_, v, ok := decodeSeqVal(s.sys.Read(tid, node.payload))
		if !ok {
			return nil, ErrCorruptPayload
		}
		out = append(out, append([]byte(nil), v...))
		node = node.next
	}
	return out, nil
}
