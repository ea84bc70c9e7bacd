package pds

import (
	"montage/internal/core"
	"montage/internal/dcss"
)

// LFQueue is a nonblocking (Michael-Scott style) Montage queue, the kind
// of structure Section 3.3 describes: every operation linearizes on a
// statically identified CAS, performed with CASVerify so the
// linearization provably happens in the epoch that labeled the
// operation's payloads. When the epoch moves underneath an operation it
// rolls back (releasing its freshly created payload) and restarts in the
// newer epoch — making the queue lock-free rather than wait-free, as the
// paper notes.
type LFQueue struct {
	sys  *core.System
	tag  uint16
	head dcss.Cell[lfqNode] // linearizing cell for dequeues
	tail dcss.Cell[lfqNode] // help-swung; not a linearization point
}

type lfqNode struct {
	payload *core.PBlk // nil on the initial dummy and consumed dummies
	seq     uint64
	next    dcss.Cell[lfqNode]
}

// NewLFQueue creates an empty nonblocking queue with the default
// TagLFQueue.
func NewLFQueue(sys *core.System) *LFQueue { return NewLFQueueTagged(sys, TagLFQueue) }

// NewLFQueueTagged creates an empty nonblocking queue whose payloads
// carry tag.
func NewLFQueueTagged(sys *core.System, tag uint16) *LFQueue {
	q := &LFQueue{sys: sys, tag: tag}
	dummy := &lfqNode{seq: 0}
	q.head.Store(dummy, false)
	q.tail.Store(dummy, false)
	return q
}

// RecoverLFQueue rebuilds the queue from recovered payloads (items sort
// by their persistent sequence numbers).
func RecoverLFQueue(sys *core.System, payloads []*core.PBlk) (*LFQueue, error) {
	return RecoverLFQueueTagged(sys, payloads, TagLFQueue)
}

// RecoverLFQueueTagged rebuilds the queue from the payloads carrying tag.
func RecoverLFQueueTagged(sys *core.System, payloads []*core.PBlk, tag uint16) (*LFQueue, error) {
	recs, err := recoverSeq(sys, payloads, tag)
	if err != nil {
		return nil, err
	}
	q := &LFQueue{sys: sys, tag: tag}
	base := uint64(0)
	if len(recs) > 0 {
		base = recs[0].seq - 1
	}
	dummy := &lfqNode{seq: base}
	prev := dummy
	for _, r := range recs {
		n := &lfqNode{payload: r.p, seq: r.seq}
		prev.next.Store(n, false)
		prev = n
	}
	q.head.Store(dummy, false)
	q.tail.Store(prev, false)
	return q, nil
}

// Enqueue appends val.
func (q *LFQueue) Enqueue(tid int, val []byte) error {
	q.sys.Clock().ChargeOp(tid)
	return q.sys.DoOpRetry(tid, func(op core.Op) error {
		p, err := op.PNewTagged(q.tag, encodeSeqVal(0, val))
		if err != nil {
			return err
		}
		for {
			t := q.tail.Value()
			next := t.next.Value()
			if next != nil {
				q.tail.CAS(t, false, next, false) // help swing
				continue
			}
			seq := t.seq + 1
			if _, err := op.Set(p, encodeSeqVal(seq, val)); err != nil {
				// Same-epoch in-place set cannot see a newer payload;
				// this is unreachable but kept for robustness.
				_ = op.PDelete(p)
				return err
			}
			node := &lfqNode{payload: p, seq: seq}
			swapped, epochOK := dcss.CASVerify(q.sys.Epochs(), op.Epoch(), &t.next, nil, false, node, false)
			if !epochOK {
				// The epoch moved: roll back (the payload was created
				// this epoch and never flushed in the common case) and
				// restart in the new epoch.
				_ = op.PDelete(p)
				return core.ErrOldSeeNew
			}
			if swapped {
				q.tail.CAS(t, false, node, false)
				return nil
			}
		}
	})
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *LFQueue) Dequeue(tid int) (val []byte, ok bool, err error) {
	q.sys.Clock().ChargeOp(tid)
	err = q.sys.DoOpRetry(tid, func(op core.Op) error {
		val, ok = nil, false
		for {
			h := q.head.Value()
			first := h.next.Value()
			if first == nil {
				return nil // empty
			}
			// Help the tail past the node we are about to consume.
			if t := q.tail.Value(); t == h {
				q.tail.CAS(t, false, first, false)
			}
			swapped, epochOK := dcss.CASVerify(q.sys.Epochs(), op.Epoch(), &q.head, h, false, first, false)
			if !epochOK {
				return core.ErrOldSeeNew
			}
			if !swapped {
				continue
			}
			data, gerr := op.Get(first.payload)
			if gerr != nil {
				return gerr
			}
			_, v, okd := decodeSeqVal(data)
			if !okd {
				return ErrCorruptPayload
			}
			val = append([]byte(nil), v...)
			if derr := op.PDelete(first.payload); derr != nil {
				return derr
			}
			first.payload = nil // consumed; node is now the dummy
			ok = true
			return nil
		}
	})
	return val, ok, err
}

// Len counts the queued items (O(n), for tests).
func (q *LFQueue) Len() int {
	n := 0
	for node := q.head.Value().next.Value(); node != nil; node = node.next.Value() {
		n++
	}
	return n
}

// Drain returns all values in order without removing them (tests only).
// It registers as a reader (core.System.BeginRead; see LFSet).
func (q *LFQueue) Drain(tid int) ([][]byte, error) {
	q.sys.BeginRead(tid)
	defer q.sys.EndRead(tid)
	var out [][]byte
	for node := q.head.Value().next.Value(); node != nil; node = node.next.Value() {
		if node.payload == nil {
			continue
		}
		_, v, ok := decodeSeqVal(q.sys.Read(tid, node.payload))
		if !ok {
			return nil, ErrCorruptPayload
		}
		out = append(out, append([]byte(nil), v...))
	}
	return out, nil
}
