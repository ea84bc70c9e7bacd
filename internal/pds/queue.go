package pds

import (
	"sync"

	"montage/internal/core"
	"montage/internal/simclock"
)

// Queue is the Montage queue of Section 6.1: a single global lock
// protects a transient ring of payload pointers, and each item's payload
// carries a sequence number so that recovery can re-establish FIFO
// order. The paper labels payloads "with consecutive integers from i
// (the head) to j (the tail)".
type Queue struct {
	sys *core.System
	tag uint16

	mu    sync.Mutex
	vlock simclock.Resource // virtual-time image of the lock's serialization
	items []*core.PBlk      // items[0] is the head
	head  uint64            // sequence number of items[0]
	tail  uint64            // sequence number to assign next
}

// NewQueue creates an empty queue on sys with the default TagQueue.
func NewQueue(sys *core.System) *Queue { return NewQueueTagged(sys, TagQueue) }

// NewQueueTagged creates an empty queue whose payloads carry tag,
// allowing several queues (or other structures) to share one system.
func NewQueueTagged(sys *core.System, tag uint16) *Queue {
	q := &Queue{sys: sys, tag: tag, head: 1, tail: 1}
	sys.Clock().Register(&q.vlock)
	return q
}

// RecoverQueue rebuilds a queue from the payloads of a recovered system,
// considering only payloads carrying TagQueue.
func RecoverQueue(sys *core.System, payloads []*core.PBlk) (*Queue, error) {
	return RecoverQueueTagged(sys, payloads, TagQueue)
}

// RecoverQueueTagged rebuilds a queue from the payloads carrying tag.
func RecoverQueueTagged(sys *core.System, payloads []*core.PBlk, tag uint16) (*Queue, error) {
	recs, err := recoverSeq(sys, payloads, tag)
	if err != nil {
		return nil, err
	}
	q := NewQueueTagged(sys, tag)
	if len(recs) > 0 {
		q.head = recs[0].seq
		q.tail = recs[len(recs)-1].seq + 1
		q.items = make([]*core.PBlk, 0, len(recs))
		for _, r := range recs {
			q.items = append(q.items, r.p)
		}
	}
	return q, nil
}

// Enqueue appends val to the queue.
func (q *Queue) Enqueue(tid int, val []byte) error {
	clk := q.sys.Clock()
	clk.ChargeOp(tid)
	q.mu.Lock()
	q.vlock.Acquire(clk, tid)
	defer func() {
		q.vlock.Release(clk, tid)
		q.mu.Unlock()
	}()
	return q.sys.DoOp(tid, func(op core.Op) error {
		p, err := op.PNewTagged(q.tag, encodeSeqVal(q.tail, val))
		if err != nil {
			return err
		}
		q.items = append(q.items, p)
		q.tail++
		return nil
	})
}

// Dequeue removes and returns the oldest value. ok is false on an empty
// queue.
func (q *Queue) Dequeue(tid int) (val []byte, ok bool, err error) {
	clk := q.sys.Clock()
	clk.ChargeOp(tid)
	q.mu.Lock()
	q.vlock.Acquire(clk, tid)
	defer func() {
		q.vlock.Release(clk, tid)
		q.mu.Unlock()
	}()
	if len(q.items) == 0 {
		return nil, false, nil
	}
	err = q.sys.DoOp(tid, func(op core.Op) error {
		p := q.items[0]
		data, err := op.Get(p)
		if err != nil {
			return err
		}
		_, v, okd := decodeSeqVal(data)
		if !okd {
			return ErrCorruptPayload
		}
		val = append([]byte(nil), v...)
		if err := op.PDelete(p); err != nil {
			return err
		}
		q.items = q.items[1:]
		q.head++
		ok = true
		return nil
	})
	return val, ok, err
}

// Len returns the number of items in the queue.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Drain returns all values in FIFO order without removing them.
// Intended for tests and recovery verification.
func (q *Queue) Drain(tid int) ([][]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([][]byte, 0, len(q.items))
	for _, p := range q.items {
		_, v, ok := decodeSeqVal(q.sys.Read(tid, p))
		if !ok {
			return nil, ErrCorruptPayload
		}
		out = append(out, append([]byte(nil), v...))
	}
	return out, nil
}
