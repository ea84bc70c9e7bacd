package pds

import (
	"errors"
	"sync"

	"montage/internal/core"
	"montage/internal/simclock"
)

// ErrIndexOutOfRange reports a vector access beyond the current length.
var ErrIndexOutOfRange = errors.New("pds: vector index out of range")

// Vector is a Montage persistent vector (growable array), the last of
// the structure kinds the MOD paper builds (sets, maps, stacks, queues,
// vectors). Each element's payload carries its index, so the bag of
// payloads plus nothing else reconstructs the array; Set exercises
// Montage's update path (in place within an epoch, copy-on-write
// across epochs).
type Vector struct {
	sys *core.System
	tag uint16

	mu    sync.Mutex
	vlock simclock.Resource
	elems []*core.PBlk
}

// NewVector creates an empty vector with the default TagVector.
func NewVector(sys *core.System) *Vector { return NewVectorTagged(sys, TagVector) }

// NewVectorTagged creates an empty vector whose payloads carry tag.
func NewVectorTagged(sys *core.System, tag uint16) *Vector {
	v := &Vector{sys: sys, tag: tag}
	sys.Clock().Register(&v.vlock)
	return v
}

// RecoverVector rebuilds a vector from recovered payloads carrying
// TagVector.
func RecoverVector(sys *core.System, payloads []*core.PBlk) (*Vector, error) {
	return RecoverVectorTagged(sys, payloads, TagVector)
}

// RecoverVectorTagged rebuilds a vector from the payloads carrying tag.
// The surviving indices must be contiguous from zero (they always are:
// Append and PopBack maintain contiguity and each is one operation).
func RecoverVectorTagged(sys *core.System, payloads []*core.PBlk, tag uint16) (*Vector, error) {
	recs, err := recoverSeq(sys, payloads, tag)
	if err != nil {
		return nil, err
	}
	v := NewVectorTagged(sys, tag)
	for i, r := range recs {
		if r.seq != uint64(i) {
			return nil, ErrCorruptPayload
		}
		v.elems = append(v.elems, r.p)
	}
	return v, nil
}

func (v *Vector) lock(tid int) func() {
	v.mu.Lock()
	v.vlock.Acquire(v.sys.Clock(), tid)
	return func() {
		v.vlock.Release(v.sys.Clock(), tid)
		v.mu.Unlock()
	}
}

// Append adds val at the end, returning its index.
func (v *Vector) Append(tid int, val []byte) (int, error) {
	v.sys.Clock().ChargeOp(tid)
	unlock := v.lock(tid)
	defer unlock()
	idx := len(v.elems)
	err := v.sys.DoOp(tid, func(op core.Op) error {
		p, err := op.PNewTagged(v.tag, encodeSeqVal(uint64(idx), val))
		if err != nil {
			return err
		}
		v.elems = append(v.elems, p)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return idx, nil
}

// Set overwrites element i.
func (v *Vector) Set(tid, i int, val []byte) error {
	v.sys.Clock().ChargeOp(tid)
	unlock := v.lock(tid)
	defer unlock()
	if i < 0 || i >= len(v.elems) {
		return ErrIndexOutOfRange
	}
	return v.sys.DoOp(tid, func(op core.Op) error {
		np, err := op.Set(v.elems[i], encodeSeqVal(uint64(i), val))
		if err != nil {
			return err
		}
		v.elems[i] = np
		return nil
	})
}

// Get returns a copy of element i.
func (v *Vector) Get(tid, i int) ([]byte, error) {
	v.sys.Clock().ChargeOp(tid)
	v.mu.Lock()
	defer v.mu.Unlock()
	if i < 0 || i >= len(v.elems) {
		return nil, ErrIndexOutOfRange
	}
	_, val, ok := decodeSeqVal(v.sys.Read(tid, v.elems[i]))
	if !ok {
		return nil, ErrCorruptPayload
	}
	return append([]byte(nil), val...), nil
}

// PopBack removes and returns the last element; ok is false when empty.
func (v *Vector) PopBack(tid int) (val []byte, ok bool, err error) {
	v.sys.Clock().ChargeOp(tid)
	unlock := v.lock(tid)
	defer unlock()
	if len(v.elems) == 0 {
		return nil, false, nil
	}
	err = v.sys.DoOp(tid, func(op core.Op) error {
		p := v.elems[len(v.elems)-1]
		data, gerr := op.Get(p)
		if gerr != nil {
			return gerr
		}
		_, raw, okd := decodeSeqVal(data)
		if !okd {
			return ErrCorruptPayload
		}
		val = append([]byte(nil), raw...)
		if derr := op.PDelete(p); derr != nil {
			return derr
		}
		v.elems = v.elems[:len(v.elems)-1]
		ok = true
		return nil
	})
	return val, ok, err
}

// Len returns the number of elements.
func (v *Vector) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.elems)
}

// SnapshotAll returns copies of all elements in order (tests only).
func (v *Vector) SnapshotAll(tid int) ([][]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([][]byte, 0, len(v.elems))
	for _, p := range v.elems {
		_, val, ok := decodeSeqVal(v.sys.Read(tid, p))
		if !ok {
			return nil, ErrCorruptPayload
		}
		out = append(out, append([]byte(nil), val...))
	}
	return out, nil
}
