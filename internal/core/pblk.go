package core

import (
	"sync"
	"sync/atomic"

	"montage/internal/payload"
	"montage/internal/pmem"
)

// PBlk is a payload block: the volatile (cached) image of the one kind of
// data Montage persists. The Go object plays the role of the payload's
// cache-resident copy; its serialized bytes at addr in the arena are the
// durable home that write-backs target.
//
// Access rules (the paper's well-formedness constraints): all reads go
// through Get/GetUnsafe, all writes through Set/PNew/PDelete inside an
// operation, and the enclosing data structure must synchronize so that
// payload accesses are race-free and every pointer to a payload replaced
// by Set is rewritten (constraint 4) — most easily by holding the only
// pointer in a single transient index node.
type PBlk struct {
	sys   *System
	addr  pmem.Addr
	epoch uint64
	uid   uint64
	// data is the payload's data section: a heap copy for a payload made
	// by this system, and for a recovered payload its block in the arena
	// itself (a pmem View), which no Set ever updates in place
	// (DESIGN §15).
	data []byte

	// mu orders same-epoch in-place mutations (Set, PDelete) against a
	// write-back of this block running on another thread. The structure's
	// own lock keeps operations on a payload apart, but not the flusher:
	// the payload sits in the container of whichever thread queued it
	// first, and that thread writes it back on overflow or when helping a
	// sync without holding the structure's lock. Under mu a write-back
	// sees either all of a mutation or none of it, and a mutation that
	// follows a write-back finds buffered already cleared, so it is
	// queued again rather than lost.
	mu sync.Mutex

	// typ and tag sit beside the flags so the struct packs into 80 bytes.
	typ payload.Type
	tag uint16

	buffered atomic.Bool // queued in a to_persist buffer
	flushed  atomic.Bool // written back at least once (bytes may be durable)
	dead     atomic.Bool // cancelled or superseded: skip queued write-backs
}

// PAddr implements epoch.Persistable.
func (p *PBlk) PAddr() pmem.Addr { return p.addr }

// PEncodedSize implements epoch.Persistable.
func (p *PBlk) PEncodedSize() int { return payload.EncodedSize(len(p.image())) }

// PEncodeInto implements epoch.Persistable: header and data serialize as
// one combined image directly into the device's staging buffer, so a
// payload mutation costs a single staged write-back and no allocation.
func (p *PBlk) PEncodeInto(dst []byte) {
	payload.Encode(dst, payload.Header{Epoch: p.epoch, UID: p.uid, Typ: p.typ, Tag: p.tag}, p.image())
}

// image is the data section a write-back of the block carries: none for
// an anti-payload. PDelete's in-place conversion leaves the data field
// alone, since a lock-free reader may be loading it.
func (p *PBlk) image() []byte {
	if p.typ == payload.Delete {
		return nil
	}
	return p.data
}

// Lock and Unlock bracket one write-back of the block (epoch.flushOne).
func (p *PBlk) Lock()   { p.mu.Lock() }
func (p *PBlk) Unlock() { p.mu.Unlock() }

// MarkBuffered implements epoch.Persistable.
func (p *PBlk) MarkBuffered() bool { return p.buffered.CompareAndSwap(false, true) }

// ClearBuffered implements epoch.Persistable.
func (p *PBlk) ClearBuffered() { p.buffered.Store(false) }

// MarkFlushed implements epoch.Persistable.
func (p *PBlk) MarkFlushed() { p.flushed.Store(true) }

// PDead implements epoch.Persistable.
func (p *PBlk) PDead() bool { return p.dead.Load() }

// UID returns the payload's uid, shared by all of its versions and by
// the anti-payload that deletes it.
func (p *PBlk) UID() uint64 { return p.uid }

// Tag returns the owning-structure tag the payload was created with.
// When several structures share one System, each recovers its own
// payloads by filtering on its tag (see FilterByTag).
func (p *PBlk) Tag() uint16 { return p.tag }

// BirthEpoch returns the epoch the payload was created or last modified
// in.
func (p *PBlk) BirthEpoch() uint64 { return p.epoch }

// Size returns the payload's current data length.
func (p *PBlk) Size() int { return len(p.data) }

// PNew creates a payload holding data and queues it for persistence in
// the operation's epoch (the paper's PNEW). The data is copied.
func (op Op) PNew(data []byte) (*PBlk, error) {
	return op.PNewTagged(0, data)
}

// PNewTagged is PNew with an owning-structure tag, so that several
// structures sharing one System can tell their payloads apart at
// recovery. Versions and anti-payloads inherit the tag.
func (op Op) PNewTagged(tag uint16, data []byte) (*PBlk, error) {
	s := op.sys
	addr, err := s.heap.Alloc(op.tid, len(data))
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	p := &PBlk{
		sys:   s,
		addr:  addr,
		epoch: op.epoch,
		uid:   s.nextUID(),
		typ:   payload.Alloc,
		tag:   tag,
		data:  cp,
	}
	s.clk.ChargeNVMWrite(op.tid, len(data))
	s.esys.AddToPersist(op.tid, op.epoch, p)
	return p, nil
}

// Get returns the payload's data with the old-see-new check enabled: if
// the payload was created in a newer epoch than the operation's, the
// operation must not observe it (its linearization would contradict
// epoch order) and ErrOldSeeNew is returned. The returned slice aliases
// the payload; callers must not retain it across a Set.
func (op Op) Get(p *PBlk) ([]byte, error) {
	if op.epoch < p.epoch {
		return nil, ErrOldSeeNew
	}
	op.sys.clk.ChargeNVMRead(op.tid, len(p.data))
	return p.data, nil
}

// GetUnsafe returns the payload's data without the old-see-new check
// (the paper's get_unsafe), for accesses that are semantically neutral.
func (op Op) GetUnsafe(p *PBlk) []byte {
	op.sys.clk.ChargeNVMRead(op.tid, len(p.data))
	return p.data
}

// Read returns a payload's data outside any operation. Calls to get are
// invisible to recovery, so read-only operations may skip
// BeginOp/EndOp entirely (subject to the structure's own transient
// synchronization); they see the current data unconditionally.
func (s *System) Read(tid int, p *PBlk) []byte {
	s.clk.ChargeNVMRead(tid, len(p.data))
	return p.data
}

// Set updates the payload's data and returns the payload that now holds
// it (the paper's set). If the payload was created in the operation's
// epoch it is updated in place; otherwise a copy labeled with the new
// epoch replaces it, the old version is scheduled for reclamation, and
// the caller must rewrite every pointer to the old payload with the
// returned one (constraint 4). The data is copied.
func (op Op) Set(p *PBlk, data []byte) (*PBlk, error) {
	if op.epoch < p.epoch {
		return nil, ErrOldSeeNew
	}
	s := op.sys
	s.clk.ChargeNVMWrite(op.tid, len(data))
	if p.epoch == op.epoch {
		// In-place update: the block is "hot" — created or already copied
		// in this epoch — so mutating it cannot break the two-epoch rule.
		if len(data) <= s.heap.DataCapacity(p.addr) {
			assertNotView(s.dev, p.data)
			p.mu.Lock()
			p.data = append(p.data[:0], data...)
			p.mu.Unlock()
			s.esys.AddToPersist(op.tid, op.epoch, p)
			return p, nil
		}
		// The new value no longer fits the block's size class: fall
		// through to the copying path.
	}
	addr, err := s.heap.Alloc(op.tid, len(data))
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	np := &PBlk{
		sys:   s,
		addr:  addr,
		epoch: op.epoch,
		uid:   p.uid,
		typ:   payload.Update,
		tag:   p.tag,
		data:  cp,
	}
	s.esys.AddToPersist(op.tid, op.epoch, np)
	if p.epoch == op.epoch {
		// Same-epoch size-class overflow: the superseded block shares the
		// new one's uid AND epoch, and recovery has no intra-epoch order,
		// so two valid images would let the stale value win arbitrarily.
		// Kill the old image now: dead skips its queued write-back, and a
		// staged header invalidation voids any bytes already on the
		// device. This epoch only becomes durable once the boundary drain
		// that commits both the invalidation and the new image has
		// completed (the durable clock is written after Drain), so every
		// recovery either discards the epoch entirely or sees exactly one
		// image.
		p.mu.Lock()
		p.dead.Store(true)
		p.mu.Unlock()
		var zero [8]byte
		if err := s.dev.WriteBack(op.tid, p.addr, zero[:]); err != nil {
			return nil, err
		}
	}
	s.esys.AddToFree(op.tid, op.epoch, p.addr)
	return np, nil
}

// PDelete destroys a payload (the paper's PDELETE). A payload created in
// the current epoch and never written back simply vanishes; one whose
// bytes may already exist durably is converted in place into an
// anti-payload; a payload from an earlier epoch gets a separate
// anti-payload carrying its uid, which recovery uses to cancel every
// older version. Reclamation is delayed so that no block is reused while
// a crash could still need its contents.
func (op Op) PDelete(p *PBlk) error {
	if op.epoch < p.epoch {
		return ErrOldSeeNew
	}
	s := op.sys
	if p.epoch == op.epoch {
		p.mu.Lock()
		if p.typ == payload.Alloc && !p.flushed.Load() {
			// Created this epoch and never written back: no durable or
			// staged bytes exist, so the block can be reused at once.
			p.dead.Store(true)
			p.mu.Unlock()
			s.heap.Free(op.tid, p.addr)
			return nil
		}
		// The block's bytes may exist durably (an UPDATE copy, or an
		// ALLOC that overflowed the buffer and was incrementally written
		// back). Convert it in place into its own anti-payload and make
		// sure the DELETE version is (re)queued for write-back.
		p.typ = payload.Delete
		p.mu.Unlock()
		s.esys.AddToPersist(op.tid, op.epoch, p)
		s.esys.AddToFree(op.tid, op.epoch+1, p.addr)
		return nil
	}
	// General case: a separate anti-payload nullifies the older versions.
	addr, err := s.heap.Alloc(op.tid, 0)
	if err != nil {
		return err
	}
	anti := &PBlk{
		sys:   s,
		addr:  addr,
		epoch: op.epoch,
		uid:   p.uid,
		typ:   payload.Delete,
		tag:   p.tag,
	}
	s.esys.AddToPersist(op.tid, op.epoch, anti)
	// The anti-payload outlives its target by one epoch, preserving the
	// order of persistence (paper Section 3.2).
	s.esys.AddToFree(op.tid, op.epoch+1, anti.addr)
	s.esys.AddToFree(op.tid, op.epoch, p.addr)
	return nil
}
