// Package pds provides the persistent data structures built on the
// Montage runtime:
//
//   - lock-based: the single-lock Queue and lock-per-bucket HashMap of
//     the paper's evaluation (Sections 6.1–6.2) and the general Graph of
//     Section 6.3;
//   - nonblocking (Section 3.3, on epoch-verified CASes): LFQueue,
//     LFSet, LFHashMap and the ordered LFSkipList.
//
// Every structure follows the same recipe: the semantic state (items,
// key-value pairs, vertices and edges) lives in Montage payloads; the
// lookup structure is transient, synchronizes all concurrent access, and
// is rebuilt from the payloads after a crash. Every rebuild goes through
// one loop, rebuild: keyed structures insert each decoded payload into
// their index (rebuildKV; a key held by two payloads is
// ErrCorruptPayload), and the queues sort the payloads by the sequence
// label each carries (recoverSeq).
package pds

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"montage/internal/core"
)

// Default owning-structure tags. Every payload a structure creates
// carries its tag, so several structures can share one Montage system
// and still recover only their own payloads. Create structures with the
// *Tagged constructors to run several instances of the same kind on one
// system.
const (
	// TagQueue is the default tag of Queue payloads.
	TagQueue uint16 = 1
	// TagHashMap is the default tag of HashMap payloads.
	TagHashMap uint16 = 2
	// TagLFQueue is the default tag of LFQueue payloads.
	TagLFQueue uint16 = 3
	// TagLFSet is the default tag of LFSet payloads.
	TagLFSet uint16 = 4
	// TagGraph is the default tag of Graph payloads.
	TagGraph uint16 = 6
	// TagLFHashMap is the default tag of LFHashMap payloads.
	TagLFHashMap uint16 = 8
	// TagLFSkipList is the default tag of LFSkipList payloads.
	TagLFSkipList uint16 = 9

	// Tags 5, 7, 10 and 11 belonged to structures that were deleted
	// because nothing used them: the lock-based skiplist map (5), the
	// lock-based stack (7), the vector (10) and the lock-free stack (11).
	// They are retired and never reused, so an old image's payloads of
	// those structures are never read as another structure's.
)

// ErrCorruptPayload reports a recovered payload that does not decode as
// the structure expects, or a key that two recovered payloads both
// hold; it indicates a bug, cross-structure mixing or a damaged image,
// never a legal crash outcome (torn blocks are filtered by checksums
// before recovery sees them).
var ErrCorruptPayload = errors.New("pds: recovered payload has unexpected format")

// rebuild is every structure's recovery loop. It runs one goroutine per
// chunk, chunk w as thread id w modulo the system's thread ids, and
// calls fn once for each payload carrying tag with the payload's data
// (read once, so the virtual clock is charged once per payload). A chunk
// stops at its first error; rebuild returns the error of the first
// failing chunk, or the number of payloads visited.
func rebuild(sys *core.System, chunks [][]*core.PBlk, tag uint16, fn func(w, tid int, p *core.PBlk, data []byte) error) (int, error) {
	threads := sys.Epochs().Config().MaxThreads
	counts := make([]int, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for w, chunk := range chunks {
		wg.Add(1)
		go func(w int, chunk []*core.PBlk) {
			defer wg.Done()
			tid, n := w%threads, 0
			for _, p := range chunk {
				if p.Tag() != tag {
					continue
				}
				if errs[w] = fn(w, tid, p, sys.Read(tid, p)); errs[w] != nil {
					return
				}
				n++
			}
			counts[w] = n
		}(w, chunk)
	}
	wg.Wait()
	n := 0
	for w := range chunks {
		if errs[w] != nil {
			return 0, errs[w]
		}
		n += counts[w]
	}
	return n, nil
}

// rebuildKV is rebuild for the key-value structures: it decodes each
// payload's key and hands it to insert, which links the payload into the
// index or, when the key is already there, returns ErrCorruptPayload.
func rebuildKV(sys *core.System, chunks [][]*core.PBlk, tag uint16, insert func(tid int, key string, p *core.PBlk) error) (int, error) {
	return rebuild(sys, chunks, tag, func(_, tid int, p *core.PBlk, data []byte) error {
		key, _, ok := decodeKV(data)
		if !ok {
			return ErrCorruptPayload
		}
		return insert(tid, key, p)
	})
}

// seqRec is one recovered item of a queue: its sequence label (queue
// position) and its payload.
type seqRec struct {
	seq uint64
	p   *core.PBlk
}

// recoverSeq is the queues' rebuild: the payloads carrying tag, read as
// thread id 0 and sorted by their sequence labels.
func recoverSeq(sys *core.System, payloads []*core.PBlk, tag uint16) ([]seqRec, error) {
	var recs []seqRec
	_, err := rebuild(sys, [][]*core.PBlk{payloads}, tag, func(_, _ int, p *core.PBlk, data []byte) error {
		seq, _, ok := decodeSeqVal(data)
		if !ok {
			return ErrCorruptPayload
		}
		recs = append(recs, seqRec{seq, p})
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(recs, func(a, b seqRec) int { return cmp.Compare(a.seq, b.seq) })
	return recs, nil
}

// encodeKV serializes a key-value pair into one payload data section:
// a 4-byte key length, the key, then the value.
func encodeKV(key string, val []byte) []byte { return encodeKVInto(nil, key, val) }

// encodeKVInto is encodeKV reusing buf's array when it is large enough.
func encodeKVInto(buf []byte, key string, val []byte) []byte {
	n := 4 + len(key) + len(val)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint32(buf, uint32(len(key)))
	copy(buf[4:], key)
	copy(buf[4+len(key):], val)
	return buf
}

// decodeKV splits a payload data section produced by encodeKV. The
// returned slices alias data.
func decodeKV(data []byte) (key string, val []byte, ok bool) {
	if len(data) < 4 {
		return "", nil, false
	}
	kl := int(binary.LittleEndian.Uint32(data))
	if 4+kl > len(data) {
		return "", nil, false
	}
	return string(data[4 : 4+kl]), data[4+kl:], true
}

// decodeVal is decodeKV without materializing the key string — the
// zero-alloc read path, where the caller already knows the key. The
// returned slice aliases data.
func decodeVal(data []byte) (val []byte, ok bool) {
	if len(data) < 4 {
		return nil, false
	}
	kl := int(binary.LittleEndian.Uint32(data))
	if 4+kl > len(data) {
		return nil, false
	}
	return data[4+kl:], true
}

// Viewer receives a borrowed view of a stored value, valid only for
// the duration of the call (the owning structure's lock is held). It
// is an interface rather than a func parameter so hot-path callers can
// pass a reused object instead of a closure that escapes per call.
type Viewer interface {
	View(val []byte)
}

// encodeSeqVal serializes a queue item: an 8-byte sequence number then
// the value.
func encodeSeqVal(seq uint64, val []byte) []byte {
	buf := make([]byte, 8+len(val))
	binary.LittleEndian.PutUint64(buf, seq)
	copy(buf[8:], val)
	return buf
}

// decodeSeqVal splits a payload data section produced by encodeSeqVal.
func decodeSeqVal(data []byte) (seq uint64, val []byte, ok bool) {
	if len(data) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(data), data[8:], true
}

// fnv1a hashes a key for bucket selection.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
