// Package pds provides the persistent data structures built on the
// Montage runtime: the single-lock queue and lock-per-bucket hashmap used
// in the paper's evaluation (Sections 6.1–6.2), the nonblocking queue and
// set sketched in Section 3.3, a skiplist-indexed ordered map, and the
// general graph of Section 6.3.
//
// Every structure follows the same recipe: the semantic state (items,
// key-value pairs, vertices and edges) lives in Montage payloads; the
// lookup structure is transient, synchronizes all concurrent access, and
// is rebuilt from the payloads after a crash.
package pds

import "encoding/binary"

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
	// TagSkipList is the default tag of SkipListMap payloads.
	TagSkipList uint16 = 5
	// TagGraph is the default tag of Graph payloads.
	TagGraph uint16 = 6
)

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
