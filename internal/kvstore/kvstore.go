// Package kvstore implements a memcached-like in-process key-value store
// with pluggable backends, standing in for the protected-library
// memcached variant (Kjellqvist et al., ICPP '20) that the paper uses to
// validate its microbenchmark results in Section 6.2. Like that variant,
// it links directly into the client application, dispensing with
// socket-based communication, and its index always lives in DRAM while
// item payloads live wherever the backend puts them: the Montage backend
// gives a fully persistent, recoverable cache; the transient backends
// give the DRAM (T) / NVM (T) reference lines of Figure 10.
//
// internal/server puts a real network front end over a Store. To support
// it, every mutating operation returns a DurabilityTag naming the shard
// and Montage epoch in which it linearized; a caller holding a tag can
// wait for the write's natural durability against the owning shard's
// persist watermark (epoch.Sys.WaitPersisted) instead of forcing an
// expensive per-operation Sync. Transient backends have no epochs and
// return the zero tag.
package kvstore

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"montage/internal/baselines"
	"montage/internal/core"
	"montage/internal/obs"
	"montage/internal/pds"
)

// DurabilityTag names the point at which a mutation linearized: the
// pool shard that owns the key and the shard-local epoch of the update.
// Epochs are meaningful only within their shard — each shard is an
// independent epoch domain, so tags from different shards are not
// ordered with respect to each other. The zero tag means the backend
// has no epoch semantics (transient backends) and there is nothing to
// wait for.
type DurabilityTag struct {
	Shard int
	Epoch uint64
}

// IsZero reports whether the tag carries no durability obligation.
func (t DurabilityTag) IsZero() bool { return t.Epoch == 0 }

// Backend stores item payloads.
type Backend interface {
	// Get returns the value stored under key.
	Get(tid int, key string) ([]byte, bool)
	// Put inserts or updates key=val, returning the durability tag of
	// the update (zero for backends without epoch semantics). val is
	// only valid for the duration of the call (the store encodes into
	// reused scratch); key may borrow a reused buffer, so a backend
	// that retains it must clone it.
	Put(tid int, key string, val []byte) (DurabilityTag, error)
	// Delete removes key, reporting whether it was present and the
	// durability tag of the deletion.
	Delete(tid int, key string) (bool, DurabilityTag, error)
	// Keys lists the stored keys (not linearizable; admin use).
	Keys(tid int) []string
	// Len returns the number of stored keys.
	Len() int
}

// MontageBackend persists items in a single Montage hashmap (shard 0 of
// a one-shard world). For a sharded pool, use ShardedBackend.
type MontageBackend struct {
	m *pds.HashMap
}

// NewMontageBackend wraps a Montage hashmap.
func NewMontageBackend(m *pds.HashMap) *MontageBackend { return &MontageBackend{m: m} }

// Get implements Backend.
func (b *MontageBackend) Get(tid int, key string) ([]byte, bool) { return b.m.Get(tid, key) }

// GetView implements the borrowed-read fast path.
func (b *MontageBackend) GetView(tid int, key string, v RawViewer) bool {
	return b.m.GetView(tid, key, v)
}

// Put implements Backend.
func (b *MontageBackend) Put(tid int, key string, val []byte) (DurabilityTag, error) {
	epoch, err := b.m.PutE(tid, key, val)
	return DurabilityTag{Epoch: epoch}, err
}

// Delete implements Backend.
func (b *MontageBackend) Delete(tid int, key string) (bool, DurabilityTag, error) {
	ok, epoch, err := b.m.RemoveE(tid, key)
	return ok, DurabilityTag{Epoch: epoch}, err
}

// Keys implements Backend.
func (b *MontageBackend) Keys(tid int) []string { return mapKeys(tid, b.m) }

// Len implements Backend.
func (b *MontageBackend) Len() int { return b.m.Len() }

// mapKeys lists the keys of the given hashmaps without copying values.
func mapKeys(tid int, maps ...*pds.HashMap) (keys []string) {
	for _, m := range maps {
		m.Range(tid, func(key string, _ []byte) { keys = append(keys, key) })
	}
	return keys
}

// TransientBackend keeps items in a transient map (DRAM or NVM medium).
type TransientBackend struct {
	m *baselines.TransientMap
}

// NewTransientBackend wraps a transient map.
func NewTransientBackend(m *baselines.TransientMap) *TransientBackend {
	return &TransientBackend{m: m}
}

// Get implements Backend.
func (b *TransientBackend) Get(tid int, key string) ([]byte, bool) { return b.m.Get(tid, key) }

// GetView implements the borrowed-read fast path.
func (b *TransientBackend) GetView(tid int, key string, v RawViewer) bool {
	return b.m.GetView(tid, key, v)
}

// Put implements Backend.
func (b *TransientBackend) Put(tid int, key string, val []byte) (DurabilityTag, error) {
	_, err := b.m.Put(tid, key, val)
	return DurabilityTag{}, err
}

// Delete implements Backend.
func (b *TransientBackend) Delete(tid int, key string) (bool, DurabilityTag, error) {
	ok, err := b.m.Remove(tid, key)
	return ok, DurabilityTag{}, err
}

// Keys implements Backend.
func (b *TransientBackend) Keys(tid int) []string { return b.m.Keys() }

// Len implements Backend.
func (b *TransientBackend) Len() int { return b.m.Len() }

// Stats counts cache activity.
type Stats struct {
	Hits        atomic.Uint64
	Misses      atomic.Uint64
	Sets        atomic.Uint64
	Deletes     atomic.Uint64
	Touches     atomic.Uint64
	CASHits     atomic.Uint64 // cas with a matching token
	CASMisses   atomic.Uint64 // cas whose token no longer matched
	Expirations atomic.Uint64
}

// itemHeaderSize is the per-item persisted metadata: absolute expiry
// (unix nanoseconds; 0 = never) and the CAS token, memcached-style. Both
// persist with the item, so TTLs and gets/cas tokens survive crashes.
const itemHeaderSize = 16

// encodeItem prefixes a value with its expiry and CAS token.
func encodeItem(expiry int64, cas uint64, val []byte) []byte {
	buf := make([]byte, itemHeaderSize+len(val))
	binary.LittleEndian.PutUint64(buf, uint64(expiry))
	binary.LittleEndian.PutUint64(buf[8:], cas)
	copy(buf[itemHeaderSize:], val)
	return buf
}

func decodeItem(data []byte) (expiry int64, cas uint64, val []byte, ok bool) {
	if len(data) < itemHeaderSize {
		return 0, 0, nil, false
	}
	return int64(binary.LittleEndian.Uint64(data)),
		binary.LittleEndian.Uint64(data[8:]),
		data[itemHeaderSize:], true
}

// RawViewer receives the raw encoded item borrowed from a backend,
// valid only for the duration of the call.
type RawViewer interface {
	View(item []byte)
}

// ValueViewer receives a borrowed view of an item's decoded value and
// CAS token, valid only for the duration of the call. The server's get
// path renders VALUE blocks straight from the view.
type ValueViewer interface {
	ViewValue(val []byte, cas uint64)
}

// viewBackend is satisfied by backends that can expose a borrowed read
// (all the built-in ones). Backends without it fall back to the
// copying Get in Store.GetView.
type viewBackend interface {
	GetView(tid int, key string, v RawViewer) bool
}

// viewState adapts a backend's raw item view to the caller's value
// view: decode the header, check expiry, forward. Pooled so the read
// path allocates nothing.
type viewState struct {
	s       *Store
	v       ValueViewer
	hit     bool
	expired bool
}

func (st *viewState) View(item []byte) {
	expiry, cas, val, okd := decodeItem(item)
	if !okd {
		return
	}
	if expiry != 0 && expiry <= st.s.now() {
		st.expired = true
		return
	}
	st.hit = true
	st.v.ViewValue(val, cas)
}

var viewStatePool = sync.Pool{New: func() any { return new(viewState) }}

// CASOutcome is the result of a CompareAndSwap.
type CASOutcome int

const (
	// CASStored means the token matched and the value was replaced.
	CASStored CASOutcome = iota
	// CASExists means the item was modified since the token was fetched.
	CASExists
	// CASNotFound means the key is absent (or expired).
	CASNotFound
)

// nStripes is the size of the key-striped lock table that makes
// read-modify-write operations (Add/Replace/CompareAndSwap/Touch)
// atomic with respect to every other mutation of the same key. A get
// takes its stripe only to reap an expired item; a hit takes none.
const nStripes = 256

// Store is the memcached-like cache. It is unbounded: items leave only
// by delete, flush_all or expiry, as in the paper's memcached runs,
// which have no memory pressure.
type Store struct {
	backend Backend
	stats   Stats
	now     func() int64 // injectable clock for TTL tests
	casSeq  atomic.Uint64
	seed    maphash.Seed

	// stripes serialize mutations per key so that check-then-act
	// operations and CAS-token assignment are atomic. Reads stay
	// lock-free at this layer.
	stripes [nStripes]sync.Mutex
	// encBufs are per-stripe item-encode scratch buffers (guarded by the
	// matching stripe lock): backends copy the encoded bytes out before
	// returning, so the steady-state write path never allocates here.
	encBufs [nStripes][]byte
}

// New creates a store over backend. capacity must be 0: eviction was
// removed, and New panics on any other value so that no caller can
// believe it still bounds the store.
func New(backend Backend, capacity int) *Store {
	if capacity != 0 {
		panic("kvstore: capacity must be 0; eviction was removed")
	}
	return &Store{
		backend: backend,
		now:     func() int64 { return time.Now().UnixNano() },
		seed:    maphash.MakeSeed(),
	}
}

// Stats returns the activity counters.
func (s *Store) Stats() *Stats { return &s.stats }

// stripeIdx maps a key to its stripe index.
func (s *Store) stripeIdx(key string) int {
	return int(maphash.String(s.seed, key) % nStripes)
}

func (s *Store) stripe(key string) *sync.Mutex {
	return &s.stripes[s.stripeIdx(key)]
}

// live loads key's item if present and unexpired. It never deletes; the
// Get path owns lazy expiration.
func (s *Store) live(tid int, key string) (cas uint64, expiry int64, val []byte, ok bool) {
	data, present := s.backend.Get(tid, key)
	if !present {
		return 0, 0, nil, false
	}
	expiry, cas, val, okd := decodeItem(data)
	if !okd || (expiry != 0 && expiry <= s.now()) {
		return 0, 0, nil, false
	}
	return cas, expiry, val, true
}

// Get returns the value for key. Expired items count as misses and are
// lazily deleted, as in memcached.
func (s *Store) Get(tid int, key string) ([]byte, bool) {
	v, _, ok := s.GetWithCAS(tid, key)
	return v, ok
}

// GetView is Get/GetWithCAS without the copies: on a hit, v.ViewValue
// receives the value borrowed from the backend — valid only during the
// call — and the item's CAS token. Misses and expired items (lazily
// deleted, as in Get) never call v. Backends without view support fall
// back to the copying path.
func (s *Store) GetView(tid int, key string, v ValueViewer) bool {
	vb, ok := s.backend.(viewBackend)
	if !ok {
		val, cas, hit := s.GetWithCAS(tid, key)
		if hit {
			v.ViewValue(val, cas)
		}
		return hit
	}
	st := viewStatePool.Get().(*viewState)
	st.s, st.v, st.hit, st.expired = s, v, false, false
	present := vb.GetView(tid, key, st)
	hit, expired := st.hit, st.expired
	st.s, st.v = nil, nil
	viewStatePool.Put(st)
	if hit {
		s.stats.Hits.Add(1)
		return true
	}
	if present && expired {
		// Lazy expiration, under the stripe so a concurrent writer's
		// fresh item is never the one deleted.
		mu := s.stripe(key)
		mu.Lock()
		if data2, ok2 := s.backend.Get(tid, key); ok2 {
			if exp2, _, _, okd2 := decodeItem(data2); okd2 && exp2 != 0 && exp2 <= s.now() {
				s.stats.Expirations.Add(1)
				s.backend.Delete(tid, key)
			}
		}
		mu.Unlock()
	}
	s.stats.Misses.Add(1)
	return false
}

// GetWithCAS is Get, additionally returning the item's CAS token (the
// memcached "gets" unique value, for a later CompareAndSwap).
func (s *Store) GetWithCAS(tid int, key string) ([]byte, uint64, bool) {
	data, ok := s.backend.Get(tid, key)
	if ok {
		expiry, cas, v, okd := decodeItem(data)
		if okd && (expiry == 0 || expiry > s.now()) {
			s.stats.Hits.Add(1)
			return v, cas, true
		}
		if okd {
			// Lazy expiration, under the stripe so a concurrent writer's
			// fresh item is never the one deleted.
			mu := s.stripe(key)
			mu.Lock()
			if data2, ok2 := s.backend.Get(tid, key); ok2 {
				if exp2, _, _, okd2 := decodeItem(data2); okd2 && exp2 != 0 && exp2 <= s.now() {
					s.stats.Expirations.Add(1)
					s.backend.Delete(tid, key)
				}
			}
			mu.Unlock()
		}
	}
	s.stats.Misses.Add(1)
	return nil, 0, false
}

// TTLImmediate is the "already expired" TTL sentinel: memcached's
// negative exptime means the item is stored but immediately expired.
// It maps to an absolute expiry in the past unconditionally, which a
// tiny positive TTL (e.g. 1ns) does not guarantee — under the
// injectable test clock, now() never advances, so now()+1ns would
// still be in the future forever.
const TTLImmediate time.Duration = -1

// expiryFor converts a relative ttl into an absolute expiry: 0 never
// expires, negative (TTLImmediate) is expired before any clock
// reading, positive is relative to now.
func (s *Store) expiryFor(ttl time.Duration) int64 {
	switch {
	case ttl == 0:
		return 0
	case ttl < 0:
		return -1 // before every clock: expired immediately
	default:
		return s.now() + int64(ttl)
	}
}

// encodeInto encodes an item into stripe idx's scratch buffer. The
// caller holds the stripe lock; every backend copies the bytes out
// before returning, so the buffer is free for reuse immediately.
func (s *Store) encodeInto(idx int, expiry int64, cas uint64, val []byte) []byte {
	need := itemHeaderSize + len(val)
	buf := s.encBufs[idx]
	if cap(buf) < need {
		buf = make([]byte, 0, need+need/2)
	}
	buf = buf[:need]
	s.encBufs[idx] = buf
	binary.LittleEndian.PutUint64(buf, uint64(expiry))
	binary.LittleEndian.PutUint64(buf[8:], cas)
	copy(buf[itemHeaderSize:], val)
	return buf
}

// put stores the item under a fresh CAS token. Callers hold the stripe.
func (s *Store) put(tid int, key string, expiry int64, val []byte) (DurabilityTag, error) {
	tag, err := s.backend.Put(tid, key, s.encodeInto(s.stripeIdx(key), expiry, s.casSeq.Add(1), val))
	if err != nil {
		return DurabilityTag{}, err
	}
	s.stats.Sets.Add(1)
	return tag, nil
}

// Set stores key=val with no expiry.
func (s *Store) Set(tid int, key string, val []byte) error {
	_, err := s.SetTag(tid, key, val, 0)
	return err
}

// SetTTL stores key=val expiring after ttl (0 = never).
func (s *Store) SetTTL(tid int, key string, val []byte, ttl time.Duration) error {
	_, err := s.SetTag(tid, key, val, ttl)
	return err
}

// SetTag is Set/SetTTL returning the write's durability tag.
func (s *Store) SetTag(tid int, key string, val []byte, ttl time.Duration) (DurabilityTag, error) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	return s.put(tid, key, s.expiryFor(ttl), val)
}

// Add stores key=val only if the key is absent (memcached "add").
func (s *Store) Add(tid int, key string, val []byte, ttl time.Duration) (stored bool, tag DurabilityTag, err error) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	if _, _, _, ok := s.live(tid, key); ok {
		return false, DurabilityTag{}, nil
	}
	tag, err = s.put(tid, key, s.expiryFor(ttl), val)
	return err == nil, tag, err
}

// Replace stores key=val only if the key is present (memcached
// "replace").
func (s *Store) Replace(tid int, key string, val []byte, ttl time.Duration) (stored bool, tag DurabilityTag, err error) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	if _, _, _, ok := s.live(tid, key); !ok {
		return false, DurabilityTag{}, nil
	}
	tag, err = s.put(tid, key, s.expiryFor(ttl), val)
	return err == nil, tag, err
}

// CompareAndSwap stores key=val only if the item's CAS token still
// equals cas (memcached "cas", with the token from GetWithCAS).
func (s *Store) CompareAndSwap(tid int, key string, val []byte, ttl time.Duration, cas uint64) (CASOutcome, DurabilityTag, error) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	cur, _, _, ok := s.live(tid, key)
	if !ok {
		s.stats.CASMisses.Add(1)
		return CASNotFound, DurabilityTag{}, nil
	}
	if cur != cas {
		s.stats.CASMisses.Add(1)
		return CASExists, DurabilityTag{}, nil
	}
	tag, err := s.put(tid, key, s.expiryFor(ttl), val)
	if err != nil {
		return CASExists, DurabilityTag{}, err
	}
	s.stats.CASHits.Add(1)
	return CASStored, tag, nil
}

// Touch updates key's expiry without changing its value (memcached
// "touch"). The rewritten item gets a fresh CAS token.
func (s *Store) Touch(tid int, key string, ttl time.Duration) (found bool, tag DurabilityTag, err error) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	_, _, val, ok := s.live(tid, key)
	if !ok {
		return false, DurabilityTag{}, nil
	}
	tag, err = s.backend.Put(tid, key, s.encodeInto(s.stripeIdx(key), s.expiryFor(ttl), s.casSeq.Add(1), val))
	if err != nil {
		return false, DurabilityTag{}, err
	}
	s.stats.Touches.Add(1)
	return true, tag, nil
}

// Delete removes key.
func (s *Store) Delete(tid int, key string) (bool, error) {
	ok, _, err := s.DeleteTag(tid, key)
	return ok, err
}

// DeleteTag is Delete returning the deletion's durability tag.
func (s *Store) DeleteTag(tid int, key string) (bool, DurabilityTag, error) {
	mu := s.stripe(key)
	mu.Lock()
	defer mu.Unlock()
	ok, tag, err := s.backend.Delete(tid, key)
	if err != nil {
		return false, DurabilityTag{}, err
	}
	if ok {
		s.stats.Deletes.Add(1)
	}
	return ok, tag, nil
}

// Flush deletes every key (memcached "flush_all"), returning the number
// removed and the newest deletion tag per shard touched. A caller that
// wants the flush durable must wait on every returned tag — the
// deletions land in independent epoch domains.
func (s *Store) Flush(tid int) (int, []DurabilityTag, error) {
	n := 0
	newest := make(map[int]uint64)
	for _, key := range s.backend.Keys(tid) {
		ok, t, err := s.DeleteTag(tid, key)
		if err != nil {
			return n, flushTags(newest), err
		}
		if ok {
			n++
		}
		if !t.IsZero() && t.Epoch > newest[t.Shard] {
			newest[t.Shard] = t.Epoch
		}
	}
	return n, flushTags(newest), nil
}

func flushTags(newest map[int]uint64) []DurabilityTag {
	if len(newest) == 0 {
		return nil
	}
	tags := make([]DurabilityTag, 0, len(newest))
	for shard, epoch := range newest {
		tags = append(tags, DurabilityTag{Shard: shard, Epoch: epoch})
	}
	return tags
}

// Keys lists the store's keys (admin/debug use; not linearizable).
func (s *Store) Keys(tid int) []string { return s.backend.Keys(tid) }

// Len returns the number of stored items, expired ones included until a
// get reaps them. O(1) on the Montage backends.
func (s *Store) Len() int { return s.backend.Len() }

// restoreCASSeq resumes the CAS-token sequence above the largest token
// in the recovered maps, so gets/cas pairs span the crash correctly.
func (s *Store) restoreCASSeq(maps ...*pds.HashMap) {
	var maxCAS uint64
	for _, m := range maps {
		m.Range(0, func(_ string, item []byte) {
			if _, cas, _, ok := decodeItem(item); ok && cas > maxCAS {
				maxCAS = cas
			}
		})
	}
	s.casSeq.Store(maxCAS)
}

// RecoverMontageStore rebuilds a single-system Montage-backed store
// after a crash. CAS tokens persist with the items, so the token
// sequence resumes above the largest survivor.
func RecoverMontageStore(sys *core.System, nBuckets int, chunks [][]*core.PBlk) (*Store, error) {
	start := time.Now()
	m, err := pds.RecoverHashMap(sys, nBuckets, chunks)
	if err != nil {
		return nil, err
	}
	s := New(NewMontageBackend(m), 0)
	s.restoreCASSeq(m)
	sys.Recorder().Add(0, obs.CRecoveryBuildNs, uint64(time.Since(start).Nanoseconds()))
	return s, nil
}
