package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"montage/internal/baselines"
	"montage/internal/core"
	"montage/internal/pds"
	"montage/internal/pmem"
)

func newMontageStore(t *testing.T) (*Store, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{ArenaSize: 1 << 24, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := pds.NewHashMap(sys, 256)
	return New(NewMontageBackend(m), 0), sys
}

func TestStoreGetSetDelete(t *testing.T) {
	s, _ := newMontageStore(t)
	if _, ok := s.Get(0, "k"); ok {
		t.Fatal("get on empty store")
	}
	if err := s.Set(0, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(0, "k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if err := s.Set(0, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(0, "k"); string(v) != "v2" {
		t.Fatal("update lost")
	}
	if ok, err := s.Delete(0, "k"); err != nil || !ok {
		t.Fatal(err)
	}
	if _, ok := s.Get(0, "k"); ok {
		t.Fatal("deleted key present")
	}
	st := s.Stats()
	if st.Hits.Load() != 2 || st.Misses.Load() != 2 || st.Sets.Load() != 2 || st.Deletes.Load() != 1 {
		t.Fatalf("stats: hits=%d misses=%d sets=%d deletes=%d",
			st.Hits.Load(), st.Misses.Load(), st.Sets.Load(), st.Deletes.Load())
	}
}

// TestNewRejectsCapacity checks that New refuses a nonzero capacity:
// the store has no eviction, so a caller asking for a bound must fail
// loudly rather than get an unbounded store.
func TestNewRejectsCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(backend, 8) did not panic")
		}
	}()
	New(NewMontageBackend(nil), 8)
}

func TestStoreTransientBackend(t *testing.T) {
	env, err := baselines.NewEnv(1<<22, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(NewTransientBackend(baselines.NewTransientMap(env, baselines.DRAM, 64)), 0)
	if err := s.Set(0, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(0, "a"); !ok || string(v) != "1" {
		t.Fatal("transient backend broken")
	}
}

func TestStoreCrashRecovery(t *testing.T) {
	s, sys := newMontageStore(t)
	for i := 0; i < 20; i++ {
		if err := s.Set(0, fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sys.Sync(0)
	s.Set(0, "unsynced", []byte("x"))
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, chunks, err := core.RecoverParallel(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RecoverMontageStore(sys2, 256, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v, ok := s2.Get(0, fmt.Sprintf("key%d", i))
		if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val%d", i))) {
			t.Fatalf("key%d = %q %v after recovery", i, v, ok)
		}
	}
	if _, ok := s2.Get(0, "unsynced"); ok {
		t.Fatal("unsynced item recovered")
	}
}

func TestStoreTTL(t *testing.T) {
	s, _ := newMontageStore(t)
	now := int64(1_000_000)
	s.now = func() int64 { return now }
	if err := s.SetTTL(0, "ephemeral", []byte("v"), 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, "forever", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(0, "ephemeral"); !ok {
		t.Fatal("item expired too early")
	}
	now += 101
	if _, ok := s.Get(0, "ephemeral"); ok {
		t.Fatal("expired item served")
	}
	if s.Stats().Expirations.Load() != 1 {
		t.Fatalf("expirations = %d", s.Stats().Expirations.Load())
	}
	// Lazy deletion removed it from the backend.
	if _, ok := s.backend.Get(0, "ephemeral"); ok {
		t.Fatal("expired item not lazily deleted")
	}
	if _, ok := s.Get(0, "forever"); !ok {
		t.Fatal("non-expiring item lost")
	}
}

func TestStoreTTLSurvivesCrash(t *testing.T) {
	s, sys := newMontageStore(t)
	base := int64(5_000_000)
	s.now = func() int64 { return base }
	if err := s.SetTTL(0, "k", []byte("v"), 1000); err != nil {
		t.Fatal(err)
	}
	sys.Sync(0)
	sys.Device().Crash(pmem.CrashDropAll)
	sys2, chunks, err := core.RecoverParallel(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RecoverMontageStore(sys2, 256, chunks)
	if err != nil {
		t.Fatal(err)
	}
	s2.now = func() int64 { return base + 500 }
	if _, ok := s2.Get(0, "k"); !ok {
		t.Fatal("unexpired item lost across crash")
	}
	s2.now = func() int64 { return base + 1001 }
	if _, ok := s2.Get(0, "k"); ok {
		t.Fatal("persisted TTL not honored after crash")
	}
}

func TestStoreKeys(t *testing.T) {
	s, _ := newMontageStore(t)
	for i := 0; i < 5; i++ {
		s.Set(0, fmt.Sprintf("k%d", i), []byte("v"))
	}
	keys := s.Keys(0)
	if len(keys) != 5 {
		t.Fatalf("Keys returned %d entries", len(keys))
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[fmt.Sprintf("k%d", i)] {
			t.Fatalf("key k%d missing", i)
		}
	}
}

// TestStoreNegativeTTLFrozenClock pins the TTLImmediate fix: a negative
// TTL means "stored but already expired", and it must hold even under a
// frozen clock — the sentinel maps to an absolute expiry before every
// possible clock reading, where a tiny positive TTL (now()+1ns) would
// stay in the future forever when now() never advances.
func TestStoreNegativeTTLFrozenClock(t *testing.T) {
	s, _ := newMontageStore(t)
	now := int64(1_000_000)
	s.now = func() int64 { return now } // frozen: never advances
	if err := s.SetTTL(0, "doomed", []byte("v"), -time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(0, "doomed"); ok {
		t.Fatal("negative-TTL item served: ttl<0 must mean already expired")
	}
	if err := s.SetTTL(0, "doomed2", []byte("v"), TTLImmediate); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(0, "doomed2"); ok {
		t.Fatal("TTLImmediate item served")
	}

	// Touching an existing item to a negative TTL expires it the same way.
	if err := s.Set(0, "touched", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if found, _, err := s.Touch(0, "touched", TTLImmediate); err != nil || !found {
		t.Fatalf("touch: found=%v err=%v", found, err)
	}
	if _, ok := s.Get(0, "touched"); ok {
		t.Fatal("item touched to negative TTL still served")
	}
}

// TestAllocsPerSetMontage pins the serving set path's allocation count.
// Every measured set replaces a payload from an older epoch — the
// copying path, as under uniform keys — which costs the new payload
// block and its data; the pair's encoding goes through per-thread
// scratch and the replaced value is never materialised. Three leaves
// room for the amortised growth of the epoch's containers.
func TestAllocsPerSetMontage(t *testing.T) {
	s, sys := newMontageStore(t)
	const runs = 200
	keys := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	val := bytes.Repeat([]byte{'v'}, 104)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%012d", i)
		if _, err := s.SetTag(0, keys[i], val, 0); err != nil {
			t.Fatal(err)
		}
	}
	sys.Advance()
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.SetTag(0, keys[i], val, 0); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 3 {
		t.Fatalf("montage set allocates %.1f objects/op, want <= 3", allocs)
	}
	t.Logf("montage set: %.2f allocs/op", allocs)
}
