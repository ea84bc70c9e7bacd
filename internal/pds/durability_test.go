package pds

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"montage/internal/core"
	"montage/internal/pmem"
)

// TestHashMapMixedSyncCrashRecover is the library-level durability
// regression: one worker plus the real-time epoch daemon drive a
// get:insert:remove 2:1:1 mix over a key range twice the preload (so
// inserts and removes both succeed about half the time and reclamation
// runs constantly), then Sync, a drop-all crash, and recovery. Sync
// covers every completed operation, so the recovered map must equal the
// shadow exactly: no lost insert, no resurrected remove, no stale
// version, and as many allocated blocks as live keys.
func TestHashMapMixedSyncCrashRecover(t *testing.T) {
	const (
		keyRange = 16384
		ops      = 200_000
		buckets  = 8192
		valueLen = 256
	)
	cfg := core.Config{ArenaSize: 64 << 20, MaxThreads: 2}
	cfg.Epoch.EpochLength = time.Millisecond
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewHashMap(sys, buckets)

	keys := make([]string, keyRange)
	for id := range keys {
		keys[id] = fmt.Sprintf("key-%06d", id)
	}
	// shadow[id] is the version the key holds, 0 when absent; a value
	// carries its key id and version so a stale image is recognizable.
	shadow := make([]uint64, keyRange)
	val := make([]byte, valueLen)
	value := func(id int, version uint64) []byte {
		binary.LittleEndian.PutUint64(val[0:], uint64(id))
		binary.LittleEndian.PutUint64(val[8:], version)
		return val
	}
	check := func(m *HashMap, id int) error {
		v, hit := m.Get(0, keys[id])
		switch want := shadow[id]; {
		case hit != (want != 0):
			return fmt.Errorf("key %d: present=%v, shadow version %d", id, hit, want)
		case hit && (len(v) != valueLen || binary.LittleEndian.Uint64(v) != uint64(id) || binary.LittleEndian.Uint64(v[8:]) != want):
			return fmt.Errorf("key %d: holds id %d version %d, shadow version %d",
				id, binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:]), want)
		}
		return nil
	}

	for id := 0; id < keyRange/2; id++ {
		shadow[id] = 1
		if ok, err := m.Insert(0, keys[id], value(id, 1)); err != nil || !ok {
			t.Fatalf("preload key %d: inserted=%v err=%v", id, ok, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := uint64(2); i < ops+2; i++ {
		id := rng.Intn(keyRange)
		switch rng.Intn(4) {
		case 0, 1:
			if err := check(m, id); err != nil {
				t.Fatalf("op %d get: %v", i, err)
			}
		case 2:
			ok, err := m.Insert(0, keys[id], value(id, i))
			if err != nil || ok != (shadow[id] == 0) {
				t.Fatalf("op %d insert key %d: inserted=%v err=%v, shadow version %d", i, id, ok, err, shadow[id])
			}
			if ok {
				shadow[id] = i
			}
		case 3:
			ok, err := m.Remove(0, keys[id])
			if err != nil || ok != (shadow[id] != 0) {
				t.Fatalf("op %d remove key %d: removed=%v err=%v, shadow version %d", i, id, ok, err, shadow[id])
			}
			shadow[id] = 0
		}
	}

	sys.Sync(0)
	sys.Abandon()
	sys.Device().Crash(pmem.CrashDropAll)
	sys2, chunks, err := core.RecoverParallel(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	m2, err := RecoverHashMap(sys2, buckets, chunks)
	if err != nil {
		t.Fatal(err)
	}
	live, bad := 0, 0
	for id := range shadow {
		if shadow[id] != 0 {
			live++
		}
		if err := check(m2, id); err != nil {
			if bad++; bad <= 10 {
				t.Errorf("after recovery: %v", err)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d keys differ from the shadow after Sync + crash + recovery", bad, keyRange)
	}
	if got := m2.Len(); got != live {
		t.Errorf("recovered map holds %d keys, shadow %d", got, live)
	}
	if got := sys2.Heap().Live(); got != int64(live) {
		t.Errorf("recovered heap has %d blocks allocated, shadow has %d live keys", got, live)
	}
}

// TestHashMapSharedKeysOverflowSyncCrashRecover has several workers
// update the same few keys, so a payload one worker queued (and will
// write back when its 2-entry buffer overflows, or when it helps a sync)
// is updated in place by the others within the same epoch. The write-back
// must see whole values (the race detector checks that half) and an
// update that lands after it must be queued again: after Sync, crash and
// recovery, every key holds exactly what the live map held.
func TestHashMapSharedKeysOverflowSyncCrashRecover(t *testing.T) {
	const (
		workers = 4
		keys    = 6
		rounds  = 4000
	)
	cfg := core.Config{ArenaSize: 16 << 20, MaxThreads: workers + 1}
	cfg.Epoch.BufferSize = 2
	cfg.Epoch.EpochLength = time.Millisecond
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewHashMap(sys, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			val := make([]byte, 48)
			for i := 0; i < rounds; i++ {
				for j := range val {
					val[j] = byte(w<<4 | i&15) // a torn image mixes two fills
				}
				if _, err := m.Put(w, fmt.Sprintf("hot-%d", rng.Intn(keys)), val); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					sys.Sync(w) // makes the other workers help from BeginOp
				}
			}
		}(w)
	}
	wg.Wait()
	want := m.Snapshot(0)

	sys.Sync(0)
	sys.Abandon()
	sys.Device().Crash(pmem.CrashDropAll)
	sys2, chunks, err := core.RecoverParallel(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	m2, err := RecoverHashMap(sys2, 4, chunks)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Snapshot(0)
	if len(got) != len(want) {
		t.Errorf("recovered %d keys, live map had %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Errorf("key %s: recovered %x, live map held %x", k, got[k], v)
		}
	}
}
