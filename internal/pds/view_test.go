package pds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"montage/internal/core"
	"montage/internal/epoch"
	"montage/internal/pmem"
)

// viewLen is the length of every test value: 1 KB, as in the paper's
// Fig. 8b, so a read spends a while copying one.
const viewLen = 1024

// viewVal is generation gen's value of key: it names the key at both
// ends, so a read that lands on another payload's bytes shows, and all
// values have one length, so every version of every key shares a size
// class and a freed block can go to any of them.
func viewVal(key string, gen int) []byte {
	tag := fmt.Sprintf("%s=%d;", key, gen)
	v := append([]byte(tag), bytes.Repeat([]byte{'.'}, viewLen-2*len(tag))...)
	return append(v, tag...)
}

// validVal reports whether v is some generation's value of key.
func validVal(key string, v []byte) bool {
	if len(v) != viewLen || !bytes.HasPrefix(v, []byte(key+"=")) {
		return false
	}
	tag := v[:bytes.IndexByte(v, ';')+1]
	return bytes.HasSuffix(v, tag)
}

// crashAndRecover runs fill on a fresh system, makes its work durable,
// crashes the device and recovers it with cfg, whose epoch daemon (if
// any) runs only on the recovered system. It returns the recovered
// system, two survivor chunks and a copy of each survivor's data.
func crashAndRecover(t *testing.T, cfg core.Config, fill func(sys *core.System)) (*core.System, [][]*core.PBlk, map[*core.PBlk][]byte) {
	t.Helper()
	build := cfg
	build.Epoch.EpochLength = 0
	sys, err := core.NewSystem(build)
	if err != nil {
		t.Fatal(err)
	}
	fill(sys)
	sys.Sync(0)
	sys.Abandon()
	sys.Device().Crash(pmem.CrashDropAll)
	sys2, chunks, err := core.RecoverParallel(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recovered := map[*core.PBlk][]byte{}
	for _, c := range chunks {
		for _, p := range c {
			recovered[p] = bytes.Clone(sys2.Read(0, p))
		}
	}
	return sys2, chunks, recovered
}

// lfKV is what the reader-safety test drives on LFSet and LFSkipList.
type lfKV interface {
	Insert(tid int, key string, val []byte) (bool, error)
	Remove(tid int, key string) (bool, error)
	Get(tid int, key string) ([]byte, bool)
	Snapshot(tid int) map[string][]byte
}

// TestLockFreeReadsOfRecoveredPayloads: a recovered payload's data is its
// block in the arena, and the lock-free reads (Get, and RangeScan under
// Snapshot) hold no lock against Remove. In each of several crash and
// recovery cycles, writers remove and re-insert every recovered key,
// syncing every few keys, while a 50 µs epoch reclaims the removed blocks
// and hands them to the new versions; every value a reader sees must be
// one written for its key. Without the readers' epoch registration
// (core.System.BeginRead), a reader descheduled across a reclamation
// reads another key's bytes, or read bytes that a commit then rewrites
// with nothing ordering the two: the race detector reports the latter,
// and the value check the former.
func TestLockFreeReadsOfRecoveredPayloads(t *testing.T) {
	const keys, writers, readers, cycles, batch = 256, 2, 2, 3, 8
	cfg := core.Config{ArenaSize: 1 << 24, MaxThreads: writers + readers, Epoch: epoch.Config{EpochLength: 50 * time.Microsecond}}
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for _, kind := range []string{"LFSet", "LFSkipList"} {
		t.Run(kind, func(t *testing.T) {
			sys, chunks, _ := crashAndRecover(t, cfg, func(sys *core.System) {
				var m lfKV = NewLFSet(sys)
				if kind == "LFSkipList" {
					m = NewLFSkipList(sys)
				}
				for i := 0; i < keys; i++ {
					if _, err := m.Insert(0, key(i), viewVal(key(i), 0)); err != nil {
						t.Fatal(err)
					}
				}
			})
			for gen := 1; gen <= cycles; gen++ {
				var m lfKV
				var err error
				if kind == "LFSet" {
					m, err = RecoverLFSet(sys, chunks)
				} else {
					m, err = RecoverLFSkipList(sys, chunks)
				}
				if err != nil {
					t.Fatal(err)
				}
				recovered := map[*core.PBlk][]byte{}
				for _, c := range chunks {
					for _, p := range c {
						recovered[p] = bytes.Clone(sys.Read(0, p))
					}
				}
				if len(recovered) != keys {
					t.Fatalf("cycle %d: recovered %d payloads, want %d", gen, len(recovered), keys)
				}

				var done atomic.Bool
				var bad atomic.Int64
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(tid int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(tid)))
						for n := 0; !done.Load() && bad.Load() < 5; n++ {
							k := key(rng.Intn(keys))
							if v, ok := m.Get(tid, k); ok && !validVal(k, v) {
								bad.Add(1)
								t.Errorf("Get(%s) = %q", k, v)
							}
							if n%64 == 0 {
								for k, v := range m.Snapshot(tid) {
									if !validVal(k, v) {
										bad.Add(1)
										t.Errorf("scan: %s = %q", k, v)
									}
								}
							}
						}
					}(writers + r)
				}
				var wwg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wwg.Add(1)
					go func(tid int) {
						defer wwg.Done()
						for i, n := tid, 1; i < keys; i, n = i+writers, n+1 {
							if _, err := m.Remove(tid, key(i)); err != nil {
								t.Error(err)
								return
							}
							if _, err := m.Insert(tid, key(i), viewVal(key(i), gen)); err != nil {
								t.Error(err)
								return
							}
							// Write the new versions back, so a reused
							// block's bytes change: a version removed in
							// its own epoch never reaches the media.
							if n%batch == 0 {
								sys.Sync(tid)
							}
						}
					}(w)
				}
				wwg.Wait()
				done.Store(true)
				wg.Wait()

				// A recovered payload's old view shows other bytes once its
				// block was reclaimed, reused and written back.
				sys.Sync(0)
				reused := 0
				for p, data := range recovered {
					if !bytes.Equal(sys.Read(0, p), data) {
						reused++
					}
				}
				if reused == 0 {
					t.Fatalf("cycle %d: test setup: no recovered block was reclaimed and reused", gen)
				}
				for k, v := range m.Snapshot(0) {
					if !bytes.Equal(v, viewVal(k, gen)) {
						t.Fatalf("cycle %d: %s = %q, want generation %d", gen, k, v, gen)
					}
				}
				sys.Abandon()
				sys.Device().Crash(pmem.CrashDropAll)
				if sys, chunks, err = core.RecoverParallel(sys.Device(), cfg, 2); err != nil {
					t.Fatal(err)
				}
			}
			sys.Abandon()
		})
	}
}

// TestRecoveredBlocksReusedByNewKeys: every key of a recovered HashMap is
// overwritten or removed, the recovered blocks are reclaimed and handed
// to new keys, and every key still reads as a shadow map says — before
// and after a second crash and recovery. The recovered payloads' data
// is the arena itself, so a block reused while a live payload still
// viewed it would show here as a key reading another key's bytes.
func TestRecoveredBlocksReusedByNewKeys(t *testing.T) {
	const keys = 600
	cfg := core.Config{ArenaSize: 1 << 23, MaxThreads: 2}
	key := func(i int) string { return fmt.Sprintf("key%04d", i) }
	shadow := map[string][]byte{}
	sys, chunks, recovered := crashAndRecover(t, cfg, func(sys *core.System) {
		m := NewHashMap(sys, 64)
		for i := 0; i < keys; i++ {
			if _, err := m.Put(0, key(i), viewVal(key(i), 0)); err != nil {
				t.Fatal(err)
			}
			shadow[key(i)] = viewVal(key(i), 0)
		}
	})
	m, err := RecoverHashMap(sys, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, m *HashMap) {
		t.Helper()
		if got := m.Snapshot(0); !mapsEqual(got, shadow) {
			t.Fatalf("%s: %d keys differ from the shadow's %d", when, len(got), len(shadow))
		}
		for k, want := range shadow {
			if v, ok := m.Get(0, k); !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", when, k, v, ok, want)
			}
		}
	}
	check("recovered", m)

	for i := 0; i < keys; i++ {
		k := key(i)
		if i%2 == 0 {
			if _, err := m.Put(0, k, viewVal(k, 1)); err != nil {
				t.Fatal(err)
			}
			shadow[k] = viewVal(k, 1)
		} else {
			if _, err := m.Remove(0, k); err != nil {
				t.Fatal(err)
			}
			delete(shadow, k)
		}
	}
	// Two advances past the updates' epoch reclaim the recovered blocks.
	for i := 0; i < 3; i++ {
		sys.Advance()
	}
	for i := keys; i < 2*keys; i++ {
		if _, err := m.Put(1, key(i), viewVal(key(i), 2)); err != nil {
			t.Fatal(err)
		}
		shadow[key(i)] = viewVal(key(i), 2)
	}
	addrs := map[pmem.Addr]bool{}
	for p := range recovered {
		addrs[p.PAddr()] = true
	}
	reused := 0
	for b := range m.buckets {
		for n := m.buckets[b].head; n != nil; n = n.next {
			if addrs[n.payload.PAddr()] {
				reused++
			}
		}
	}
	if reused < keys/2 {
		t.Fatalf("test setup: %d recovered blocks handed to new versions or keys, want at least %d", reused, keys/2)
	}
	check("after reuse", m)

	sys.Sync(0)
	sys.Abandon()
	sys.Device().Crash(pmem.CrashDropAll)
	sys3, chunks3, err := core.RecoverParallel(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys3.Abandon()
	m3, err := RecoverHashMap(sys3, 64, chunks3)
	if err != nil {
		t.Fatal(err)
	}
	check("second recovery", m3)
}
