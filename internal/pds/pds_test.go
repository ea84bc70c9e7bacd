package pds

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"montage/internal/core"
	"montage/internal/pmem"
	"montage/internal/simclock"
)

func newSys(t *testing.T) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Config{ArenaSize: 1 << 24, MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKVEncoding(t *testing.T) {
	f := func(key string, val []byte) bool {
		k, v, ok := decodeKV(encodeKV(key, val))
		return ok && k == key && bytes.Equal(v, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := decodeKV([]byte{1, 2}); ok {
		t.Fatal("short buffer decoded")
	}
	if _, _, ok := decodeKV([]byte{255, 0, 0, 0}); ok {
		t.Fatal("oversized key length decoded")
	}
}

func TestSeqValEncoding(t *testing.T) {
	f := func(seq uint64, val []byte) bool {
		s, v, ok := decodeSeqVal(encodeSeqVal(seq, val))
		return ok && s == seq && bytes.Equal(v, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := decodeSeqVal([]byte{1}); ok {
		t.Fatal("short buffer decoded")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(newSys(t))
	for i := 0; i < 100; i++ {
		if err := q.Enqueue(0, []byte(fmt.Sprintf("item-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok, err := q.Dequeue(0)
		if err != nil || !ok {
			t.Fatalf("Dequeue %d: ok=%v err=%v", i, ok, err)
		}
		if string(v) != fmt.Sprintf("item-%d", i) {
			t.Fatalf("Dequeue %d = %q", i, v)
		}
	}
	if _, ok, _ := q.Dequeue(0); ok {
		t.Fatal("Dequeue on empty queue returned ok")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	sys := newSys(t)
	q := NewQueue(sys)
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Enqueue(p, []byte(fmt.Sprintf("%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	// Consume everything; per-producer order must be preserved.
	lastSeen := map[int]int{}
	for {
		v, ok, err := q.Dequeue(producers) // a distinct consumer tid
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		var p, i int
		fmt.Sscanf(string(v), "%d-%d", &p, &i)
		if last, seen := lastSeen[p]; seen && i <= last {
			t.Fatalf("producer %d order violated: %d after %d", p, i, last)
		}
		lastSeen[p] = i
	}
	for p := 0; p < producers; p++ {
		if lastSeen[p] != perProducer-1 {
			t.Fatalf("producer %d items missing (last %d)", p, lastSeen[p])
		}
	}
}

func TestQueueCrashRecoveryPrefix(t *testing.T) {
	sys := newSys(t)
	q := NewQueue(sys)
	for i := 0; i < 50; i++ {
		if err := q.Enqueue(0, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sys.Sync(0) // first 50 durable
	for i := 50; i < 80; i++ {
		if err := q.Enqueue(0, []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, payloads, err := core.Recover(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := RecoverQueue(sys2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	// Recovered state must be a prefix of history: exactly the first k
	// enqueues for some 50 <= k <= 80, in order.
	got, err := q2.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 50 || len(got) > 80 {
		t.Fatalf("recovered %d items, want between 50 and 80", len(got))
	}
	for i, v := range got {
		if string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("item %d = %q, FIFO prefix violated", i, v)
		}
	}
}

func TestQueueCrashRecoveryWithDequeues(t *testing.T) {
	sys := newSys(t)
	q := NewQueue(sys)
	for i := 0; i < 30; i++ {
		if err := q.Enqueue(0, []byte(fmt.Sprintf("q%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := q.Dequeue(0); !ok || err != nil {
			t.Fatalf("dequeue: %v %v", ok, err)
		}
	}
	sys.Sync(0)
	sys.Device().Crash(pmem.CrashDropAll)
	sys2, payloads, err := core.Recover(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := RecoverQueue(sys2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q2.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("recovered %d items, want 20", len(got))
	}
	for i, v := range got {
		if string(v) != fmt.Sprintf("q%02d", i+10) {
			t.Fatalf("item %d = %q, want q%02d", i, v, i+10)
		}
	}
}

func TestHashMapBasic(t *testing.T) {
	m := NewHashMap(newSys(t), 64)
	if _, ok := m.Get(0, "missing"); ok {
		t.Fatal("Get on empty map")
	}
	if prev, err := m.Put(0, "a", []byte("1")); err != nil || prev != nil {
		t.Fatalf("Put: %v %v", prev, err)
	}
	if v, ok := m.Get(0, "a"); !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if prev, err := m.Put(0, "a", []byte("2")); err != nil || string(prev) != "1" {
		t.Fatalf("update Put: %q %v", prev, err)
	}
	if v, _ := m.Get(0, "a"); string(v) != "2" {
		t.Fatalf("after update Get = %q", v)
	}
	if removed, err := m.Remove(0, "a"); err != nil || !removed {
		t.Fatalf("Remove: %v %v", removed, err)
	}
	if _, ok := m.Get(0, "a"); ok {
		t.Fatal("Get after Remove")
	}
	if removed, _ := m.Remove(0, "a"); removed {
		t.Fatal("double Remove reported true")
	}
}

func TestHashMapInsertSemantics(t *testing.T) {
	m := NewHashMap(newSys(t), 16)
	if ins, err := m.Insert(0, "k", []byte("v1")); err != nil || !ins {
		t.Fatalf("Insert: %v %v", ins, err)
	}
	if ins, err := m.Insert(0, "k", []byte("v2")); err != nil || ins {
		t.Fatal("Insert of existing key must be a no-op")
	}
	if v, _ := m.Get(0, "k"); string(v) != "v1" {
		t.Fatalf("value overwritten by failed insert: %q", v)
	}
}

func TestHashMapCollisionsSortedChain(t *testing.T) {
	// One bucket: all keys collide; chain must remain sorted and correct.
	m := NewHashMap(newSys(t), 1)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		if _, err := m.Put(0, k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b := &m.buckets[0]
	var prev string
	for curr := b.head; curr != nil; curr = curr.next {
		if curr.key <= prev {
			t.Fatalf("chain unsorted: %q after %q", curr.key, prev)
		}
		prev = curr.key
	}
	for i, k := range keys {
		if v, ok := m.Get(0, k); !ok || v[0] != byte(i) {
			t.Fatalf("Get(%q) = %v %v", k, v, ok)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestHashMapMatchesModel(t *testing.T) {
	sys := newSys(t)
	m := NewHashMap(sys, 32)
	model := map[string][]byte{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("k%d", r.Intn(200))
		switch r.Intn(3) {
		case 0:
			val := []byte(fmt.Sprintf("v%d", i))
			if _, err := m.Put(0, key, val); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		case 1:
			if _, err := m.Remove(0, key); err != nil {
				t.Fatal(err)
			}
			delete(model, key)
		case 2:
			v, ok := m.Get(0, key)
			mv, mok := model[key]
			if ok != mok || (ok && !bytes.Equal(v, mv)) {
				t.Fatalf("Get(%q) = %q,%v; model %q,%v", key, v, ok, mv, mok)
			}
		}
		if i%500 == 0 {
			sys.Advance() // let epochs tick during the workload
		}
	}
	got := m.Snapshot(0)
	if len(got) != len(model) {
		t.Fatalf("snapshot size %d, model %d", len(got), len(model))
	}
	for k, v := range model {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %q: %q vs model %q", k, got[k], v)
		}
	}
}

func TestHashMapConcurrent(t *testing.T) {
	sys := newSys(t)
	m := NewHashMap(sys, 128)
	var wg sync.WaitGroup
	const threads = 6
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(tid)))
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("t%d-k%d", tid, r.Intn(50))
				switch r.Intn(3) {
				case 0:
					if _, err := m.Put(tid, key, []byte{byte(i)}); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := m.Remove(tid, key); err != nil {
						t.Error(err)
					}
				default:
					m.Get(tid, key)
				}
			}
		}(tid)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			sys.Advance()
		}
	}
}

func TestHashMapCrashRecoveryAfterSync(t *testing.T) {
	sys := newSys(t)
	m := NewHashMap(sys, 64)
	want := map[string][]byte{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key%02d", i)
		v := []byte(fmt.Sprintf("val%02d", i))
		if _, err := m.Put(0, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Remove some, update some, then sync.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key%02d", i)
		if _, err := m.Remove(0, k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	for i := 10; i < 20; i++ {
		k := fmt.Sprintf("key%02d", i)
		v := []byte(fmt.Sprintf("upd%02d", i))
		if _, err := m.Put(0, k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	sys.Sync(0)
	// Post-sync work that must NOT survive.
	for i := 100; i < 120; i++ {
		if _, err := m.Put(0, fmt.Sprintf("key%02d", i), []byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, chunks, err := core.RecoverParallel(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RecoverHashMap(sys2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Snapshot(0)
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("synced key %q = %q, want %q", k, got[k], v)
		}
	}
	// Everything recovered must be explainable by the pre-crash history:
	// either the synced state or later prefix values.
	for k, v := range got {
		if wv, ok := want[k]; ok {
			if !bytes.Equal(v, wv) && !bytes.Equal(v, []byte("lost")) {
				t.Fatalf("key %q has impossible value %q", k, v)
			}
		} else if !bytes.Equal(v, []byte("lost")) {
			t.Fatalf("unexpected recovered key %q = %q", k, v)
		}
	}
}

// TestHashMapCrashRecoveryPrefixOracle drives a deterministic
// single-threaded history, records the abstract state after every
// operation, crashes without syncing, and verifies the recovered state
// equals one of the recorded prefix states — the definition of buffered
// durable linearizability for a sequential history.
func TestHashMapCrashRecoveryPrefixOracle(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		sys := newSys(t)
		m := NewHashMap(sys, 32)
		r := rand.New(rand.NewSource(seed))
		model := map[string][]byte{}
		states := []map[string][]byte{cloneMap(model)}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%d", r.Intn(40))
			if r.Intn(2) == 0 {
				val := []byte(fmt.Sprintf("s%d-i%d", seed, i))
				if _, err := m.Put(0, key, val); err != nil {
					t.Fatal(err)
				}
				model[key] = val
			} else {
				if _, err := m.Remove(0, key); err != nil {
					t.Fatal(err)
				}
				delete(model, key)
			}
			states = append(states, cloneMap(model))
			if i%37 == 0 {
				sys.Advance()
			}
		}
		sys.Device().Crash(pmem.CrashDropAll)
		sys2, chunks, err := core.RecoverParallel(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 8}, 2)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := RecoverHashMap(sys2, 32, chunks)
		if err != nil {
			t.Fatal(err)
		}
		got := m2.Snapshot(0)
		match := false
		for _, st := range states {
			if mapsEqual(got, st) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("seed %d: recovered state matches no prefix of the history (%d keys)", seed, len(got))
		}
	}
}

func cloneMap(m map[string][]byte) map[string][]byte {
	c := make(map[string][]byte, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func mapsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}

// TestRecoverMoreWorkersThanThreads: the sweep and every rebuild run one
// worker per chunk, so asking for more workers than the system has
// thread ids must still give every chunk and every item — with a cost
// model, whose clock is sized for MaxThreads, and without.
func TestRecoverMoreWorkersThanThreads(t *testing.T) {
	const n = 100
	fillKV := func(insert func(tid int, key string, val []byte) error) error {
		for i := 0; i < n; i++ {
			if err := insert(i%2, fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}
	// sized cross-checks a rebuilt map's count against its pairs.
	sized := func(length int, pairs map[string][]byte) (int, error) {
		if length != len(pairs) {
			return 0, fmt.Errorf("Len %d but %d pairs", length, len(pairs))
		}
		return length, nil
	}
	rebuilds := []struct {
		name    string
		fill    func(sys *core.System) error
		rebuild func(sys *core.System, chunks [][]*core.PBlk) (int, error) // items recovered
		want    int
	}{
		{"HashMap", func(sys *core.System) error {
			m := NewHashMap(sys, 16)
			return fillKV(func(tid int, k string, v []byte) error { _, err := m.Put(tid, k, v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) (int, error) {
			m, err := RecoverHashMap(sys, 16, chunks)
			if err != nil {
				return 0, err
			}
			return sized(m.Len(), m.Snapshot(0))
		}, n},
		{"LFHashMap", func(sys *core.System) error {
			m := NewLFHashMap(sys, 16)
			return fillKV(func(tid int, k string, v []byte) error { _, err := m.Insert(tid, k, v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) (int, error) {
			m, err := RecoverLFHashMap(sys, 16, chunks)
			if err != nil {
				return 0, err
			}
			return sized(m.Len(), m.Snapshot(0))
		}, n},
		{"LFSet", func(sys *core.System) error {
			s := NewLFSet(sys)
			return fillKV(func(tid int, k string, v []byte) error { _, err := s.Insert(tid, k, v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) (int, error) {
			s, err := RecoverLFSet(sys, chunks)
			if err != nil {
				return 0, err
			}
			return sized(s.Len(), s.Snapshot(0))
		}, n},
		{"LFSkipList", func(sys *core.System) error {
			m := NewLFSkipList(sys)
			return fillKV(func(tid int, k string, v []byte) error { _, err := m.Insert(tid, k, v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) (int, error) {
			m, err := RecoverLFSkipList(sys, chunks)
			if err != nil {
				return 0, err
			}
			return sized(m.Len(), m.Snapshot(0))
		}, n},
		{"Graph", func(sys *core.System) error {
			// n vertices on a path of n-1 edges.
			g := NewGraph(sys, 16)
			for i := 0; i < n; i++ {
				if _, err := g.AddVertex(i%2, uint64(i), []byte("a"), nil); err != nil {
					return err
				}
			}
			for i := 0; i+1 < n; i++ {
				if _, err := g.AddEdge(i%2, uint64(i), uint64(i+1), []byte("e")); err != nil {
					return err
				}
			}
			return nil
		}, func(sys *core.System, chunks [][]*core.PBlk) (int, error) {
			g, err := RecoverGraph(sys, 16, chunks)
			if err != nil {
				return 0, err
			}
			return g.Order() + g.SizeEdges(), nil
		}, 2*n - 1},
	}
	costs := simclock.DefaultCosts()
	for _, rb := range rebuilds {
		for _, c := range []*simclock.Costs{nil, &costs} {
			t.Run(fmt.Sprintf("%s/costs=%v", rb.name, c != nil), func(t *testing.T) {
				cfg := core.Config{ArenaSize: 1 << 22, MaxThreads: 2, Costs: c}
				sys, err := core.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := rb.fill(sys); err != nil {
					t.Fatal(err)
				}
				sys.Sync(0)
				sys.Abandon()
				sys.Device().Crash(pmem.CrashDropAll)
				sys2, chunks, err := core.RecoverParallel(sys.Device(), cfg, 8)
				if err != nil {
					t.Fatal(err)
				}
				defer sys2.Abandon()
				got, err := rb.rebuild(sys2, chunks)
				if err != nil {
					t.Fatal(err)
				}
				if len(chunks) != 8 || got != rb.want {
					t.Fatalf("%d chunks, %d items; want 8, %d", len(chunks), got, rb.want)
				}
			})
		}
	}
}

// TestRebuildRejectsCorruptPayloads feeds every Recover* a recovery set
// no crash can produce — a payload of the structure's tag whose last byte
// is cut off, and (keyed structures) one key held by two payloads, as two
// instances on one system leave it — and expects ErrCorruptPayload.
// Recovery sets come from image files, so rebuilds must check both.
func TestRebuildRejectsCorruptPayloads(t *testing.T) {
	v := []byte("v")
	twice := func(put func() error) error {
		for i := 0; i < 2; i++ {
			if err := put(); err != nil {
				return err
			}
		}
		return nil
	}
	rebuilds := []struct {
		name    string
		tag     uint16
		header  []byte // the shortest well-formed payload: no value
		dup     func(sys *core.System) error
		recover func(sys *core.System, chunks [][]*core.PBlk) error
	}{
		{"Queue", TagQueue, encodeSeqVal(1, nil), nil, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverQueue(sys, slices.Concat(chunks...))
			return err
		}},
		{"LFQueue", TagLFQueue, encodeSeqVal(1, nil), nil, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverLFQueue(sys, slices.Concat(chunks...))
			return err
		}},
		{"LFStack", TagLFStack, encodeSeqVal(1, nil), nil, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverLFStack(sys, slices.Concat(chunks...))
			return err
		}},
		{"Vector", TagVector, encodeSeqVal(0, nil), nil, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverVector(sys, slices.Concat(chunks...))
			return err
		}},
		{"HashMap", TagHashMap, encodeKV("k", nil), func(sys *core.System) error {
			return twice(func() error { _, err := NewHashMap(sys, 16).Put(0, "k", v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverHashMap(sys, 16, chunks)
			return err
		}},
		{"LFHashMap", TagLFHashMap, encodeKV("k", nil), func(sys *core.System) error {
			return twice(func() error { _, err := NewLFHashMap(sys, 16).Insert(0, "k", v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverLFHashMap(sys, 16, chunks)
			return err
		}},
		{"LFSet", TagLFSet, encodeKV("k", nil), func(sys *core.System) error {
			return twice(func() error { _, err := NewLFSet(sys).Insert(0, "k", v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverLFSet(sys, chunks)
			return err
		}},
		{"LFSkipList", TagLFSkipList, encodeKV("k", nil), func(sys *core.System) error {
			return twice(func() error { _, err := NewLFSkipList(sys).Insert(0, "k", v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverLFSkipList(sys, chunks)
			return err
		}},
		{"SkipListMap", TagSkipList, encodeKV("k", nil), func(sys *core.System) error {
			return twice(func() error { _, err := NewSkipListMap(sys).Put(0, "k", v); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverSkipListMap(sys, slices.Concat(chunks...))
			return err
		}},
		{"Graph", TagGraph, encodeVertex(1, nil), func(sys *core.System) error {
			return twice(func() error { _, err := NewGraph(sys, 16).AddVertex(0, 7, v, nil); return err })
		}, func(sys *core.System, chunks [][]*core.PBlk) error {
			_, err := RecoverGraph(sys, 16, chunks)
			return err
		}},
	}
	for _, rb := range rebuilds {
		cases := []struct {
			name string
			fill func(sys *core.System) error
		}{
			{"truncated", func(sys *core.System) error {
				return sys.DoOp(0, func(op core.Op) error {
					_, err := op.PNewTagged(rb.tag, rb.header[:len(rb.header)-1])
					return err
				})
			}},
			{"duplicate", rb.dup},
		}
		for _, c := range cases {
			if c.fill == nil {
				continue // ordered structures have no keys
			}
			t.Run(rb.name+"/"+c.name, func(t *testing.T) {
				cfg := core.Config{ArenaSize: 1 << 22, MaxThreads: 2}
				sys, err := core.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.fill(sys); err != nil {
					t.Fatal(err)
				}
				sys.Sync(0)
				sys.Abandon()
				sys.Device().Crash(pmem.CrashDropAll)
				sys2, chunks, err := core.RecoverParallel(sys.Device(), cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer sys2.Abandon()
				if err := rb.recover(sys2, chunks); !errors.Is(err, ErrCorruptPayload) {
					t.Fatalf("recover: %v, want ErrCorruptPayload", err)
				}
			})
		}
	}
}
