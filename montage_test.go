package montage_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"montage"
	"montage/internal/pmem"
)

func newSystem(t *testing.T, threads int) (*montage.System, montage.Config) {
	t.Helper()
	cfg := montage.Config{ArenaSize: 1 << 24, MaxThreads: threads}
	sys, err := montage.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, cfg
}

func TestPublicAPIHashMapLifecycle(t *testing.T) {
	sys, cfg := newSystem(t, 2)
	m := montage.NewHashMap(sys, 128)
	if _, err := m.Put(0, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	sys.Sync(0)
	sys.Device().Crash(montage.CrashDropAll)
	sys2, chunks, err := montage.RecoverParallel(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := montage.RecoverHashMap(sys2, 128, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m2.Get(0, "k"); !ok || string(v) != "v1" {
		t.Fatalf("recovered %q %v", v, ok)
	}
	// The recovered system is fully operational.
	if _, err := m2.Put(0, "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	sys2.Sync(0)
	sys2.Close()
}

func TestPublicAPIAllStructures(t *testing.T) {
	sys, cfg := newSystem(t, 2)
	q := montage.NewQueue(sys)
	lq := montage.NewLFQueue(sys)
	lst := montage.NewLFStack(sys)
	vec := montage.NewVector(sys)
	s := montage.NewLFSet(sys)
	lm := montage.NewLFHashMap(sys, 32)
	sk := montage.NewSkipListMap(sys)
	lsk := montage.NewLFSkipList(sys)
	g := montage.NewGraph(sys, 16)

	for i := 0; i < 10; i++ {
		if err := q.Enqueue(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := lq.Enqueue(0, []byte{byte(i + 100)}); err != nil {
			t.Fatal(err)
		}
		if err := lst.Push(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := vec.Append(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(0, fmt.Sprintf("s%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := lm.Insert(0, fmt.Sprintf("m%d", i), []byte("w")); err != nil {
			t.Fatal(err)
		}
		if _, err := sk.Put(0, fmt.Sprintf("o%d", i), []byte("y")); err != nil {
			t.Fatal(err)
		}
		if _, err := lsk.Insert(0, fmt.Sprintf("z%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddVertex(0, uint64(i), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(0, 1, 2, nil)
	sys.Sync(0)
	sys.Device().Crash(montage.CrashDropAll)

	sys2, payloads, err := montage.Recover(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := [][]*montage.PBlk{payloads}
	q2, err := montage.RecoverQueue(sys2, payloads)
	if err != nil || q2.Len() != 10 {
		t.Fatalf("queue: %v len=%d", err, q2.Len())
	}
	lq2, err := montage.RecoverLFQueue(sys2, payloads)
	if err != nil || lq2.Len() != 10 {
		t.Fatalf("lfqueue: %v", err)
	}
	lst2, err := montage.RecoverLFStack(sys2, payloads)
	if err != nil || lst2.Len() != 10 {
		t.Fatalf("lfstack: %v", err)
	}
	vec2, err := montage.RecoverVector(sys2, payloads)
	if err != nil || vec2.Len() != 10 {
		t.Fatalf("vector: %v", err)
	}
	s2, err := montage.RecoverLFSet(sys2, chunks)
	if err != nil || s2.Len() != 10 {
		t.Fatalf("lfset: %v", err)
	}
	lm2, err := montage.RecoverLFHashMap(sys2, 32, chunks)
	if err != nil || lm2.Len() != 10 {
		t.Fatalf("lfhashmap: %v", err)
	}
	sk2, err := montage.RecoverSkipListMap(sys2, payloads)
	if err != nil || sk2.Len() != 10 {
		t.Fatalf("skiplist: %v", err)
	}
	lsk2, err := montage.RecoverLFSkipList(sys2, chunks)
	if err != nil || lsk2.Len() != 10 {
		t.Fatalf("lfskiplist: %v", err)
	}
	g2, err := montage.RecoverGraph(sys2, 16, chunks)
	if err != nil || g2.Order() != 10 || g2.SizeEdges() != 1 {
		t.Fatalf("graph: %v order=%d edges=%d", err, g2.Order(), g2.SizeEdges())
	}
}

func TestPublicAPICoreOps(t *testing.T) {
	sys, _ := newSystem(t, 1)
	var p *montage.PBlk
	err := sys.DoOp(0, func(op montage.Op) error {
		var err error
		p, err = op.PNew([]byte("raw payload"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Read(0, p); string(got) != "raw payload" {
		t.Fatalf("Read = %q", got)
	}
	sys.Advance()
	err = sys.DoOpRetry(0, func(op montage.Op) error {
		np, err := op.Set(p, []byte("updated"))
		if err != nil {
			return err
		}
		p = np
		return op.PDelete(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIFilterByTag(t *testing.T) {
	sys, cfg := newSystem(t, 1)
	err := sys.DoOp(0, func(op montage.Op) error {
		if _, err := op.PNewTagged(11, []byte("a")); err != nil {
			return err
		}
		if _, err := op.PNewTagged(22, []byte("b")); err != nil {
			return err
		}
		_, err := op.PNewTagged(22, []byte("c"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Sync(0)
	sys.Device().Crash(montage.CrashDropAll)
	_, payloads, err := montage.Recover(sys.Device(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(montage.FilterByTag(payloads, 11)); n != 1 {
		t.Fatalf("tag 11: %d payloads", n)
	}
	if n := len(montage.FilterByTag(payloads, 22)); n != 2 {
		t.Fatalf("tag 22: %d payloads", n)
	}
	if n := len(montage.FilterByTag(payloads, 33)); n != 0 {
		t.Fatalf("tag 33: %d payloads", n)
	}
}

func TestPublicAPIDeviceImagePersistence(t *testing.T) {
	// Save a crashed device image to disk and reopen it — the moral
	// equivalent of surviving a process restart or reboot.
	sys, cfg := newSystem(t, 1)
	m := montage.NewHashMap(sys, 64)
	m.Put(0, "persisted", []byte("across processes"))
	sys.Sync(0)
	sys.Device().Crash(montage.CrashDropAll)

	img := filepath.Join(t.TempDir(), "pool.img")
	if err := sys.Device().Save(img); err != nil {
		t.Fatal(err)
	}
	dev, err := pmem.NewDeviceFromFile(img, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys2, chunks, err := montage.RecoverParallel(dev, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := montage.RecoverHashMap(sys2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m2.Get(0, "persisted"); !ok || !bytes.Equal(v, []byte("across processes")) {
		t.Fatalf("image reopen failed: %q %v", v, ok)
	}
}

func TestPublicAPIConcurrentMixedStructures(t *testing.T) {
	sys, cfg := newSystem(t, 4)
	q := montage.NewQueue(sys)
	m := montage.NewHashMap(sys, 256)
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if tid%2 == 0 {
					if err := q.Enqueue(tid, []byte{byte(tid), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := m.Put(tid, fmt.Sprintf("t%d-%d", tid, i%20), []byte{byte(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(tid)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			goto finished
		default:
			sys.Advance()
		}
	}
finished:
	sys.Sync(0)
	sys.Device().Crash(montage.CrashDropAll)
	sys2, payloads, err := montage.Recover(sys.Device(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := montage.RecoverQueue(sys2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 400 {
		t.Fatalf("queue recovered %d items, want 400", q2.Len())
	}
	m2, err := montage.RecoverHashMap(sys2, 256, [][]*montage.PBlk{payloads})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 40 {
		t.Fatalf("map recovered %d keys, want 40", m2.Len())
	}
}

func TestPublicAPISyncMakesCompletedWorkDurable(t *testing.T) {
	// The core buffered-durability contract, via the public API only:
	// work before Sync survives, the unsynced tail may not, and whatever
	// survives is consistent.
	sys, cfg := newSystem(t, 1)
	m := montage.NewHashMap(sys, 64)
	for i := 0; i < 25; i++ {
		m.Put(0, fmt.Sprintf("pre%d", i), []byte("synced"))
	}
	sys.Sync(0)
	for i := 0; i < 25; i++ {
		m.Put(0, fmt.Sprintf("post%d", i), []byte("unsynced"))
	}
	sys.Device().Crash(montage.CrashDropAll)
	sys2, chunks, err := montage.RecoverParallel(sys.Device(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := montage.RecoverHashMap(sys2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, ok := m2.Get(0, fmt.Sprintf("pre%d", i)); !ok {
			t.Fatalf("synced key pre%d lost", i)
		}
	}
}
