package pds

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"montage/internal/core"
	"montage/internal/pmem"
)

func TestLFHashMapBasics(t *testing.T) {
	m := NewLFHashMap(newSys(t), 64)
	if _, ok := m.Get(0, "x"); ok {
		t.Fatal("empty map Get")
	}
	if ins, err := m.Insert(0, "x", []byte("1")); err != nil || !ins {
		t.Fatal(err)
	}
	if ins, _ := m.Insert(0, "x", []byte("2")); ins {
		t.Fatal("duplicate insert")
	}
	if v, ok := m.Get(0, "x"); !ok || string(v) != "1" {
		t.Fatalf("Get = %q", v)
	}
	if !m.Contains(0, "x") {
		t.Fatal("Contains false")
	}
	if rm, err := m.Remove(0, "x"); err != nil || !rm {
		t.Fatal(err)
	}
	if m.Contains(0, "x") || m.Len() != 0 {
		t.Fatal("remove failed")
	}
}

func TestLFHashMapConcurrent(t *testing.T) {
	sys := newSys(t)
	m := NewLFHashMap(sys, 128)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				sys.Advance()
			}
		}
	}()
	const threads = 4
	var wg sync.WaitGroup
	counts := make([]int, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(tid)))
			live := map[string]bool{}
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("t%d-%02d", tid, r.Intn(40))
				if r.Intn(2) == 0 {
					ins, err := m.Insert(tid, key, []byte("v"))
					if err != nil {
						t.Error(err)
						return
					}
					if ins == live[key] {
						t.Errorf("insert disagreement on %q", key)
						return
					}
					live[key] = true
				} else {
					rm, err := m.Remove(tid, key)
					if err != nil {
						t.Error(err)
						return
					}
					if rm != live[key] {
						t.Errorf("remove disagreement on %q", key)
						return
					}
					delete(live, key)
				}
			}
			counts[tid] = len(live)
		}(tid)
	}
	wg.Wait()
	close(stop)
	want := 0
	for _, c := range counts {
		want += c
	}
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
}

func TestLFHashMapCrashRecovery(t *testing.T) {
	sys := newSys(t)
	m := NewLFHashMap(sys, 32)
	for i := 0; i < 40; i++ {
		if _, err := m.Insert(0, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m.Remove(0, fmt.Sprintf("k%02d", i))
	}
	sys.Sync(0)
	m.Insert(0, "doomed", []byte("x"))
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, chunks, err := core.RecoverParallel(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RecoverLFHashMap(sys2, 32, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 30 {
		t.Fatalf("recovered %d keys, want 30", m2.Len())
	}
	for i := 10; i < 40; i++ {
		if v, ok := m2.Get(0, fmt.Sprintf("k%02d", i)); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%02d = %q %v", i, v, ok)
		}
	}
	if m2.Contains(0, "doomed") {
		t.Fatal("unsynced key recovered")
	}
}
