package pds

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"montage/internal/core"
	"montage/internal/pmem"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(newSys(t))
	if v.Len() != 0 {
		t.Fatal("fresh vector not empty")
	}
	for i := 0; i < 20; i++ {
		idx, err := v.Append(0, []byte(fmt.Sprintf("e%d", i)))
		if err != nil || idx != i {
			t.Fatalf("Append -> %d, %v", idx, err)
		}
	}
	for i := 0; i < 20; i++ {
		val, err := v.Get(0, i)
		if err != nil || string(val) != fmt.Sprintf("e%d", i) {
			t.Fatalf("Get(%d) = %q, %v", i, val, err)
		}
	}
	if err := v.Set(0, 5, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if val, _ := v.Get(0, 5); string(val) != "updated" {
		t.Fatalf("Set lost: %q", val)
	}
	if _, err := v.Get(0, 20); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("OOB Get err = %v", err)
	}
	if err := v.Set(0, -1, nil); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("OOB Set err = %v", err)
	}
	val, ok, err := v.PopBack(0)
	if err != nil || !ok || string(val) != "e19" {
		t.Fatalf("PopBack = %q %v %v", val, ok, err)
	}
	if v.Len() != 19 {
		t.Fatalf("Len = %d", v.Len())
	}
}

func TestVectorCrossEpochSet(t *testing.T) {
	sys := newSys(t)
	v := NewVector(sys)
	v.Append(0, []byte("old"))
	sys.Advance() // next Set must take the copying path
	if err := v.Set(0, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if val, _ := v.Get(0, 0); string(val) != "new" {
		t.Fatalf("cross-epoch Set lost: %q", val)
	}
}

func TestVectorCrashRecovery(t *testing.T) {
	sys := newSys(t)
	v := NewVector(sys)
	for i := 0; i < 30; i++ {
		if _, err := v.Append(0, []byte(fmt.Sprintf("x%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := v.PopBack(0); !ok || err != nil {
			t.Fatal("pop failed")
		}
	}
	v.Set(0, 3, []byte("updated3"))
	sys.Sync(0)
	v.Append(0, []byte("doomed"))
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, payloads, err := core.Recover(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := RecoverVector(sys2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Len() != 25 {
		t.Fatalf("recovered %d elements, want 25", v2.Len())
	}
	all, err := v2.SnapshotAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, val := range all {
		want := fmt.Sprintf("x%02d", i)
		if i == 3 {
			want = "updated3"
		}
		if string(val) != want {
			t.Fatalf("element %d = %q, want %q", i, val, want)
		}
	}
	// Recovered vector keeps appending at the right index.
	if idx, err := v2.Append(0, []byte("post")); err != nil || idx != 25 {
		t.Fatalf("post-recovery Append -> %d, %v", idx, err)
	}
}

func TestCrashFuzzVector(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f := newFuzzEnv(t, seed)
		v := NewVector(f.sys)
		var model [][]byte
		states := []string{queueState(model)}
		ops := 400 + f.rng.Intn(300)
		for i := 0; i < ops; i++ {
			switch f.rng.Intn(4) {
			case 0:
				if len(model) > 0 {
					idx := f.rng.Intn(len(model))
					val := []byte(fmt.Sprintf("u%d", i))
					if err := v.Set(0, idx, val); err != nil {
						t.Fatal(err)
					}
					model[idx] = val
				}
			case 1:
				if _, ok, err := v.PopBack(0); err != nil {
					t.Fatal(err)
				} else if ok {
					model = model[:len(model)-1]
				}
			default:
				val := []byte(fmt.Sprintf("a%d", i))
				if _, err := v.Append(0, val); err != nil {
					t.Fatal(err)
				}
				model = append(model, val)
			}
			// states need value snapshots (Set mutates in place)
			cp := make([][]byte, len(model))
			copy(cp, model)
			states = append(states, queueState(cp))
			f.maybeTick(i)
		}
		f.sys.Device().Crash(f.crashMode())
		sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := RecoverVector(sys2, payloads)
		if err != nil {
			t.Fatal(err)
		}
		all, err := v2.SnapshotAll(0)
		if err != nil {
			t.Fatal(err)
		}
		if stateInPrefixes(queueState(all), states) < 0 {
			t.Fatalf("vector seed %d: recovered state is not a prefix state", seed)
		}
	}
}

func TestVectorConcurrentAppend(t *testing.T) {
	sys := newSys(t)
	v := NewVector(sys)
	var wg sync.WaitGroup
	indices := make([][]int, 4)
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				idx, err := v.Append(tid, []byte{byte(tid)})
				if err != nil {
					t.Error(err)
					return
				}
				indices[tid] = append(indices[tid], idx)
			}
		}(tid)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			goto check
		default:
			sys.Advance()
		}
	}
check:
	if v.Len() != 600 {
		t.Fatalf("Len = %d", v.Len())
	}
	seen := map[int]bool{}
	for _, list := range indices {
		for _, idx := range list {
			if seen[idx] {
				t.Fatalf("index %d assigned twice", idx)
			}
			seen[idx] = true
		}
	}
}
