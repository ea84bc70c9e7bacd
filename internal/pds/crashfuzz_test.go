package pds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"montage/internal/core"
	"montage/internal/pmem"
)

// This file is the buffered-durable-linearizability fuzzer: for every
// structure, it drives a seeded single-threaded history while recording
// the abstract state after every operation, crashes at a random point
// (with and without partial out-of-order line commits), recovers, and
// checks that the recovered abstract state equals one of the recorded
// prefix states. Epoch advances and syncs are sprinkled through the
// history so all of the payload lifecycle paths (in-place update, copy
// on epoch change, anti-payloads, buffer overflow, reclamation,
// invalidation) get exercised.

const fuzzSeeds = 4

type fuzzEnv struct {
	cfg  core.Config
	sys  *core.System
	rng  *rand.Rand
	seed int64
}

func newFuzzEnv(t *testing.T, seed int64) *fuzzEnv {
	t.Helper()
	cfg := core.Config{ArenaSize: 1 << 24, MaxThreads: 4}
	cfg.Epoch.BufferSize = 8 // small buffer: force incremental write-backs
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seed%2 == 1 {
		sys.Device().SeedCrashRNG(seed)
	}
	return &fuzzEnv{cfg: cfg, sys: sys, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (f *fuzzEnv) crashMode() pmem.CrashMode {
	if f.seed%2 == 1 {
		return pmem.CrashPartial
	}
	return pmem.CrashDropAll
}

// maybeTick advances or syncs occasionally so epochs move during the
// history.
func (f *fuzzEnv) maybeTick(i int) {
	if i%23 == 11 {
		f.sys.Advance()
	}
	if i%217 == 101 {
		f.sys.Sync(0)
	}
}

// stateInPrefixes reports whether got equals any recorded state.
func stateInPrefixes(got string, states []string) int {
	for i := len(states) - 1; i >= 0; i-- {
		if states[i] == got {
			return i
		}
	}
	return -1
}

func mapState(m map[string][]byte) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, m[k])
	}
	return b.String()
}

func queueState(items [][]byte) string {
	var b strings.Builder
	for _, v := range items {
		b.Write(v)
		b.WriteByte(';')
	}
	return b.String()
}

func TestCrashFuzzQueue(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f := newFuzzEnv(t, seed)
		q := NewQueue(f.sys)
		var model [][]byte
		states := []string{queueState(model)}
		ops := 400 + f.rng.Intn(400)
		for i := 0; i < ops; i++ {
			if f.rng.Intn(3) != 0 {
				v := []byte(fmt.Sprintf("v%d", i))
				if err := q.Enqueue(0, v); err != nil {
					t.Fatal(err)
				}
				model = append(model, v)
			} else {
				_, ok, err := q.Dequeue(0)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					model = model[1:]
				}
			}
			states = append(states, queueState(model))
			f.maybeTick(i)
		}
		f.sys.Device().Crash(f.crashMode())
		sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 2)
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
		if stateInPrefixes(queueState(got), states) < 0 {
			t.Fatalf("seed %d: recovered queue (%d items) is not a prefix state", seed, len(got))
		}
	}
}

func TestCrashFuzzLFQueue(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f := newFuzzEnv(t, seed)
		q := NewLFQueue(f.sys)
		var model [][]byte
		states := []string{queueState(model)}
		ops := 300 + f.rng.Intn(300)
		for i := 0; i < ops; i++ {
			if f.rng.Intn(3) != 0 {
				v := []byte(fmt.Sprintf("v%d", i))
				if err := q.Enqueue(0, v); err != nil {
					t.Fatal(err)
				}
				model = append(model, v)
			} else {
				_, ok, err := q.Dequeue(0)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					model = model[1:]
				}
			}
			states = append(states, queueState(model))
			f.maybeTick(i)
		}
		f.sys.Device().Crash(f.crashMode())
		sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := RecoverLFQueue(sys2, payloads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q2.Drain(0)
		if err != nil {
			t.Fatal(err)
		}
		if stateInPrefixes(queueState(got), states) < 0 {
			t.Fatalf("seed %d: recovered lock-free queue (%d items) is not a prefix state", seed, len(got))
		}
	}
}

func TestCrashFuzzHashMap(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f := newFuzzEnv(t, seed)
		m := NewHashMap(f.sys, 64)
		model := map[string][]byte{}
		states := []string{mapState(model)}
		ops := 500 + f.rng.Intn(300)
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("k%02d", f.rng.Intn(40))
			if f.rng.Intn(2) == 0 {
				val := []byte(fmt.Sprintf("v%d", i))
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
			states = append(states, mapState(model))
			f.maybeTick(i)
		}
		f.sys.Device().Crash(f.crashMode())
		sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := RecoverHashMap(sys2, 64, [][]*core.PBlk{payloads})
		if err != nil {
			t.Fatal(err)
		}
		if stateInPrefixes(mapState(m2.Snapshot(0)), states) < 0 {
			t.Fatalf("hashmap seed %d: recovered state is not a prefix state", seed)
		}
	}
}

// fuzzSet is what TestCrashFuzzLFSet drives: the operations the
// nonblocking keyed structures share.
type fuzzSet interface {
	Insert(tid int, key string, val []byte) (bool, error)
	Remove(tid int, key string) (bool, error)
	Snapshot(tid int) map[string][]byte
}

func TestCrashFuzzLFSet(t *testing.T) {
	structs := []struct {
		name    string
		new     func(sys *core.System) fuzzSet
		recover func(sys *core.System, chunks [][]*core.PBlk) (fuzzSet, error)
	}{
		{"LFSet", func(sys *core.System) fuzzSet { return NewLFSet(sys) },
			func(sys *core.System, chunks [][]*core.PBlk) (fuzzSet, error) {
				return RecoverLFSet(sys, chunks)
			}},
		{"LFHashMap", func(sys *core.System) fuzzSet { return NewLFHashMap(sys, 8) },
			func(sys *core.System, chunks [][]*core.PBlk) (fuzzSet, error) {
				return RecoverLFHashMap(sys, 8, chunks)
			}},
	}
	for _, st := range structs {
		t.Run(st.name, func(t *testing.T) {
			for seed := int64(0); seed < fuzzSeeds; seed++ {
				f := newFuzzEnv(t, seed)
				s := st.new(f.sys)
				model := map[string][]byte{}
				states := []string{mapState(model)}
				ops := 400 + f.rng.Intn(300)
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("k%02d", f.rng.Intn(40))
					if f.rng.Intn(2) == 0 {
						val := []byte(fmt.Sprintf("v%d", i))
						ins, err := s.Insert(0, key, val)
						if err != nil {
							t.Fatal(err)
						}
						if ins {
							model[key] = val
						}
					} else {
						if _, err := s.Remove(0, key); err != nil {
							t.Fatal(err)
						}
						delete(model, key)
					}
					states = append(states, mapState(model))
					f.maybeTick(i)
				}
				f.sys.Device().Crash(f.crashMode())
				sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				s2, err := st.recover(sys2, [][]*core.PBlk{payloads})
				if err != nil {
					t.Fatal(err)
				}
				if stateInPrefixes(mapState(s2.Snapshot(0)), states) < 0 {
					t.Fatalf("seed %d: recovered state is not a prefix state", seed)
				}
			}
		})
	}
}

// graphState canonicalizes a graph's abstract state.
func graphState(verts map[uint64]bool, edges map[[2]uint64]bool) string {
	vs := make([]uint64, 0, len(verts))
	for v := range verts {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	es := make([][2]uint64, 0, len(edges))
	for e := range edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "V%v|E%v", vs, es)
	return b.String()
}

func TestCrashFuzzGraph(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f := newFuzzEnv(t, seed)
		g := NewGraph(f.sys, 16)
		verts := map[uint64]bool{}
		edges := map[[2]uint64]bool{}
		states := []string{graphState(verts, edges)}
		ops := 300 + f.rng.Intn(200)
		for i := 0; i < ops; i++ {
			switch f.rng.Intn(5) {
			case 0: // add vertex
				id := uint64(f.rng.Intn(30))
				ok, err := g.AddVertex(0, id, []byte("a"), nil)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					verts[id] = true
				}
			case 1: // remove vertex
				id := uint64(f.rng.Intn(30))
				ok, err := g.RemoveVertex(0, id)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					delete(verts, id)
					for e := range edges {
						if e[0] == id || e[1] == id {
							delete(edges, e)
						}
					}
				}
			case 2, 3: // add edge
				a, b := uint64(f.rng.Intn(30)), uint64(f.rng.Intn(30))
				ok, err := g.AddEdge(0, a, b, []byte("e"))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					edges[[2]uint64{min64(a, b), max64(a, b)}] = true
				}
			default: // remove edge
				a, b := uint64(f.rng.Intn(30)), uint64(f.rng.Intn(30))
				ok, err := g.RemoveEdge(0, a, b)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					delete(edges, [2]uint64{min64(a, b), max64(a, b)})
				}
			}
			states = append(states, graphState(verts, edges))
			f.maybeTick(i)
		}
		f.sys.Device().Crash(f.crashMode())
		sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := RecoverGraph(sys2, 16, [][]*core.PBlk{payloads})
		if err != nil {
			t.Fatal(err)
		}
		gotV := map[uint64]bool{}
		gotE := map[[2]uint64]bool{}
		for i := range g2.stripes {
			for id, v := range g2.stripes[i].vertices {
				gotV[id] = true
				for nb := range v.edges {
					gotE[[2]uint64{min64(id, nb), max64(id, nb)}] = true
				}
			}
		}
		if stateInPrefixes(graphState(gotV, gotE), states) < 0 {
			t.Fatalf("graph seed %d: recovered state is not a prefix state", seed)
		}
	}
}

// TestCrashFuzzUpdateHeavy exercises the UPDATE-copy path hard: few keys,
// many updates across epochs, ensuring version resolution always yields
// a value that was current at some prefix point.
func TestCrashFuzzUpdateHeavy(t *testing.T) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f := newFuzzEnv(t, seed)
		m := NewHashMap(f.sys, 8)
		model := map[string][]byte{}
		states := []string{mapState(model)}
		for i := 0; i < 600; i++ {
			key := fmt.Sprintf("k%d", f.rng.Intn(4)) // very hot keys
			val := []byte(fmt.Sprintf("s%d-%d", seed, i))
			if _, err := m.Put(0, key, val); err != nil {
				t.Fatal(err)
			}
			model[key] = val
			states = append(states, mapState(model))
			if i%7 == 3 {
				f.sys.Advance() // frequent epoch changes: many UPDATE copies
			}
		}
		f.sys.Device().Crash(f.crashMode())
		sys2, payloads, err := core.Recover(f.sys.Device(), f.cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := RecoverHashMap(sys2, 8, [][]*core.PBlk{payloads})
		if err != nil {
			t.Fatal(err)
		}
		got := m2.Snapshot(0)
		if stateInPrefixes(mapState(got), states) < 0 {
			t.Fatalf("update-heavy seed %d: recovered state is not a prefix state", seed)
		}
		// Stronger: per-key, the recovered value's sequence numbers must be
		// monotone with the prefix property (already implied, but check the
		// values decode sensibly).
		for k, v := range got {
			if !bytes.HasPrefix(v, []byte(fmt.Sprintf("s%d-", seed))) {
				t.Fatalf("key %q has foreign value %q", k, v)
			}
		}
	}
}
