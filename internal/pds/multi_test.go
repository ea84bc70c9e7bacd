package pds

import (
	"bytes"
	"fmt"
	"testing"

	"montage/internal/core"
	"montage/internal/pmem"
)

// TestMultipleStructuresShareOneSystem exercises the paper's claim that
// Montage "manages persistent payload blocks on behalf of one or more
// concurrent data structures": every structure kind, plus a second
// (custom-tagged) hashmap, lives on one system, crashes with the others,
// and recovers exactly its own contents by filtering on its payload tag.
// The system also holds one payload, in its old structure's format,
// under each retired tag (pds.go): no structure may read it.
func TestMultipleStructuresShareOneSystem(t *testing.T) {
	cfg := core.Config{ArenaSize: 1 << 24, MaxThreads: 4}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(sys)
	lq := NewLFQueue(sys)
	m := NewHashMap(sys, 64)
	g := NewGraph(sys, 16)
	const customTag uint16 = 1000
	m2 := NewHashMapTagged(sys, 64, customTag)
	ls := NewLFSet(sys)
	lm := NewLFHashMap(sys, 16)
	lsk := NewLFSkipList(sys)
	lfWant := map[string][]byte{}

	for i := 0; i < 20; i++ {
		if err := q.Enqueue(0, []byte(fmt.Sprintf("q%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := lq.Enqueue(0, []byte(fmt.Sprintf("lq%d", i))); err != nil {
			t.Fatal(err)
		}
		k, v := fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("lf%d", i))
		lfWant[k] = v
		for _, s := range []fuzzSet{ls, lm, lsk} {
			if _, err := s.Insert(1, k, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Put(1, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m1-%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Put(2, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m2-%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddVertex(3, uint64(i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 20; i++ {
		if _, err := g.AddEdge(3, 0, uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// The deleted skiplist map (tag 5) wrote key-value payloads; the
	// deleted stacks (7, 11) and vector (10) wrote sequence-labelled ones.
	retired := map[uint16][]byte{
		5:  encodeKV("k0", []byte("retired")),
		7:  encodeSeqVal(0, []byte("retired")),
		10: encodeSeqVal(0, []byte("retired")),
		11: encodeSeqVal(0, []byte("retired")),
	}
	for tag, data := range retired {
		if err := sys.DoOp(0, func(op core.Op) error {
			_, err := op.PNewTagged(tag, data)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Sync(0)
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, payloads, err := core.Recover(sys.Device(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := [][]*core.PBlk{payloads}

	q2, err := RecoverQueue(sys2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	lq2, err := RecoverLFQueue(sys2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for name, q := range map[string]interface{ Drain(int) ([][]byte, error) }{"q": q2, "lq": lq2} {
		items, err := q.Drain(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 20 {
			t.Fatalf("%s recovered %d items, want 20", name, len(items))
		}
		for i, v := range items {
			if string(v) != fmt.Sprintf("%s%d", name, i) {
				t.Fatalf("%s item %d = %q", name, i, v)
			}
		}
	}

	r1, err := RecoverHashMap(sys2, 64, chunks)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RecoverHashMapTagged(sys2, 64, chunks, customTag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 20 || r2.Len() != 20 {
		t.Fatalf("maps recovered %d/%d pairs, want 20/20", r1.Len(), r2.Len())
	}
	// The two maps used the same keys: tags must keep their values apart.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%d", i)
		v1, _ := r1.Get(0, k)
		v2, _ := r2.Get(0, k)
		if !bytes.Equal(v1, []byte(fmt.Sprintf("m1-%d", i))) {
			t.Fatalf("map1 %q = %q", k, v1)
		}
		if !bytes.Equal(v2, []byte(fmt.Sprintf("m2-%d", i))) {
			t.Fatalf("map2 %q = %q", k, v2)
		}
	}

	g2, err := RecoverGraph(sys2, 16, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Order() != 20 || g2.SizeEdges() != 19 {
		t.Fatalf("graph recovered %d vertices / %d edges, want 20/19", g2.Order(), g2.SizeEdges())
	}

	want := mapState(lfWant)
	ls2, err := RecoverLFSet(sys2, chunks)
	if err != nil {
		t.Fatal(err)
	}
	lm2, err := RecoverLFHashMap(sys2, 16, chunks)
	if err != nil {
		t.Fatal(err)
	}
	lsk2, err := RecoverLFSkipList(sys2, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]map[string][]byte{
		"lfset": ls2.Snapshot(0), "lfhashmap": lm2.Snapshot(0), "lfskiplist": lsk2.Snapshot(0),
	} {
		if mapState(got) != want {
			t.Fatalf("%s recovered %s, want %s", name, mapState(got), want)
		}
	}
}

// TestTagIsolationAcrossVersionsAndDeletes checks that UPDATE copies and
// anti-payloads inherit the creator's tag, so per-structure filtering
// stays correct across the whole payload lifecycle.
func TestTagIsolationAcrossVersionsAndDeletes(t *testing.T) {
	cfg := core.Config{ArenaSize: 1 << 22, MaxThreads: 2}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tagA, tagB uint16 = 1001, 1002 // no default structure's tags
	a := NewHashMapTagged(sys, 16, tagA)
	b := NewHashMapTagged(sys, 16, tagB)
	a.Put(0, "x", []byte("a1"))
	b.Put(0, "x", []byte("b1"))
	sys.Advance()               // force the next updates onto the copying path
	a.Put(0, "x", []byte("a2")) // UPDATE copy, tag A
	b.Remove(0, "x")            // anti-payload, tag B
	b.Put(0, "y", []byte("b2")) // fresh, tag B
	sys.Sync(0)
	sys.Device().Crash(pmem.CrashDropAll)

	sys2, payloads, err := core.Recover(sys.Device(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunks := [][]*core.PBlk{payloads}
	ra, err := RecoverHashMapTagged(sys2, 16, chunks, tagA, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RecoverHashMapTagged(sys2, 16, chunks, tagB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ra.Get(0, "x"); !ok || string(v) != "a2" {
		t.Fatalf("map a: x = %q,%v", v, ok)
	}
	if _, ok := rb.Get(0, "x"); ok {
		t.Fatal("map b: deleted x resurrected")
	}
	if v, ok := rb.Get(0, "y"); !ok || string(v) != "b2" {
		t.Fatalf("map b: y = %q,%v", v, ok)
	}
}
