// Command ladder is the benchmark's per-layer cost ledger: it replays a
// workload's own op stream (same seed, keys and sizes) in-process against
// one layer's exported functions at a time and prints the mean cost of
// each call as JSON. It is a program of its own so that the end-to-end
// benchmark does not stop building when a layer's API changes.
//
//	ladder --workload W --seed N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"montage/benchmark/workload"
	"montage/internal/core"
	"montage/internal/epoch"
	"montage/internal/kvstore"
	"montage/internal/memtext"
	"montage/internal/pds"
	"montage/internal/pmem"
	"montage/internal/pool"
	"montage/internal/ralloc"
)

const (
	// replayOps is how much of the stream each row replays.
	replayOps = 200000
	// headerSize is what a payload block adds to its data.
	headerSize = 32
	// batch is the write-back batch a fence or drain row commits.
	batch = 64
)

// sink keeps results alive so the compiler cannot drop the calls.
var sink int

type ladder struct {
	spec    workload.Spec
	ops     []workload.Op
	keys    []string // by key id
	value   []byte   // scratch for the op's value
	tick    time.Duration
	metrics map[string]float64
}

func main() {
	name := flag.String("workload", "", "workload whose stream to replay")
	seed := flag.Uint64("seed", 1, "stream seed")
	flag.Parse()
	spec, err := workload.ByName(*name)
	check(err)
	l := &ladder{spec: spec, metrics: map[string]float64{}}
	// One connection's stream widened to the whole key space: the ladder
	// is single-threaded, like each layer is for one request.
	one := spec
	one.Conns = 1
	stream := workload.NewStream(one, *seed, 0)
	l.ops = make([]workload.Op, replayOps)
	for i := range l.ops {
		l.ops[i] = stream.Next()
	}
	l.keys = make([]string, spec.Keys)
	for id := range l.keys {
		l.keys[id] = string(workload.AppendKey(nil, id, spec.KeyLen))
	}
	l.value = make([]byte, 0, spec.KeyLen+spec.ValueLen)
	l.calibrate()

	l.pool()
	l.pmem()
	l.ralloc()
	l.epoch()
	l.core()
	l.pds()
	m := l.metrics
	if spec.Served {
		l.kvstore()
		l.memtext()
		m["kvstore.self_get_ns"] = m["kvstore.get_ns"] - m["pds.get_ns"]
		m["kvstore.self_set_ns"] = m["kvstore.set_ns"] - m["pds.put_ns"]
	}
	m["pds.self_put_ns"] = m["pds.put_ns"] - m["core.update_ns"]
	m["core.self_update_ns"] = m["core.update_ns"] - m["epoch.begin_end_ns"] - m["epoch.add_to_persist_ns"]
	check(json.NewEncoder(os.Stdout).Encode(m))
}

// calibrate measures what one pair of clock reads costs, which every
// per-call timing below includes and per() subtracts.
func (l *ladder) calibrate() {
	const n = 1 << 18
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += int(time.Since(t0))
	}
	l.tick = time.Since(t0) / n
}

// per is the mean cost in ns of n calls that took total, net of the
// clock reads around each.
func (l *ladder) per(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return max(float64(total)/float64(n)-float64(l.tick), 0)
}

func (l *ladder) newSystem() *core.System {
	sys, err := core.NewSystem(core.Config{
		ArenaSize:  l.spec.Arena,
		MaxThreads: 2,
		Epoch:      epoch.Config{EpochLength: 10 * time.Millisecond},
	})
	check(err)
	return sys
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
}

// val builds the value the op stores, with extra leading bytes where the
// layer above would have added them (the server's 4-byte flags).
func (l *ladder) val(op workload.Op, extra int) []byte {
	v := l.value[:extra]
	return workload.AppendValue(v, op.ID, op.Version, l.spec.ValueLen)
}

// replay runs fn over the stream and returns the time and count per
// kind. The op's value is built before the clock starts.
func (l *ladder) replay(extra int, fn func(op workload.Op, val []byte)) (total [workload.NumKinds]time.Duration, n [workload.NumKinds]int) {
	for _, op := range l.ops {
		val := l.val(op, extra)
		t0 := time.Now()
		fn(op, val)
		total[op.Kind] += time.Since(t0)
		n[op.Kind]++
	}
	return total, n
}

func (l *ladder) pool() {
	t0 := time.Now()
	for _, op := range l.ops {
		sink += pool.ShardForKey(l.keys[op.ID], 1)
	}
	l.metrics["pool.route_ns"] = float64(time.Since(t0)) / float64(len(l.ops))
}

func (l *ladder) pmem() {
	dev := pmem.NewDevice(l.spec.Arena, 2, nil)
	size := headerSize + l.spec.UserBytes()
	stride := (size + 255) &^ 255
	data := make([]byte, size)
	blocks := min(replayOps, (l.spec.Arena-4096)/stride)
	var wb, fence, drain time.Duration
	rounds := 0
	for i := 0; i+2*batch <= blocks; i += 2 * batch {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			check(dev.WriteBack(0, pmem.Addr(4096+(i+j)*stride), data))
		}
		t1 := time.Now()
		dev.Fence(0)
		t2 := time.Now()
		for j := batch; j < 2*batch; j++ {
			check(dev.WriteBack(0, pmem.Addr(4096+(i+j)*stride), data))
		}
		t3 := time.Now()
		dev.Drain(0)
		wb += t1.Sub(t0) + t3.Sub(t2)
		fence += t2.Sub(t1)
		drain += time.Since(t3)
		rounds++
	}
	l.metrics["pmem.writeback_ns"] = float64(wb) / float64(2*batch*rounds)
	l.metrics["pmem.fence_us"] = float64(fence) / float64(rounds) / 1e3
	l.metrics["pmem.drain_us"] = float64(drain) / float64(rounds) / 1e3
}

func (l *ladder) ralloc() {
	dev := pmem.NewDevice(l.spec.Arena, 2, nil)
	heap, err := ralloc.New(dev, 2, ralloc.Options{})
	check(err)
	n := min(replayOps, l.spec.Arena/2/(headerSize+l.spec.UserBytes()))
	addrs := make([]pmem.Addr, n)
	t0 := time.Now()
	for i := range addrs {
		addrs[i], err = heap.Alloc(0, l.spec.UserBytes())
		check(err)
	}
	t1 := time.Now()
	for _, a := range addrs {
		heap.Free(0, a)
	}
	l.metrics["ralloc.alloc_ns"] = float64(t1.Sub(t0)) / float64(n)
	l.metrics["ralloc.free_ns"] = float64(time.Since(t1)) / float64(n)
}

// block is the smallest epoch.Persistable: a heap block and the bytes to
// stage for it.
type block struct {
	addr     pmem.Addr
	data     []byte
	buffered atomic.Bool
}

func (b *block) PAddr() pmem.Addr       { return b.addr }
func (b *block) PEncodedSize() int      { return len(b.data) }
func (b *block) PEncodeInto(dst []byte) { copy(dst, b.data) }
func (b *block) MarkBuffered() bool     { return b.buffered.CompareAndSwap(false, true) }
func (b *block) ClearBuffered()         { b.buffered.Store(false) }
func (b *block) MarkFlushed()           {}
func (b *block) PDead() bool            { return false }

func (l *ladder) epoch() {
	sys := l.newSystem()
	defer sys.Close()
	es := sys.Epochs()
	n := min(replayOps/2, l.spec.Arena/4/(headerSize+l.spec.UserBytes()))
	data := make([]byte, headerSize+l.spec.UserBytes())
	blocks := make([]*block, 2*n)
	for i := range blocks {
		addr, err := sys.Heap().Alloc(0, l.spec.UserBytes())
		check(err)
		blocks[i] = &block{addr: addr, data: data}
	}

	t0 := time.Now()
	for i := 0; i < replayOps; i++ {
		es.BeginOp(0)
		es.EndOp(0)
	}
	beginEnd := float64(time.Since(t0)) / replayOps

	// First half: one add per op. Second half: the same block added twice
	// in one op, so the second add takes the same-epoch (dirty) path.
	t0 = time.Now()
	for _, b := range blocks[:n] {
		e := es.BeginOp(0)
		es.AddToPersist(0, e, b)
		es.EndOp(0)
	}
	once := float64(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for _, b := range blocks[n:] {
		e := es.BeginOp(0)
		es.AddToPersist(0, e, b)
		es.AddToPersist(0, e, b)
		es.EndOp(0)
	}
	twice := float64(time.Since(t0)) / float64(n)
	l.metrics["epoch.begin_end_ns"] = beginEnd
	l.metrics["epoch.add_to_persist_ns"] = max(once-beginEnd, 0)
	l.metrics["epoch.add_to_persist_dirty_ns"] = max(twice-once, 0)
}

func (l *ladder) core() {
	sys := l.newSystem()
	defer sys.Close()
	blks := make([]*core.PBlk, l.spec.Keys)
	var pnew time.Duration
	made := 0
	for id := range blks {
		if !l.spec.Preloaded(id) {
			continue
		}
		v := l.val(workload.Op{ID: id, Version: 1}, l.spec.KeyLen)
		t0 := time.Now()
		op := sys.BeginOp(0)
		p, err := op.PNew(v)
		sys.EndOp(0)
		pnew += time.Since(t0)
		check(err)
		blks[id] = p
		made++
	}
	var update time.Duration
	updates := 0
	for _, o := range l.ops {
		if blks[o.ID] == nil {
			continue
		}
		v := l.val(o, l.spec.KeyLen)
		t0 := time.Now()
		op := sys.BeginOp(0)
		p, err := op.Set(blks[o.ID], v)
		sys.EndOp(0)
		update += time.Since(t0)
		check(err)
		blks[o.ID] = p
		updates++
	}
	l.metrics["core.pnew_ns"] = l.per(pnew, made)
	l.metrics["core.update_ns"] = l.per(update, updates)
}

func (l *ladder) pds() {
	sys := l.newSystem()
	defer sys.Close()
	m := pds.NewHashMap(sys, l.spec.Buckets)
	for id := range l.keys {
		if l.spec.Preloaded(id) {
			_, err := m.Put(0, l.keys[id], l.val(workload.Op{ID: id, Version: 1}, 0))
			check(err)
		}
	}
	total, n := l.replay(0, func(op workload.Op, val []byte) {
		var err error
		switch op.Kind {
		case workload.Get:
			v, _ := m.Get(0, l.keys[op.ID])
			sink += len(v)
		case workload.Set:
			_, err = m.Put(0, l.keys[op.ID], val)
		case workload.Insert:
			_, err = m.Insert(0, l.keys[op.ID], val)
		case workload.Remove:
			_, err = m.Remove(0, l.keys[op.ID])
		}
		check(err)
	})
	// The kinds the stream does not hold are measured over its keys too,
	// so every workload reports every row: a put pass, then remove+insert
	// pairs that leave the map as they found it.
	if n[workload.Set] == 0 {
		for _, op := range l.ops[:replayOps/4] {
			v := l.val(op, 0)
			t0 := time.Now()
			_, err := m.Put(0, l.keys[op.ID], v)
			total[workload.Set] += time.Since(t0)
			n[workload.Set]++
			check(err)
		}
	}
	if n[workload.Insert] == 0 {
		for _, op := range l.ops[:replayOps/4] {
			v := l.val(op, 0)
			t0 := time.Now()
			_, err := m.Remove(0, l.keys[op.ID])
			t1 := time.Now()
			check(err)
			_, err = m.Insert(0, l.keys[op.ID], v)
			total[workload.Insert] += time.Since(t1)
			total[workload.Remove] += t1.Sub(t0)
			n[workload.Insert]++
			n[workload.Remove]++
			check(err)
		}
	}
	l.metrics["pds.get_ns"] = l.per(total[workload.Get], n[workload.Get])
	l.metrics["pds.put_ns"] = l.per(total[workload.Set], n[workload.Set])
	l.metrics["pds.insert_ns"] = l.per(total[workload.Insert], n[workload.Insert])
	l.metrics["pds.remove_ns"] = l.per(total[workload.Remove], n[workload.Remove])
}

func (l *ladder) kvstore() {
	sys := l.newSystem()
	defer sys.Close()
	store := kvstore.New(kvstore.NewMontageBackend(pds.NewHashMap(sys, l.spec.Buckets)), 0)
	for id := range l.keys {
		_, err := store.SetTag(0, l.keys[id], l.val(workload.Op{ID: id, Version: 1}, 4), 0)
		check(err)
	}
	total, n := l.replay(4, func(op workload.Op, val []byte) {
		if op.Kind == workload.Get {
			v, _ := store.Get(0, l.keys[op.ID])
			sink += len(v)
			return
		}
		_, err := store.SetTag(0, l.keys[op.ID], val, 0)
		check(err)
	})
	l.metrics["kvstore.get_ns"] = l.per(total[workload.Get], n[workload.Get])
	l.metrics["kvstore.set_ns"] = l.per(total[workload.Set], n[workload.Set])

	const sets = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, op := range l.ops[:sets] {
		_, err := store.SetTag(0, l.keys[op.ID], l.val(op, 4), 0)
		check(err)
	}
	runtime.ReadMemStats(&after)
	l.metrics["kvstore.allocs_per_set"] = float64(after.Mallocs-before.Mallocs) / sets
}

// memtext tokenizes the request lines the stream produces the way the
// server's dispatch does: split, then validate the key and parse the
// numeric fields of a storage header.
func (l *ladder) memtext() {
	lines := make([][]byte, len(l.ops))
	for i, op := range l.ops {
		req := workload.AppendRequest(nil, l.spec, op)
		for j, c := range req {
			if c == '\r' {
				lines[i] = req[:j]
				break
			}
		}
	}
	var tok [][]byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for _, line := range lines {
			tok = memtext.AppendFields(tok[:0], line)
			if memtext.ValidKey(tok[1]) {
				sink++
			}
			if len(tok) == 5 {
				flags, _ := memtext.ParseUint(tok[2], 32)
				exp, _ := memtext.ParseUint(tok[3], 63)
				size, _ := memtext.ParseUint(tok[4], 31)
				sink += int(flags + exp + size)
			}
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	l.metrics["memtext.tokenize_ns"] = float64(elapsed) / float64(rounds*len(lines))
	l.metrics["memtext.allocs_per_line"] = float64(after.Mallocs-before.Mallocs) / float64(rounds*len(lines))
}
