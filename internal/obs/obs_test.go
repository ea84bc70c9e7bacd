package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers counters and histograms from many
// goroutines (run under -race) and checks the final totals are exact:
// per-thread cells must lose no increments, including from tids that
// clamp into shared slots.
func TestConcurrentCounters(t *testing.T) {
	const (
		workers = 8
		perTid  = 10_000
	)
	r := New(workers)
	var wg sync.WaitGroup
	for tid := -1; tid < workers+3; tid++ { // daemon, workers, and clamped tids
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perTid; i++ {
				r.Inc(tid, COps)
				r.Add(tid, CWriteBackBytes, 64)
				r.Observe(tid, HFenceBatch, uint64(i%100))
			}
		}(tid)
	}
	wg.Wait()

	const tids = workers + 4
	s := r.Snapshot()
	if got, want := s.Runtime.Ops, uint64(tids*perTid); got != want {
		t.Errorf("Ops = %d, want %d", got, want)
	}
	if got, want := s.Device.WriteBackBytes, uint64(tids*perTid*64); got != want {
		t.Errorf("WriteBackBytes = %d, want %d", got, want)
	}
	if got, want := s.Latency.FenceBatch.Count, uint64(tids*perTid); got != want {
		t.Errorf("FenceBatch.Count = %d, want %d", got, want)
	}
	var wantSum uint64
	for i := 0; i < perTid; i++ {
		wantSum += uint64(i % 100)
	}
	if got, want := s.Latency.FenceBatch.Sum, wantSum*tids; got != want {
		t.Errorf("FenceBatch.Sum = %d, want %d", got, want)
	}
}

// TestSnapshotConsistency takes snapshots while writers are running and
// checks every counter is monotonically non-decreasing between
// successive snapshots (each cell is read atomically; an aggregate can
// only grow).
func TestSnapshotConsistency(t *testing.T) {
	r := New(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Inc(tid, CEpochAdvances)
					r.Add(tid, CPersistBytes, 128)
					r.Observe(tid, HAdvanceNs, 1000)
				}
			}
		}(tid)
	}
	prev := r.Snapshot()
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if s.Epoch.Advances < prev.Epoch.Advances {
			t.Fatalf("Advances went backwards: %d -> %d", prev.Epoch.Advances, s.Epoch.Advances)
		}
		if s.Epoch.PersistBytes < prev.Epoch.PersistBytes {
			t.Fatalf("PersistBytes went backwards: %d -> %d", prev.Epoch.PersistBytes, s.Epoch.PersistBytes)
		}
		if s.Latency.AdvanceNs.Count < prev.Latency.AdvanceNs.Count {
			t.Fatalf("AdvanceNs.Count went backwards: %d -> %d",
				prev.Latency.AdvanceNs.Count, s.Latency.AdvanceNs.Count)
		}
		d := s.Sub(prev)
		if d.Epoch.Advances != s.Epoch.Advances-prev.Epoch.Advances {
			t.Fatalf("Sub delta mismatch: %d != %d-%d",
				d.Epoch.Advances, s.Epoch.Advances, prev.Epoch.Advances)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}

// TestSubRecomputesHistograms checks interval deltas rebuild percentile
// summaries from bucket differences, not by subtracting summaries.
func TestSubRecomputesHistograms(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		r.Observe(0, HSyncNs, 10) // bucket 4, bound 15
	}
	base := r.Snapshot()
	for i := 0; i < 100; i++ {
		r.Observe(0, HSyncNs, 1000) // bucket 10, bound 1023
	}
	d := r.Snapshot().Sub(base)
	if d.Latency.SyncNs.Count != 100 {
		t.Fatalf("delta count = %d, want 100", d.Latency.SyncNs.Count)
	}
	// All observations in the interval were ~1000 (bucket [512,1023]), so
	// P50 must reflect the 1000-bucket, not the earlier 10s: rank 50 of
	// 100 interpolates to the bucket midpoint.
	if p := d.Latency.SyncNs.P50; p < 512 || p > 1023 {
		t.Fatalf("delta P50 = %d, want within [512,1023]", p)
	}
}

// TestDisabledAndNil checks every recording path is a no-op on a nil or
// disabled recorder.
func TestDisabledAndNil(t *testing.T) {
	var nilRec *Recorder
	nilRec.Inc(0, COps)
	nilRec.Add(0, COps, 5)
	nilRec.Observe(0, HSyncNs, 1)
	nilRec.Trace(0, TraceSyncStart, 1, 0)
	nilRec.ObserveSince(0, HSyncNs, nilRec.Start())
	if nilRec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if evs := nilRec.TraceEvents(); evs != nil {
		t.Fatalf("nil recorder has trace events: %v", evs)
	}
	s := nilRec.Snapshot()
	if s.Runtime.Ops != 0 {
		t.Fatalf("nil snapshot has ops: %d", s.Runtime.Ops)
	}

	r := New(1)
	r.SetEnabled(false)
	r.Inc(0, COps)
	r.Observe(0, HSyncNs, 1)
	r.Trace(0, TraceSyncStart, 1, 0)
	if st := r.Start(); st != 0 {
		t.Fatalf("disabled Start = %d, want 0", st)
	}
	s = r.Snapshot()
	if s.Runtime.Ops != 0 || s.Latency.SyncNs.Count != 0 || len(r.TraceEvents()) != 0 {
		t.Fatal("disabled recorder recorded something")
	}
	r.SetEnabled(true)
	r.Inc(0, COps)
	if r.Snapshot().Runtime.Ops != 1 {
		t.Fatal("re-enabled recorder did not record")
	}
}

// TestZeroAlloc asserts the hot paths allocate nothing, enabled or
// disabled (the disabled mode is the "free when off" guarantee).
func TestZeroAlloc(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		r := New(2)
		r.SetEnabled(enabled)
		check := func(name string, fn func()) {
			t.Helper()
			if n := testing.AllocsPerRun(100, fn); n != 0 {
				t.Errorf("enabled=%v: %s allocates %v per call", enabled, name, n)
			}
		}
		check("Inc", func() { r.Inc(0, COps) })
		check("Add", func() { r.Add(1, CWriteBackBytes, 64) })
		check("Observe", func() { r.Observe(0, HFenceBatch, 17) })
		check("Trace", func() { r.Trace(0, TraceAdvanceStart, 3, 0) })
		check("Start+ObserveSince", func() { r.ObserveSince(0, HSyncNs, r.Start()) })
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(100, func() { nilRec.Inc(0, COps) }); n != 0 {
		t.Errorf("nil Inc allocates %v per call", n)
	}
}

// TestTraceRing checks ordering, wraparound, and the event fields.
func TestTraceRing(t *testing.T) {
	r := New(1)
	for i := 0; i < DefaultTraceCap+10; i++ {
		r.Trace(0, TraceAdvanceEnd, uint64(i), uint64(i*2))
	}
	evs := r.TraceEvents()
	if len(evs) != DefaultTraceCap {
		t.Fatalf("ring holds %d events, want %d", len(evs), DefaultTraceCap)
	}
	for i, e := range evs {
		wantSeq := uint64(10 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Epoch != wantSeq || e.Arg != wantSeq*2 {
			t.Fatalf("event %d: epoch=%d arg=%d, want epoch=%d arg=%d",
				i, e.Epoch, e.Arg, wantSeq, wantSeq*2)
		}
	}
	if got := TraceCrash.String(); got != "crash" {
		t.Fatalf("TraceCrash.String() = %q", got)
	}
	b, err := json.Marshal(evs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"advance_end"`) {
		t.Fatalf("trace JSON missing kind name: %s", b)
	}
}

// TestSampler checks the JSONL stream shape: interleaved custom records
// plus a final snapshot on Stop.
func TestSampler(t *testing.T) {
	r := New(1)
	r.Inc(0, CEpochAdvances)
	var buf bytes.Buffer
	s := NewSampler(r, &buf, 0) // no periodic goroutine
	if err := s.Record(map[string]string{"kind": "row", "series": "Montage"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if row["kind"] != "row" {
		t.Fatalf("line 0 kind = %v", row["kind"])
	}
	var final struct {
		Kind  string   `json:"kind"`
		Stats Snapshot `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &final); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if final.Kind != "final" {
		t.Fatalf("line 1 kind = %q, want final", final.Kind)
	}
	if final.Stats.Epoch.Advances != 1 {
		t.Fatalf("final snapshot advances = %d, want 1", final.Stats.Epoch.Advances)
	}
}

// TestSamplerPeriodic checks the background goroutine emits samples and
// Stop terminates it.
func TestSamplerPeriodic(t *testing.T) {
	r := New(1)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := NewSampler(r, w, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := bytes.Count(buf.Bytes(), []byte("\n"))
		mu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n < 3 { // >=2 samples + final
		t.Fatalf("got %d lines, want at least 3", n)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestDerivedGauges checks PersistPending and BytesInUse derivations,
// including the clamp at zero.
func TestDerivedGauges(t *testing.T) {
	r := New(1)
	r.Add(0, CPersistQueued, 10)
	r.Add(0, CPersistBoundary, 4)
	r.Add(0, CPersistDead, 1)
	r.Add(0, CAllocs, 5)
	r.Add(0, CAllocBytes, 500)
	r.Add(0, CFrees, 2)
	r.Add(0, CFreeBytes, 200)
	s := r.Snapshot()
	if s.Epoch.PersistPending != 5 {
		t.Fatalf("PersistPending = %d, want 5", s.Epoch.PersistPending)
	}
	if s.Alloc.BlocksInUse != 3 || s.Alloc.BytesInUse != 300 {
		t.Fatalf("in-use = %d blocks / %d bytes, want 3/300", s.Alloc.BlocksInUse, s.Alloc.BytesInUse)
	}
	// A free recorded without its alloc (shared recorder edge) clamps.
	r2 := New(1)
	r2.Add(0, CFrees, 7)
	if got := r2.Snapshot().Alloc.BlocksInUse; got != 0 {
		t.Fatalf("BlocksInUse = %d, want 0 (clamped)", got)
	}
}

// BenchmarkObsOverhead measures the per-event cost of the counter path
// with recording enabled and disabled, and reports allocations (the
// acceptance bar: none on either path).
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"enabled", true}, {"disabled", false}} {
		b.Run(mode.name, func(b *testing.B) {
			r := New(8)
			r.SetEnabled(mode.enabled)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					r.Inc(3, COps)
					r.Add(3, CWriteBackBytes, 64)
					r.Observe(3, HFenceBatch, 17)
				}
			})
		})
	}
}
