package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	s := QuickScale()
	s.ArenaSize = 64 << 20
	s.KeyRange = 4000
	s.Preload = 2000
	s.Buckets = 8000
	s.ValueSize = 256
	s.OpsPerThread = 400
	s.Threads = []int{1, 8}
	s.GraphVertices = 1500
	s.GraphDegree = 8
	return s
}

func findResult(t *testing.T, rs []Result, series string, x float64) float64 {
	t.Helper()
	for _, r := range rs {
		if r.Series == series && r.X == x {
			return r.Mops
		}
	}
	t.Fatalf("no result for %s at x=%g", series, x)
	return 0
}

func TestFig7aShapes(t *testing.T) {
	scale := tinyScale()
	systems := []string{"DRAM(T)", "Montage", "Mnemosyne", "Pronto-Sync"}
	rs, err := Fig7Maps(scale, systems, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []float64{1, 8} {
		dram := findResult(t, rs, "DRAM(T)", threads)
		montage := findResult(t, rs, "Montage", threads)
		mnemo := findResult(t, rs, "Mnemosyne", threads)
		pronto := findResult(t, rs, "Pronto-Sync", threads)
		if !(dram > montage) {
			t.Errorf("threads=%v: DRAM(T) (%.3f) should beat Montage (%.3f)", threads, dram, montage)
		}
		if !(montage > mnemo) {
			t.Errorf("threads=%v: Montage (%.3f) should beat Mnemosyne (%.3f)", threads, montage, mnemo)
		}
		if !(montage > pronto) {
			t.Errorf("threads=%v: Montage (%.3f) should beat Pronto-Sync (%.3f)", threads, montage, pronto)
		}
	}
}

func TestFig6QueueShapes(t *testing.T) {
	scale := tinyScale()
	rs, err := Fig6Queues(scale, []string{"DRAM(T)", "Montage", "Friedman", "Mnemosyne"})
	if err != nil {
		t.Fatal(err)
	}
	dram := findResult(t, rs, "DRAM(T)", 1)
	montage := findResult(t, rs, "Montage", 1)
	fried := findResult(t, rs, "Friedman", 1)
	mnemo := findResult(t, rs, "Mnemosyne", 1)
	if !(dram > montage && montage > fried && fried > mnemo) {
		t.Errorf("queue ordering violated: dram=%.3f montage=%.3f friedman=%.3f mnemosyne=%.3f",
			dram, montage, fried, mnemo)
	}
}

func TestFig9SyncSmoke(t *testing.T) {
	scale := tinyScale()
	rs, err := Fig9Sync(scale, 4, []int{1, 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Syncing after every op must cost throughput relative to rare syncs.
	everyOp := findResult(t, rs, "Montage(cb)", 1)
	rare := findResult(t, rs, "Montage(cb)", 1000)
	if !(rare > everyOp) {
		t.Errorf("sync-per-op (%.3f) should be slower than sync/1000 (%.3f)", everyOp, rare)
	}
}

func TestFig4DesignSmoke(t *testing.T) {
	scale := tinyScale()
	rs, err := Fig4Design(scale, []int64{100_000, 10_000_000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	// The transient reference must beat every persistent configuration.
	transient := findResult(t, rs, "Montage(T)", 100_000)
	buf64 := findResult(t, rs, "Buf=64", 10_000_000)
	if !(transient > buf64) {
		t.Errorf("Montage(T) (%.3f) should beat Buf=64 (%.3f)", transient, buf64)
	}
}

func TestFig5DesignSmoke(t *testing.T) {
	scale := tinyScale()
	rs, err := Fig5Design(scale, []int64{10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) < len(designGroups) {
		t.Fatalf("missing groups: %d results", len(rs))
	}
}

func TestFig8PayloadSmoke(t *testing.T) {
	scale := tinyScale()
	rs, err := Fig8Payload(scale, []string{"DRAM(T)", "Montage"}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Throughput must fall as payloads grow.
	small := findResult(t, rs, "Montage", 16)
	big := findResult(t, rs, "Montage", 4096)
	if !(small > big) {
		t.Errorf("16B (%.3f) should beat 4KB (%.3f)", small, big)
	}
}

func TestFig10MemcachedSmoke(t *testing.T) {
	scale := tinyScale()
	scale.KeyRange = 2000
	rs, err := Fig10Memcached(scale)
	if err != nil {
		t.Fatal(err)
	}
	dram := findResult(t, rs, "DRAM(T)", 1)
	montage := findResult(t, rs, "Montage", 1)
	if !(dram > montage) || montage <= 0 {
		t.Errorf("fig10 shapes: dram=%.3f montage=%.3f", dram, montage)
	}
}

func TestFig11GraphSmoke(t *testing.T) {
	scale := tinyScale()
	scale.OpsPerThread = 200
	rs, err := Fig11Graph(scale)
	if err != nil {
		t.Fatal(err)
	}
	// Montage within a small factor of the fully transient graph (paper:
	// within 2x).
	dram := findResult(t, rs, "DRAM(T)", 1)
	montage := findResult(t, rs, "Montage", 1)
	if montage <= 0 || dram/montage > 20 {
		t.Errorf("graph overhead implausible: dram=%.3f montage=%.3f", dram, montage)
	}
}

func TestFig12RecoverySmoke(t *testing.T) {
	scale := tinyScale()
	rs, err := Fig12Recovery(scale, "")
	if err != nil {
		t.Fatal(err)
	}
	// All three series present at all thread counts, with positive times.
	for _, series := range []string{"DRAM(T) construct", "NVM(T) construct", "Montage recover"} {
		for _, threads := range []float64{1, 8} {
			v := findResult(t, rs, series, threads)
			if v <= 0 {
				t.Errorf("%s threads=%v: nonpositive time %f", series, threads, v)
			}
		}
	}
	// More recovery threads must not be slower.
	if r1, r8 := findResult(t, rs, "Montage recover", 1), findResult(t, rs, "Montage recover", 8); r8 > r1 {
		t.Errorf("recovery got slower with more threads: %f -> %f", r1, r8)
	}
}

func TestRecoveryHashmapSweep(t *testing.T) {
	scale := tinyScale()
	rs, err := RecoveryHashmap(scale, []int{2048, 8192}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	small := findResult(t, rs, "1 threads", 2048)
	large := findResult(t, rs, "1 threads", 8192)
	if !(large > small) {
		t.Errorf("recovery time should grow with data: %f vs %f", small, large)
	}
	seq := findResult(t, rs, "1 threads", 8192)
	par := findResult(t, rs, "4 threads", 8192)
	if !(par < seq) {
		t.Errorf("parallel recovery not faster: %f vs %f", par, seq)
	}
}

// TestPrintResults checks the table layout. The 20-character series
// name is wider than any value: it must still get its own column, so
// the header splits into "x" followed by every series name.
func TestPrintResults(t *testing.T) {
	wide := "Buf64+DirFree+Worker"
	rs := []Result{
		{Figure: "figX", Series: "A", Label: "threads=1", X: 1, Mops: 1.5},
		{Figure: "figX", Series: wide, Label: "threads=1", X: 1, Mops: 0.5},
		{Figure: "figX", Series: "B", Label: "threads=1", X: 1, Mops: 0.25},
		{Figure: "figX", Series: "A", Label: "threads=2", X: 2, Mops: 3},
	}
	var buf bytes.Buffer
	PrintResults(&buf, rs)
	out := buf.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "threads=2") || !strings.Contains(out, "1.500") {
		t.Fatalf("unexpected table:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing-cell marker absent:\n%s", out)
	}
	header := strings.Fields(strings.Split(out, "\n")[1])
	if want := []string{"x", "A", wide, "B"}; strings.Join(header, "|") != strings.Join(want, "|") {
		t.Fatalf("header fields = %q, want %q\n%s", header, want, out)
	}
}

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{DefaultScale(), QuickScale(), PaperScale()} {
		if s.KeyRange < s.Preload {
			t.Error("preload exceeds key range")
		}
		if s.ArenaSize <= 0 || s.OpsPerThread <= 0 || len(s.Threads) == 0 {
			t.Error("degenerate scale")
		}
	}
}

func TestWriteCSV(t *testing.T) {
	rs := []Result{
		{Figure: "figY", Series: "A", Label: "threads=1", X: 1, Mops: 2.5},
		{Figure: "figY", Series: "B", Label: "t", X: 2, Mops: 0.25, Unit: "seconds"},
	}
	var buf bytes.Buffer
	WriteCSV(&buf, rs)
	out := buf.String()
	if !strings.Contains(out, "figure,series,label,x,value,unit") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "figY,A,threads=1,1,2.5,Mops/s") {
		t.Fatalf("missing row:\n%s", out)
	}
	if !strings.Contains(out, "figY,B,t,2,0.25,seconds") {
		t.Fatalf("missing seconds row:\n%s", out)
	}
}

func TestMakeUnknownSystems(t *testing.T) {
	scale := tinyScale()
	if _, err := makeQueue("nope", scale, 1); err == nil {
		t.Fatal("unknown queue system accepted")
	}
	if _, err := makeMap("nope", scale, 1); err == nil {
		t.Fatal("unknown map system accepted")
	}
}

func TestMontageLFSeries(t *testing.T) {
	// The nonblocking Montage structures are available as a bench series.
	scale := tinyScale()
	scale.KeyRange = 200 // LFSet is a list; keep it tiny
	scale.Preload = 100
	scale.OpsPerThread = 100
	rs, err := Fig7Maps(scale, []string{"Montage-LF"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if v := findResult(t, rs, "Montage-LF", 1); v <= 0 {
		t.Fatalf("Montage-LF throughput %f", v)
	}
	qr, err := Fig6Queues(scale, []string{"Montage-LF"})
	if err != nil {
		t.Fatal(err)
	}
	if v := findResult(t, qr, "Montage-LF", 1); v <= 0 {
		t.Fatalf("Montage-LF queue throughput %f", v)
	}
}
