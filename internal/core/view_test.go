package core

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRecoverCopiesNoData: a recovered payload's data is its block in the
// arena, so recovering 10 k one-KB payloads allocates less heap than the
// payloads' data alone — the sweep's superblock copies and per-survivor
// data copies are gone — and every survivor's data is a view.
func TestRecoverCopiesNoData(t *testing.T) {
	const n, size = 10000, 1024
	cfg := Config{ArenaSize: 32 << 20, MaxThreads: 2}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'v'}, size)
	for i := 0; i < n; i++ {
		if err := sys.DoOp(0, func(op Op) error { _, err := op.PNew(val); return err }); err != nil {
			t.Fatal(err)
		}
	}
	sys.Sync(0)
	sys.Abandon()
	dev := sys.Device()
	dev.Crash(0)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys2, got, err := Recover(dev, cfg, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Abandon()
	if len(got) != n {
		t.Fatalf("recovered %d payloads, want %d", len(got), n)
	}
	for _, p := range got {
		if !dev.Aliases(p.data) || !bytes.Equal(p.data, val) {
			t.Fatalf("payload uid %d: data is not an intact view of the arena", p.uid)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Recover allocated %d B for %d B of survivor data", alloc, n*size)
	if alloc >= n*size {
		t.Fatalf("Recover allocated %d B, at least the survivors' %d data bytes", alloc, n*size)
	}
}
