package chaos

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"montage/internal/core"
	"montage/internal/kvstore"
	"montage/internal/obs"
	"montage/internal/pmem"
	"montage/internal/pool"
)

// TestScheduleSmoke sweeps a band of seeds over the shard-count and
// crash-mode mix and requires every schedule to recover with zero
// checker violations. The heavy sweep (1000+ schedules) lives in
// cmd/montage-chaos and the chaos-smoke make target; this keeps a
// representative slice in `go test`.
func TestScheduleSmoke(t *testing.T) {
	shards := []int{1, 2, 4}
	modes := []pmem.CrashMode{pmem.CrashDropAll, pmem.CrashPartial}
	n := int64(48)
	if testing.Short() {
		n = 12
	}
	for seed := int64(1); seed <= n; seed++ {
		cfg := Config{Seed: seed, Shards: shards[seed%3], Mode: modes[seed%2]}
		res, err := RunSchedule(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d (shards=%d mode=%v trigger=%s GOMAXPROCS=%d): %s",
				seed, cfg.Shards, cfg.Mode, res.Trigger, runtime.GOMAXPROCS(0), v)
		}
	}
}

// TestScheduleHotKeys runs a band over a 4-key universe, where nearly
// every op re-updates a payload already written in the same epoch: the
// coverage for same-epoch re-update bugs (the size-class-overflow
// reversion pinned in regression_test.go was one).
func TestScheduleHotKeys(t *testing.T) {
	shards := []int{1, 2, 4}
	modes := []pmem.CrashMode{pmem.CrashDropAll, pmem.CrashPartial}
	n := int64(32)
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= n; seed++ {
		cfg := Config{Seed: seed, Shards: shards[seed%3], Mode: modes[seed%2], Keys: 4}
		res, err := RunSchedule(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d (shards=%d mode=%v trigger=%s GOMAXPROCS=%d): %s",
				seed, cfg.Shards, cfg.Mode, res.Trigger, runtime.GOMAXPROCS(0), v)
		}
	}
}

// TestScheduleWatchdog wedges a schedule (the recovery hook never
// returns) and requires RunSchedule to give up with an error carrying the
// goroutine dump and the trace tail, instead of hanging its caller.
func TestScheduleWatchdog(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	debugChunks = func(*pool.Pool, [][][]*core.PBlk) { close(entered); <-release }
	scheduleTimeout = 200 * time.Millisecond
	defer func() {
		<-entered // the abandoned schedule has read the hook; safe to reset it
		close(release)
		debugChunks = nil
		scheduleTimeout = 2 * time.Minute
	}()
	rec := obs.New(8)
	rec.SetEnabled(true)
	_, err := RunSchedule(Config{Seed: 1, Shards: 2, Mode: pmem.CrashDropAll, Recorder: rec})
	if err == nil {
		t.Fatal("a wedged schedule returned no error")
	}
	for _, want := range []string{
		fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		"trace[",             // the trace-ring tail
		"runDirectSchedule(", // the stuck schedule's stack
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("watchdog report lacks %q", want)
		}
	}
}

// TestScheduleDeterminism re-runs one seed and checks everything the
// seed promises to pin down: the crash plan (trigger string) and each
// worker's op stream. The crash instant itself rides the goroutine
// interleaving, so the shorter run's history must be a prefix of the
// longer one per worker — same keys, kinds, modes, and values at each
// index.
func TestScheduleDeterminism(t *testing.T) {
	run := func() Result {
		res, err := RunSchedule(Config{Seed: 99, Shards: 2, Mode: pmem.CrashPartial})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Trigger != b.Trigger {
		t.Fatalf("trigger differs across runs: %q vs %q", a.Trigger, b.Trigger)
	}
	byWorker := func(ops []Op) map[int][]Op {
		m := make(map[int][]Op)
		for _, o := range ops {
			m[o.Worker] = append(m[o.Worker], o)
		}
		return m
	}
	wa, wb := byWorker(a.History), byWorker(b.History)
	for w, oa := range wa {
		ob := wb[w]
		n := len(oa)
		if len(ob) < n {
			n = len(ob)
		}
		for i := 0; i < n; i++ {
			x, y := oa[i], ob[i]
			if x.Index != y.Index || x.Key != y.Key || x.Kind != y.Kind ||
				x.Mode != y.Mode || x.Value != y.Value {
				t.Fatalf("worker %d op %d diverged: %+v vs %+v", w, i, x, y)
			}
		}
	}
}

// TestNetSchedule drives schedules through the live TCP server. Net mode
// uses the binding-ack-only checks; any violation is a real lost ack.
func TestNetSchedule(t *testing.T) {
	modes := []pmem.CrashMode{pmem.CrashDropAll, pmem.CrashPartial}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Config{Seed: seed, Shards: 2, Mode: modes[seed%2], Net: true}
		res, err := RunSchedule(cfg)
		if err != nil {
			t.Fatalf("net seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("net seed %d (trigger=%s): %s", seed, res.Trigger, v)
		}
	}
}

// Checker unit tests: hand-built histories prove the checker actually
// detects each violation class (so green sweeps are evidence, not
// vacuity).

func mkOp(w, i int, kind OpKind, mode AckMode, key, val string, shard int, ep uint64, start, end, ack uint64) Op {
	return Op{
		Worker: w, Index: i, Kind: kind, Mode: mode, Key: key, Value: val,
		Found: true, Acked: true,
		Tag:   kvstore.DurabilityTag{Shard: shard, Epoch: ep},
		Start: start, End: end, AckSeq: ack,
	}
}

func TestCheckerFlagsLostSyncAck(t *testing.T) {
	ops := []Op{mkOp(0, 0, OpSet, AckSync, "k", "v1", 0, 3, 1, 2, 3)}
	vs := Check(CheckInput{
		Ops: ops, CrashSeq: 10, Cutoffs: []uint64{1},
		Recovered: map[string]string{},
	})
	if len(vs) != 1 || vs[0].Kind != "lost-acked" {
		t.Fatalf("violations = %v, want one lost-acked", vs)
	}
}

func TestCheckerFlagsFutureEpoch(t *testing.T) {
	ops := []Op{mkOp(0, 0, OpSet, AckBuffered, "k", "v1", 0, 7, 1, 2, 3)}
	vs := Check(CheckInput{
		Ops: ops, CrashSeq: 10, Cutoffs: []uint64{4},
		Recovered: map[string]string{"k": "v1"},
	})
	if len(vs) != 1 || vs[0].Kind != "future-epoch" {
		t.Fatalf("violations = %v, want one future-epoch", vs)
	}
}

func TestCheckerFlagsStaleValueReversion(t *testing.T) {
	// v2's sync ack landed before the crash, but recovery surfaced v1,
	// which v2 strictly follows in real time — the seed-350 shape.
	ops := []Op{
		mkOp(0, 0, OpSet, AckBuffered, "k", "v1", 0, 3, 1, 2, 3),
		mkOp(0, 1, OpSet, AckSync, "k", "v2", 0, 3, 4, 5, 6),
	}
	vs := Check(CheckInput{
		Ops: ops, CrashSeq: 10, Cutoffs: []uint64{3},
		Recovered: map[string]string{"k": "v1"},
	})
	if len(vs) != 1 || vs[0].Kind != "lost-acked" {
		t.Fatalf("violations = %v, want one lost-acked reversion", vs)
	}
}

func TestCheckerFlagsUnknownValue(t *testing.T) {
	vs := Check(CheckInput{
		Ops: nil, CrashSeq: 10, Cutoffs: []uint64{3},
		Recovered: map[string]string{"k": "never-written"},
	})
	if len(vs) != 1 || vs[0].Kind != "unknown-value" {
		t.Fatalf("violations = %v, want one unknown-value", vs)
	}
}

func TestCheckerAcceptsExplainedStates(t *testing.T) {
	// A raced ack (stamped after the crash) binds nothing; an absent key
	// with a surviving delete is fine; a durable buffered write must
	// survive via the two-epoch promise even without a blocking ack.
	ops := []Op{
		mkOp(0, 0, OpSet, AckSync, "a", "av", 0, 9, 11, 12, 13), // acked after crash
		mkOp(0, 1, OpSet, AckSync, "b", "bv", 0, 2, 1, 2, 3),
		mkOp(1, 0, OpDelete, AckSync, "b", "", 0, 2, 4, 5, 6),
		mkOp(1, 1, OpSet, AckBuffered, "c", "cv", 0, 2, 1, 2, 3), // durable by tag
	}
	vs := Check(CheckInput{
		Ops: ops, CrashSeq: 10, Cutoffs: []uint64{2},
		Recovered: map[string]string{"c": "cv"},
	})
	if len(vs) != 0 {
		t.Fatalf("violations = %v, want none", vs)
	}
}
