package chaos

import (
	"runtime"
	"testing"

	"montage/internal/pmem"
)

// Pinned-seed regressions: every schedule here reproduced a real bug
// found by the chaos harness and fixed in this tree. Each entry names
// the bug; the deterministic unit tests for the same bugs live next to
// the fixed code (internal/core, internal/epoch, internal/pmem).
//
// Same-epoch version reversion (internal/core/pblk.go, op.Set): a Set
// in the payload's birth epoch that outgrew the block's size class took
// the copying path and left two same-uid, same-epoch images; recovery
// has no intra-epoch order, so the stale image could win the scan and a
// sync-acked value reverted after the crash. Fixed by killing the
// superseded image eagerly (dead-mark + staged header invalidation).
// Unit test: core.TestSameEpochSetGrowthKeepsNewestAfterCrash.
//
// pinned is one schedule plus the crash plan its seed drew when it was
// pinned. A change to drawPlan's draw sequence would silently turn every
// entry into a different schedule, so a trigger mismatch fails the test.
type pinned struct {
	cfg     Config
	trigger string
}

var reversionSchedules = []pinned{
	{Config{Seed: 350, Shards: 4, Mode: pmem.CrashPartial}, "fence@shard2+6"},
	{Config{Seed: 350, Shards: 4, Mode: pmem.CrashDropAll}, "fence@shard2+6"},
	{Config{Seed: 263, Shards: 4, Mode: pmem.CrashPartial}, "fence@shard2+5"},
	{Config{Seed: 509, Shards: 4, Mode: pmem.CrashPartial}, "durable@shard3+4"},
	{Config{Seed: 517, Shards: 2, Mode: pmem.CrashPartial}, "ops@38"},
	{Config{Seed: 521, Shards: 4, Mode: pmem.CrashPartial}, "fence@shard1+3"},
	{Config{Seed: 535, Shards: 2, Mode: pmem.CrashPartial}, "fence@shard1+1"},
}

func TestRegressionSameEpochReversion(t *testing.T) { runPinned(t, reversionSchedules) }

// Hot-key schedules: 4 keys, so same-epoch re-updates of one payload
// dominate — the traffic that exposed the reversion above and that the
// per-thread to_persist containers must dedup (MarkBuffered) without
// losing the newest image.
var hotKeySchedules = []pinned{
	{Config{Seed: 2, Shards: 4, Mode: pmem.CrashDropAll, Keys: 4}, "fence@shard2+4+recovery"},
	{Config{Seed: 4, Shards: 2, Mode: pmem.CrashDropAll, Keys: 4}, "drain@shard0+5"},
	{Config{Seed: 8, Shards: 4, Mode: pmem.CrashDropAll, Keys: 4}, "durable@shard0+1+recovery"},
	{Config{Seed: 13, Shards: 2, Mode: pmem.CrashPartial, Keys: 4}, "drain@shard1+7"},
	{Config{Seed: 101, Shards: 4, Mode: pmem.CrashPartial, Keys: 4}, "ops@51"},
	{Config{Seed: 256, Shards: 1, Mode: pmem.CrashDropAll, Keys: 4}, "ops@66"},
	{Config{Seed: 3, Shards: 1, Mode: pmem.CrashPartial, Keys: 4}, "durable@shard0+0"},
	{Config{Seed: 7, Shards: 2, Mode: pmem.CrashPartial, Keys: 4}, "fence@shard0+5+recovery"},
	{Config{Seed: 11, Shards: 4, Mode: pmem.CrashPartial, Keys: 4}, "ops@77"},
}

func TestRegressionHotKeys(t *testing.T) { runPinned(t, hotKeySchedules) }

func runPinned(t *testing.T, schedules []pinned) {
	for _, s := range schedules {
		cfg := s.cfg
		res, err := RunSchedule(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		if res.Trigger != s.trigger {
			t.Fatalf("seed %d shards=%d: trigger %q, pinned as %q — drawPlan's draw sequence changed",
				cfg.Seed, cfg.Shards, res.Trigger, s.trigger)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d shards=%d mode=%v keys=%d (trigger=%s GOMAXPROCS=%d): %s",
				cfg.Seed, cfg.Shards, cfg.Mode, cfg.Keys, res.Trigger, runtime.GOMAXPROCS(0), v)
		}
	}
}
