package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"montage/internal/pmem"
)

func newSys(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(Config{ArenaSize: 1 << 22, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPNewGetRoundTrip(t *testing.T) {
	s := newSys(t)
	err := s.DoOp(0, func(op Op) error {
		p, err := op.PNew([]byte("hello"))
		if err != nil {
			return err
		}
		got, err := op.Get(p)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			t.Fatalf("Get = %q", got)
		}
		if p.UID() == 0 || p.BirthEpoch() != op.Epoch() || p.Size() != 5 {
			t.Fatalf("payload metadata wrong: uid=%d epoch=%d size=%d", p.UID(), p.BirthEpoch(), p.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetInPlaceSameEpoch(t *testing.T) {
	s := newSys(t)
	err := s.DoOp(0, func(op Op) error {
		p, err := op.PNew([]byte("v1"))
		if err != nil {
			return err
		}
		np, err := op.Set(p, []byte("v2"))
		if err != nil {
			return err
		}
		if np != p {
			t.Fatal("same-epoch Set must update in place")
		}
		if got, _ := op.Get(p); string(got) != "v2" {
			t.Fatalf("data = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetAcrossEpochCopies(t *testing.T) {
	s := newSys(t)
	var p *PBlk
	if err := s.DoOp(0, func(op Op) error {
		var err error
		p, err = op.PNew([]byte("old"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.Advance()
	if err := s.DoOp(0, func(op Op) error {
		np, err := op.Set(p, []byte("new"))
		if err != nil {
			return err
		}
		if np == p {
			t.Fatal("cross-epoch Set must return a new payload")
		}
		if np.UID() != p.UID() {
			t.Fatal("copy must share the uid")
		}
		if np.BirthEpoch() != op.Epoch() {
			t.Fatal("copy must carry the new epoch")
		}
		if np.PAddr() == p.PAddr() {
			t.Fatal("copy must live in a different block")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOldSeeNew(t *testing.T) {
	s := newSys(t)
	// Thread 0 starts an op, epoch advances, thread 1 creates a payload in
	// the newer epoch; thread 0 must not observe it.
	op0 := s.BeginOp(0)
	s.Advance()
	var pNew *PBlk
	if err := s.DoOp(1, func(op Op) error {
		var err error
		pNew, err = op.PNew([]byte("newer"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := op0.Get(pNew); !errors.Is(err, ErrOldSeeNew) {
		t.Fatalf("Get on newer payload: err = %v, want ErrOldSeeNew", err)
	}
	if _, err := op0.Set(pNew, []byte("x")); !errors.Is(err, ErrOldSeeNew) {
		t.Fatalf("Set on newer payload: err = %v, want ErrOldSeeNew", err)
	}
	if err := op0.PDelete(pNew); !errors.Is(err, ErrOldSeeNew) {
		t.Fatalf("PDelete on newer payload: err = %v, want ErrOldSeeNew", err)
	}
	if got := op0.GetUnsafe(pNew); string(got) != "newer" {
		t.Fatal("GetUnsafe must bypass the old-see-new check")
	}
	s.EndOp(0)
}

func TestCheckEpochAndRetry(t *testing.T) {
	s := newSys(t)
	attempts := 0
	err := s.DoOpRetry(0, func(op Op) error {
		attempts++
		if attempts == 1 {
			return fmt.Errorf("wrapped: %w", ErrOldSeeNew)
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("retry loop: err=%v attempts=%d", err, attempts)
	}
}

func TestRecoverEmptySystem(t *testing.T) {
	s := newSys(t)
	s.Device().Crash(pmem.CrashDropAll)
	s2, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("recovered %d payloads from empty system", len(got))
	}
	if s2.Epochs().Epoch() == 0 {
		t.Fatal("recovered system has zero epoch")
	}
}

// runOps creates n payloads in separate ops, returning them.
func runOps(t *testing.T, s *System, tid, n int, tag string) []*PBlk {
	t.Helper()
	ps := make([]*PBlk, n)
	for i := 0; i < n; i++ {
		if err := s.DoOp(tid, func(op Op) error {
			p, err := op.PNew([]byte(fmt.Sprintf("%s-%d", tag, i)))
			ps[i] = p
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

func TestCrashRecoveryKeepsOldEpochsOnly(t *testing.T) {
	s := newSys(t)
	old := runOps(t, s, 0, 10, "old")
	s.Advance()
	s.Advance() // old payloads durable
	fresh := runOps(t, s, 0, 10, "fresh")
	_ = fresh
	s.Device().Crash(pmem.CrashDropAll)

	_, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(old) {
		t.Fatalf("recovered %d payloads, want %d (old only)", len(got), len(old))
	}
	data := map[string]bool{}
	for _, p := range got {
		data[string(p.data)] = true
	}
	for i := range old {
		if !data[fmt.Sprintf("old-%d", i)] {
			t.Fatalf("old-%d missing from recovery", i)
		}
	}
}

func TestRecoveryPicksNewestVersion(t *testing.T) {
	s := newSys(t)
	var p *PBlk
	if err := s.DoOp(0, func(op Op) error {
		var err error
		p, err = op.PNew([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.Advance()
	if err := s.DoOp(0, func(op Op) error {
		_, err := op.Set(p, []byte("v2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Make the v2 epoch durable, then crash. Both versions share a uid;
	// recovery must surface only v2.
	s.Sync(0)
	s.Device().Crash(pmem.CrashDropAll)
	_, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d payloads, want 1", len(got))
	}
	if !bytes.Equal(got[0].data, []byte("v2")) {
		t.Fatalf("recovered %q, want v2", got[0].data)
	}
}

func TestRecoveryDropsDeleted(t *testing.T) {
	s := newSys(t)
	var keep, del *PBlk
	if err := s.DoOp(0, func(op Op) error {
		var err error
		keep, err = op.PNew([]byte("keep"))
		if err != nil {
			return err
		}
		del, err = op.PNew([]byte("delete-me"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.Advance()
	s.Advance() // both durable
	if err := s.DoOp(0, func(op Op) error {
		return op.PDelete(del)
	}); err != nil {
		t.Fatal(err)
	}
	s.Sync(0) // anti-payload durable
	s.Device().Crash(pmem.CrashDropAll)
	_, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].data, []byte("keep")) {
		t.Fatalf("recovery = %d payloads (want only 'keep')", len(got))
	}
	_ = keep
}

func TestRecoveryDeleteNotYetDurableResurrects(t *testing.T) {
	// Buffered durability: if the crash comes before the delete's epoch
	// persists, the deleted payload must come back — the delete never
	// "happened".
	s := newSys(t)
	var del *PBlk
	if err := s.DoOp(0, func(op Op) error {
		var err error
		del, err = op.PNew([]byte("lazarus"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.Advance()
	s.Advance() // payload durable
	if err := s.DoOp(0, func(op Op) error {
		return op.PDelete(del)
	}); err != nil {
		t.Fatal(err)
	}
	// No sync: the anti-payload is still buffered.
	s.Device().Crash(pmem.CrashDropAll)
	_, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0].data, []byte("lazarus")) {
		t.Fatalf("unpersisted delete must not survive the crash; got %d payloads", len(got))
	}
}

func TestSameEpochPNewPDeleteLeavesNothing(t *testing.T) {
	// A never-written-back payload vanishes instantly.
	s, err := NewSystem(Config{ArenaSize: 1 << 22, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	live := s.Heap().Live()
	if err := s.DoOp(0, func(op Op) error {
		p, err := op.PNew([]byte("ephemeral"))
		if err != nil {
			return err
		}
		return op.PDelete(p)
	}); err != nil {
		t.Fatal(err)
	}
	if s.Heap().Live() != live {
		t.Fatal("same-epoch create+delete leaked a block")
	}
	s.Sync(0)
	s.Device().Crash(pmem.CrashDropAll)
	_, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("ephemeral payload resurrected: %d payloads", len(got))
	}
}

func TestSameEpochDeleteOfFlushedAlloc(t *testing.T) {
	// A payload whose bytes were already written back (here: forced via a
	// tiny buffer that overflows) and which is then deleted in the same
	// epoch must be converted into an anti-payload, not freed immediately
	// — otherwise its durable bytes could resurrect it after a crash.
	cfg := Config{ArenaSize: 1 << 22, MaxThreads: 2}
	cfg.Epoch.BufferSize = 1
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var victim *PBlk
	if err := s.DoOp(0, func(op Op) error {
		var err error
		victim, err = op.PNew([]byte("flushed-then-deleted"))
		if err != nil {
			return err
		}
		// Overflow the 1-entry buffer so victim gets incrementally
		// written back.
		for i := 0; i < 3; i++ {
			if _, err := op.PNew([]byte{byte(i)}); err != nil {
				return err
			}
		}
		if !victim.flushed.Load() {
			t.Fatal("test setup: victim was not incrementally flushed")
		}
		return op.PDelete(victim)
	}); err != nil {
		t.Fatal(err)
	}
	s.Sync(0)
	s.Device().Crash(pmem.CrashDropAll)
	_, got, err := Recover(s.Device(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if bytes.Equal(p.data, []byte("flushed-then-deleted")) {
			t.Fatal("deleted payload resurrected from its flushed bytes")
		}
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d payloads, want the 3 fillers", len(got))
	}
}

func TestSameEpochSetGrowthKeepsNewestAfterCrash(t *testing.T) {
	// A Set in the payload's birth epoch that outgrows the block's size
	// class takes the copying path, leaving two blocks with the same uid
	// AND the same epoch. Recovery has no intra-epoch order among a uid's
	// versions, so the superseded image must never be durable next to the
	// new one — the chaos harness caught the stale value winning the
	// recovery scan (seed 350; see internal/chaos regression tests).
	for name, bufSize := range map[string]int{"buffered": 0, "preflushed": 1} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{ArenaSize: 1 << 22, MaxThreads: 2}
			// bufSize 1 forces the small image onto the device before the
			// growing Set, exercising the staged-header invalidation.
			cfg.Epoch.BufferSize = bufSize
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var big []byte
			if err := s.DoOp(0, func(op Op) error {
				p, err := op.PNew([]byte("small"))
				if err != nil {
					return err
				}
				if bufSize == 1 {
					// Overflow the 1-entry buffer so p's bytes get staged.
					if _, err := op.PNew([]byte("filler")); err != nil {
						return err
					}
					if !p.flushed.Load() {
						t.Fatal("test setup: p was not incrementally flushed")
					}
				}
				big = bytes.Repeat([]byte("G"), s.Heap().DataCapacity(p.addr)+1)
				np, err := op.Set(p, big)
				if err != nil {
					return err
				}
				if np == p {
					t.Fatal("test setup: Set did not take the copying path")
				}
				if np.BirthEpoch() != p.BirthEpoch() || np.UID() != p.UID() {
					t.Fatal("test setup: versions must share uid and epoch")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s.Sync(0)
			s.Device().Crash(pmem.CrashDropAll)
			_, got, err := Recover(s.Device(), cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			var wide *PBlk
			for _, p := range got {
				if bytes.Equal(p.data, []byte("small")) {
					t.Fatal("superseded same-epoch image survived recovery")
				}
				if bytes.Equal(p.data, big) {
					wide = p
				}
			}
			if wide == nil {
				t.Fatalf("sync-acked value missing after recovery (%d payloads)", len(got))
			}
		})
	}
}

func TestDoubleCrashNoResurrection(t *testing.T) {
	// Recovery must durably invalidate discarded blocks: after recovering
	// past a crash, a second crash must not bring discarded payloads back.
	s := newSys(t)
	runOps(t, s, 0, 5, "gen1")
	s.Sync(0) // gen1 durable
	runOps(t, s, 0, 5, "gen2")
	// gen2 not durable.
	s.Device().Crash(pmem.CrashDropAll)
	s2, got, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("first recovery: %d payloads, want 5", len(got))
	}
	// Crash again immediately.
	s2.Device().Crash(pmem.CrashDropAll)
	_, got2, err := Recover(s2.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 5 {
		t.Fatalf("second recovery: %d payloads, want 5 (no resurrection, no loss)", len(got2))
	}
	for _, p := range got2 {
		if string(p.data[:4]) != "gen1" {
			t.Fatalf("resurrected payload %q", p.data)
		}
	}
}

func TestRecoverParallelPartition(t *testing.T) {
	s := newSys(t)
	runOps(t, s, 0, 20, "p")
	s.Sync(0)
	s.Device().Crash(pmem.CrashDropAll)
	_, chunks, err := RecoverParallel(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("%d chunks", len(chunks))
	}
	total := 0
	seen := map[uint64]bool{}
	for _, c := range chunks {
		total += len(c)
		for _, p := range c {
			if seen[p.UID()] {
				t.Fatal("payload in two chunks")
			}
			seen[p.UID()] = true
		}
	}
	if total != 20 {
		t.Fatalf("chunks hold %d payloads, want 20", total)
	}
}

func TestUIDsResumeAfterRecovery(t *testing.T) {
	s := newSys(t)
	ps := runOps(t, s, 0, 5, "u")
	var maxUID uint64
	for _, p := range ps {
		if p.UID() > maxUID {
			maxUID = p.UID()
		}
	}
	s.Sync(0)
	s.Device().Crash(pmem.CrashDropAll)
	s2, _, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.DoOp(0, func(op Op) error {
		p, err := op.PNew([]byte("post"))
		if err != nil {
			return err
		}
		if p.UID() <= maxUID {
			t.Fatalf("uid %d reused (max pre-crash %d)", p.UID(), maxUID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochsNeverReusedAfterRecovery(t *testing.T) {
	s := newSys(t)
	for i := 0; i < 5; i++ {
		s.Advance()
	}
	pre := s.Epochs().Epoch()
	s.Device().Crash(pmem.CrashDropAll)
	s2, _, err := Recover(s.Device(), Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epochs().Epoch() <= pre-1 {
		t.Fatalf("epoch clock went backward: %d -> %d", pre, s2.Epochs().Epoch())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := newSys(t)
	runOps(t, s, 0, 7, "cp")
	path := filepath.Join(t.TempDir(), "pool.img")
	if err := s.Checkpoint(0, path); err != nil {
		t.Fatal(err)
	}
	dev, err := pmem.NewDeviceFromFile(path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := Recover(dev, Config{ArenaSize: 1 << 22, MaxThreads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("checkpoint image recovered %d payloads, want 7", len(got))
	}
}
