package kvstore

import (
	"testing"

	"montage/internal/baselines"
	"montage/internal/core"
	"montage/internal/pmem"
)

func TestStoreAddReplace(t *testing.T) {
	s, _ := newMontageStore(t)

	if stored, tag, err := s.Add(0, "k", []byte("v1"), 0); err != nil || !stored || tag.IsZero() {
		t.Fatalf("Add(absent) = %v tag=%v err=%v", stored, tag, err)
	}
	if stored, _, err := s.Add(0, "k", []byte("v2"), 0); err != nil || stored {
		t.Fatalf("Add(present) = %v err=%v, want not stored", stored, err)
	}
	if v, _ := s.Get(0, "k"); string(v) != "v1" {
		t.Fatalf("Add(present) overwrote: %q", v)
	}

	if stored, _, err := s.Replace(0, "missing", []byte("x"), 0); err != nil || stored {
		t.Fatalf("Replace(absent) = %v err=%v, want not stored", stored, err)
	}
	if stored, tag, err := s.Replace(0, "k", []byte("v3"), 0); err != nil || !stored || tag.IsZero() {
		t.Fatalf("Replace(present) = %v tag=%v err=%v", stored, tag, err)
	}
	if v, _ := s.Get(0, "k"); string(v) != "v3" {
		t.Fatalf("Replace lost: %q", v)
	}
}

func TestStoreCompareAndSwap(t *testing.T) {
	s, _ := newMontageStore(t)
	s.Set(0, "k", []byte("v1"))

	_, cas, ok := s.GetWithCAS(0, "k")
	if !ok || cas == 0 {
		t.Fatalf("GetWithCAS = cas %d ok %v", cas, ok)
	}
	if out, tag, err := s.CompareAndSwap(0, "k", []byte("v2"), 0, cas); err != nil || out != CASStored || tag.IsZero() {
		t.Fatalf("CAS(match) = %v tag=%v err=%v", out, tag, err)
	}
	// The stale token must now fail: the item has a fresh one.
	if out, _, err := s.CompareAndSwap(0, "k", []byte("v3"), 0, cas); err != nil || out != CASExists {
		t.Fatalf("CAS(stale) = %v err=%v, want CASExists", out, err)
	}
	if v, _ := s.Get(0, "k"); string(v) != "v2" {
		t.Fatalf("stale CAS overwrote: %q", v)
	}
	if out, _, err := s.CompareAndSwap(0, "missing", []byte("x"), 0, cas); err != nil || out != CASNotFound {
		t.Fatalf("CAS(absent) = %v err=%v, want CASNotFound", out, err)
	}
	st := s.Stats()
	if st.CASHits.Load() != 1 || st.CASMisses.Load() != 2 {
		t.Fatalf("cas stats hits=%d misses=%d", st.CASHits.Load(), st.CASMisses.Load())
	}
}

func TestStoreTouch(t *testing.T) {
	s, _ := newMontageStore(t)
	var now int64
	s.now = func() int64 { return now }

	s.SetTTL(0, "k", []byte("v"), 10)
	if found, tag, err := s.Touch(0, "k", 100); err != nil || !found || tag.IsZero() {
		t.Fatalf("Touch = %v tag=%v err=%v", found, tag, err)
	}
	now = 50 // past the original expiry, inside the touched one
	if v, ok := s.Get(0, "k"); !ok || string(v) != "v" {
		t.Fatalf("touched item expired early: %q %v", v, ok)
	}
	now = 150
	if _, ok := s.Get(0, "k"); ok {
		t.Fatal("touched item survived its new expiry")
	}
	if found, _, err := s.Touch(0, "k", 100); err != nil || found {
		t.Fatalf("Touch(expired) = %v err=%v, want not found", found, err)
	}
	if s.Stats().Touches.Load() != 1 {
		t.Fatalf("touches = %d", s.Stats().Touches.Load())
	}
}

func TestStoreEpochTags(t *testing.T) {
	s, sys := newMontageStore(t)
	tag, err := s.SetTag(0, "k", []byte("v"), 0)
	if err != nil || tag.IsZero() {
		t.Fatalf("SetTag = %v err=%v", tag, err)
	}
	if tag.Shard != 0 {
		t.Fatalf("single-system tag shard = %d, want 0", tag.Shard)
	}
	if e := sys.Epochs().Epoch(); tag.Epoch > e {
		t.Fatalf("tag %v beyond the clock %d", tag, e)
	}
	// The tag obeys the two-epoch rule through the watermark.
	if sys.Epochs().PersistedEpoch() >= tag.Epoch {
		t.Fatal("write reported durable before any advance")
	}
	sys.Advance()
	sys.Advance()
	if sys.Epochs().PersistedEpoch() < tag.Epoch {
		t.Fatal("write not durable after two advances")
	}
	if ok, dtag, err := s.DeleteTag(0, "k"); err != nil || !ok || dtag.Epoch < tag.Epoch {
		t.Fatalf("DeleteTag = %v %v err=%v", ok, dtag, err)
	}
}

func TestStoreTransientTagsZero(t *testing.T) {
	env, err := baselines.NewEnv(1<<22, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(NewTransientBackend(baselines.NewTransientMap(env, baselines.DRAM, 64)), 0)
	if tag, err := s.SetTag(0, "k", []byte("v"), 0); err != nil || !tag.IsZero() {
		t.Fatalf("transient SetTag = %v err=%v, want zero tag", tag, err)
	}
	if stored, tag, err := s.Add(0, "k2", []byte("v"), 0); err != nil || !stored || !tag.IsZero() {
		t.Fatalf("transient Add = %v %v err=%v", stored, tag, err)
	}
	if ok, tag, err := s.DeleteTag(0, "k"); err != nil || !ok || !tag.IsZero() {
		t.Fatalf("transient DeleteTag = %v %v err=%v", ok, tag, err)
	}
}

func TestStoreFlush(t *testing.T) {
	s, _ := newMontageStore(t)
	for _, k := range []string{"a", "b", "c"} {
		s.Set(0, k, []byte("v"))
	}
	n, tags, err := s.Flush(0)
	if err != nil || n != 3 || len(tags) != 1 || tags[0].IsZero() {
		t.Fatalf("Flush = %d tags=%v err=%v", n, tags, err)
	}
	if keys := s.Keys(0); len(keys) != 0 {
		t.Fatalf("keys after flush: %v", keys)
	}
}

// TestCASTokenSurvivesCrash checks that gets/cas pairs span a crash: the
// recovered store resumes its token sequence above every survivor, so a
// stale pre-crash token cannot accidentally match a post-crash item.
func TestCASTokenSurvivesCrash(t *testing.T) {
	s, sys := newMontageStore(t)
	s.Set(0, "k", []byte("v1"))
	_, cas, _ := s.GetWithCAS(0, "k")
	sys.Sync(0)

	sys.Device().Crash(pmem.CrashDropAll)
	sys2, chunks, err := core.RecoverParallel(sys.Device(), core.Config{ArenaSize: 1 << 24, MaxThreads: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RecoverMontageStore(sys2, 256, chunks)
	if err != nil {
		t.Fatal(err)
	}
	_, cas2, ok := s2.GetWithCAS(0, "k")
	if !ok || cas2 != cas {
		t.Fatalf("recovered cas = %d ok=%v, want %d", cas2, ok, cas)
	}
	// A fresh write must mint a token above the survivor's.
	s2.Set(0, "k2", []byte("x"))
	_, cas3, _ := s2.GetWithCAS(0, "k2")
	if cas3 <= cas {
		t.Fatalf("post-recovery token %d not above surviving %d", cas3, cas)
	}
	if out, _, err := s2.CompareAndSwap(0, "k", []byte("v2"), 0, cas); err != nil || out != CASStored {
		t.Fatalf("CAS with pre-crash token = %v err=%v", out, err)
	}
}
