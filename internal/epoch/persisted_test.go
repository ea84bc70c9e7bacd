package epoch

import (
	"testing"
	"time"
)

// TestPersistedEpochTwoEpochRule pins the watermark to the two-epoch
// rule: work performed in epoch e is reported durable exactly when the
// clock has ticked twice past it, never earlier.
func TestPersistedEpochTwoEpochRule(t *testing.T) {
	// Pins the buffered write-back timing along with the watermark rule.
	f := newFixture(t, Config{})
	s := f.sys

	e := s.BeginOp(0)
	p := f.newPayload(t, 0, e, 1, []byte("payload"))
	s.AddToPersist(0, e, p)
	s.EndOp(0)

	if got := s.PersistedEpoch(); got >= e {
		t.Fatalf("PersistedEpoch = %d before any advance; op epoch %d must not be durable", got, e)
	}
	s.Advance() // clock e+1: epoch e-1 durable, e still buffered
	if got := s.PersistedEpoch(); got >= e {
		t.Fatalf("PersistedEpoch = %d after one advance; two-epoch rule violated", got)
	}
	if p.flushed.Load() {
		// Buffered policy with a 64-entry buffer: nothing forced it out yet.
		t.Fatal("payload written back before its boundary advance")
	}
	s.Advance() // clock e+2: epoch e durable
	if got := s.PersistedEpoch(); got != e {
		t.Fatalf("PersistedEpoch = %d after two advances, want %d", got, e)
	}
	if !p.flushed.Load() {
		t.Fatal("payload not written back although watermark covers its epoch")
	}
	// The watermark must agree with the durable clock: clock-2.
	if clk := s.Epoch(); s.PersistedEpoch() != clk-2 {
		t.Fatalf("PersistedEpoch = %d, clock = %d; want clock-2", s.PersistedEpoch(), clk)
	}
}

// TestWaitPersistedOrdering checks that WaitPersisted releases exactly at
// the tick that makes its epoch durable.
func TestWaitPersistedOrdering(t *testing.T) {
	f := newFixture(t, Config{})
	s := f.sys

	e := s.BeginOp(0)
	s.EndOp(0)

	done := make(chan uint64, 1)
	go func() {
		s.WaitPersisted(e, nil)
		done <- s.PersistedEpoch()
	}()

	select {
	case <-done:
		t.Fatal("WaitPersisted returned before any advance")
	case <-time.After(10 * time.Millisecond):
	}
	s.Advance()
	select {
	case <-done:
		t.Fatal("WaitPersisted returned after one advance; two-epoch rule violated")
	case <-time.After(10 * time.Millisecond):
	}
	s.Advance()
	select {
	case watermark := <-done:
		if watermark < e {
			t.Fatalf("WaitPersisted released at watermark %d < epoch %d", watermark, e)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitPersisted did not release at the tick that persisted its epoch")
	}

	// Already-durable epochs return immediately.
	if !s.WaitPersisted(e, nil) {
		t.Fatal("WaitPersisted(durable epoch) = false")
	}
}

// TestWaitPersistedAbort checks the crash-teardown path: an aborted wait
// reports false when the epoch had not persisted.
func TestWaitPersistedAbort(t *testing.T) {
	f := newFixture(t, Config{})
	s := f.sys

	e := s.BeginOp(0)
	s.EndOp(0)

	abort := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- s.WaitPersisted(e, abort) }()
	select {
	case <-done:
		t.Fatal("WaitPersisted returned without tick or abort")
	case <-time.After(10 * time.Millisecond):
	}
	close(abort)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("aborted WaitPersisted reported the epoch durable")
		}
	case <-time.After(time.Second):
		t.Fatal("WaitPersisted ignored abort")
	}
}

// TestPersistTickBroadcast checks that every subscriber observes every
// tick and that re-arming never loses a concurrent advance.
func TestPersistTickBroadcast(t *testing.T) {
	f := newFixture(t, Config{})
	s := f.sys

	const subscribers = 4
	release := make(chan struct{})
	results := make(chan uint64, subscribers)
	for i := 0; i < subscribers; i++ {
		ch := s.PersistTick()
		go func(ch <-chan struct{}) {
			<-release
			<-ch
			results <- s.PersistedEpoch()
		}(ch)
	}
	before := s.PersistedEpoch()
	s.Advance()
	close(release)
	for i := 0; i < subscribers; i++ {
		select {
		case w := <-results:
			if w != before+1 {
				t.Fatalf("subscriber saw watermark %d, want %d", w, before+1)
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber missed the persist tick")
		}
	}
}

// TestAbandonStopsDaemon checks that Abandon halts the daemon without
// the two flushing advances Close would perform.
func TestAbandonStopsDaemon(t *testing.T) {
	f := newFixture(t, Config{EpochLength: time.Millisecond})
	s := f.sys
	// Let the daemon tick at least once.
	ch := s.PersistTick()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("daemon never ticked")
	}
	s.Abandon()
	before := s.Epoch()
	time.Sleep(10 * time.Millisecond)
	if after := s.Epoch(); after != before {
		t.Fatalf("clock moved %d -> %d after Abandon", before, after)
	}
}

// TestAdvanceWithoutSubscriberZeroAllocs pins the lazily made tick
// channel: an advance nobody watches (every sync- and buffered-acked
// write's) allocates nothing.
func TestAdvanceWithoutSubscriberZeroAllocs(t *testing.T) {
	f := newFixture(t, Config{})
	s := f.sys
	for i := 0; i < 3; i++ { // warm the device's staging pool
		s.Advance()
	}
	if n := testing.AllocsPerRun(100, s.Advance); n != 0 {
		t.Fatalf("Advance with no tick subscriber allocates %.1f/op, want 0", n)
	}
}

// TestPersistTickArmedBetweenAdvances checks the other half: a
// subscriber that takes the channel after an unwatched advance is woken
// by the very next advance, not the one after.
func TestPersistTickArmedBetweenAdvances(t *testing.T) {
	f := newFixture(t, Config{})
	s := f.sys
	s.Advance() // unwatched: leaves no channel behind
	ch := s.PersistTick()
	select {
	case <-ch:
		t.Fatal("tick channel taken after an advance is already closed")
	default:
	}
	if again := s.PersistTick(); again != ch {
		t.Fatal("two subscribers of one tick got different channels")
	}
	s.Advance()
	select {
	case <-ch:
	default:
		t.Fatal("the advance after PersistTick did not close its channel")
	}
}
