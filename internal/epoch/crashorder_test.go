package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"montage/internal/pmem"
)

// TestAdvancePublishesDurableClockFirst pins the advance's step-(5)
// ordering: the durable clock commits BEFORE the volatile clock
// publishes. Every sync and epoch-wait ack derives from the volatile
// clock, so publishing first opens a window where a waiter observes the
// new epoch (and acks a client) while a crash would still recover with
// the old durable clock, discarding the acked epoch.
//
// The window is made exact with a crash armed at the clock write's own
// fence: the notify callback runs on the advancing goroutine at the
// crash instant, before the clock write commits. The volatile
// clock readable at that instant is what any waiter could have acted on
// before the machine died, and the durable clock left behind must cover
// it. With the correct order the new value is not yet published at the
// crash; with the inverted order it deterministically is.
func TestAdvancePublishesDurableClockFirst(t *testing.T) {
	f := newFixture(t, Config{})
	// Warm up until the durable clock tracks the published one.
	f.sys.Advance()
	f.sys.Advance()

	for round := 0; round < 8; round++ {
		var vAtCrash atomic.Uint64
		// A bare advance's only Fence is the clock write's: skip 0 lands
		// the crash inside it, before the clock commit reaches the media.
		f.dev.ArmCrash(pmem.CrashAtFence, 0, pmem.CrashDropAll, func() {
			vAtCrash.Store(f.sys.Epoch())
		})
		f.sys.Advance()
		if vAtCrash.Load() == 0 {
			t.Fatal("armed clock-fence crash did not fire")
		}

		d, err := ReadClock(f.dev)
		if err != nil {
			t.Fatal(err)
		}
		if v := vAtCrash.Load(); v > d {
			t.Fatalf("round %d: volatile clock %d was published before the crash, "+
				"but the durable clock is still %d — a waiter acking off the "+
				"published value would have its epoch discarded by recovery", round, v, d)
		}

		// Next round from a clean, synchronized clock pair.
		f.dev.Revive()
		f.sys.Advance()
	}
}

// gatedPayload parks its flush (in PDead, the first thing flushOne asks)
// until released, holding a worker between taking a payload out of its
// container and staging it on the device.
type gatedPayload struct {
	*mockPayload
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedPayload) PDead() bool {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.mockPayload.PDead()
}

// TestAdvanceCoversHelpingWorker pins the other half of the ordering: the
// durable clock may not certify an epoch while one of its payloads is in
// the hands of a worker helping a sync. The helper drains its own
// previous-epoch container from BeginOp, where it is already registered
// in the new epoch and waitAll no longer waits for it; an advance that
// found the container emptied and drained the device before the helper
// had staged the payload would write a clock that promises the payload,
// and a crash there loses an epoch that syncs and epoch-wait acks had
// already covered.
func TestAdvanceCoversHelpingWorker(t *testing.T) {
	f := newFixture(t, Config{})
	s := f.sys
	e := s.BeginOp(0)
	p := &gatedPayload{
		mockPayload: f.newPayload(t, 0, e, 1, []byte("helped")),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	s.AddToPersist(0, e, p)
	s.EndOp(0)
	s.Advance() // clock e+1; p still sits in to_persist[e]

	s.syncActive.Add(1) // a sync is in flight, so BeginOp helps
	helperDone := make(chan struct{})
	go func() {
		defer close(helperDone)
		s.BeginOp(0) // drains to_persist[e]; parks mid-flush on the gate
		s.EndOp(0)
	}()
	<-p.entered
	advDone := make(chan struct{})
	go func() {
		defer close(advDone)
		s.Advance() // e+1 -> e+2 certifies epoch e
	}()
	covered := func() {
		t.Helper()
		if clk, err := ReadClock(f.dev); err != nil || clk != e+2 {
			t.Fatalf("durable clock = %d (%v), want %d", clk, err, e+2)
		}
		if h, ok := f.durableHeader(t, p.addr); !ok || h.Epoch != e {
			t.Fatalf("durable clock certifies epoch %d but its payload is not on the media", e)
		}
	}
	select {
	case <-advDone:
		covered() // an advance that did not wait must have persisted p itself
	case <-time.After(100 * time.Millisecond):
	}
	close(p.release)
	<-advDone
	<-helperDone
	s.syncActive.Add(-1)
	covered()
}

// TestWaitPersistedReleasedOnTeardown hammers the crash-teardown wakeup:
// waiters parked on epochs that will never persist — some with nil abort
// channels — must all be released by Abandon (and by Close), never hang.
func TestWaitPersistedReleasedOnTeardown(t *testing.T) {
	for _, teardown := range []string{"abandon", "close"} {
		t.Run(teardown, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				f := newFixture(t, Config{})
				const waiters = 24
				results := make(chan bool, waiters)
				started := make(chan struct{}, waiters)
				for i := 0; i < waiters; i++ {
					go func(i int) {
						// Far-future epochs: no advance will persist them, so
						// only the teardown broadcast can release these. Half
						// the waiters have no abort channel at all — the case
						// that used to hang forever on crash teardown.
						var abort chan struct{}
						if i%2 == 0 {
							abort = make(chan struct{})
						}
						started <- struct{}{}
						results <- f.sys.WaitPersisted(f.sys.Epoch()+100, abort)
					}(i)
				}
				for i := 0; i < waiters; i++ {
					<-started
				}
				if teardown == "abandon" {
					f.sys.Abandon()
				} else {
					f.sys.Close()
				}
				timeout := time.After(5 * time.Second)
				for i := 0; i < waiters; i++ {
					select {
					case ok := <-results:
						if ok {
							t.Fatal("teardown-released waiter reported its epoch durable")
						}
					case <-timeout:
						t.Fatalf("round %d: waiter still parked after %s", round, teardown)
					}
				}
			}
		})
	}
}
