package server

import (
	"sync"
	"testing"
	"time"
)

// TestParkingLotSharedSubscriber drives many epoch-wait connections
// through the shared lot: every ack must arrive, the lot must have
// parked waiters (counted in obs), and the per-tick fanout histogram
// must show the shared subscriber waking them.
func TestParkingLotSharedSubscriber(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, DefaultMode: AckEpochWait})
	const conns, sets = 4, 8

	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialPipe(t, s)
			for j := 0; j < sets; j++ {
				c.send("set lot%d-%d 0 0 5\r\nvalue\r\n", i, j)
				c.expect("STORED")
			}
		}(i)
	}
	wg.Wait()

	snap := s.Recorder().Snapshot()
	if snap.Server.AcksEpoch != conns*sets {
		t.Fatalf("acks_epoch_wait = %d, want %d", snap.Server.AcksEpoch, conns*sets)
	}
	if snap.Server.ParkWaiters == 0 {
		t.Fatal("park_waiters = 0; epoch-wait acks never went through the lot")
	}
	if snap.Latency.ParkFanout.Count == 0 {
		t.Fatal("park_fanout recorded no ticks; the shared subscriber never woke a waiter")
	}
}

// TestParkingLotFastPath checks that an already-durable epoch never
// parks a waiter.
func TestParkingLotFastPath(t *testing.T) {
	s := newTestServer(t, Config{})
	c := dialPipe(t, s)
	c.send("set k 0 0 1\r\nv\r\n")
	c.expect("STORED")
	s.Sync()

	s.mu.RLock()
	lot := s.cur.lot.shard(0)
	s.mu.RUnlock()
	w := lot.esys.PersistedEpoch()
	before := s.Recorder().Snapshot().Server.ParkWaiters
	if !lot.wait(w) {
		t.Fatal("wait on an already-durable epoch reported a crash")
	}
	if got := s.Recorder().Snapshot().Server.ParkWaiters; got != before {
		t.Fatalf("durable-epoch wait parked (park_waiters %d -> %d)", before, got)
	}
}

// TestParkingLotCrashAborts pins the abort path through the lot: a
// crash while an epoch-wait ack is parked fails it with SERVER_ERROR
// (framing intact), exactly as the per-waiter WaitPersisted used to.
func TestParkingLotCrashAborts(t *testing.T) {
	// A huge epoch length means no daemon tick will ever release the
	// waiter; only the crash can.
	s := newTestServer(t, Config{EpochLength: time.Hour, AllowCrash: true})
	c := dialPipe(t, s)
	c.send("durability epoch-wait\r\n")
	c.expect("OK")
	c.send("set doomed 0 0 5\r\nvalue\r\n")

	// Wait until the ack is parked in the lot (no advance will come),
	// then crash from a second connection: the parked ack must fail.
	deadline := time.Now().Add(5 * time.Second)
	for s.Recorder().Snapshot().Server.ParkWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no waiter ever parked")
		}
		time.Sleep(time.Millisecond)
	}
	c2 := dialPipe(t, s)
	c2.send("crash\r\n")
	c2.expect("OK")
	c.expect("SERVER_ERROR crash: write may not be durable")
}
