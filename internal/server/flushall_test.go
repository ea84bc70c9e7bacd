package server

import (
	"net"
	"strconv"
	"testing"
	"time"

	"montage/internal/pool"
)

// expectNoLine asserts that no response arrives within the window — the
// probe for an ack that must still be parked.
func (tc *testClient) expectNoLine(window time.Duration) {
	tc.t.Helper()
	tc.c.SetReadDeadline(time.Now().Add(window))
	b, err := tc.br.ReadByte()
	if err == nil {
		tc.t.Fatalf("expected parked ack, got response byte %q", b)
	}
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		tc.t.Fatalf("expected read timeout, got %v", err)
	}
}

// TestFlushAllEpochWaitAllShards pins the multi-tag durability contract
// of flush_all: under epoch-wait the ack parks until the flush's epoch
// persists on EVERY touched shard, not just the first tag's. The epoch
// length is an hour so only the test's explicit advances move any
// clock, and the per-shard clocks are skewed first so a single-shard
// wait cannot accidentally cover the others.
func TestFlushAllEpochWaitAllShards(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, EpochLength: time.Hour, AllowCrash: true})
	c := dialPipe(t, s, 0)

	// Skew the shard clocks so the flush's tags sit at distinct epochs.
	s.mu.RLock()
	p := s.cur.pool
	s.mu.RUnlock()
	for i := 0; i < 3; i++ {
		p.Shard(1).Advance()
	}
	p.Shard(2).Advance()

	// Buffered writes across all four shards.
	covered := make(map[int]bool)
	keys := make([]string, 0, 24)
	for i := 0; len(covered) < 4 || i < 24; i++ {
		k := "flushkey-" + strconv.Itoa(i)
		keys = append(keys, k)
		covered[pool.ShardForKey(k, 4)] = true
		c.send("set %s 0 0 2\r\nvv\r\n", k)
		c.expect("STORED")
	}

	c.send("durability epoch-wait\r\n")
	c.expect("OK")
	c.send("flush_all\r\n")

	// The send returns once the server has read the line, not once it has
	// run it: watch from a second connection until every key is gone, so
	// the advances below cannot land before the flush takes its tags.
	c2 := dialPipe(t, s, 1)
	for _, k := range keys {
		for {
			c2.send("get %s\r\n", k)
			if c2.line() == "END" {
				break
			}
			c2.expect("vv", "END")
		}
	}

	// Persisting only shard 0's epoch must NOT release the ack: the
	// flush deleted keys on every shard.
	for i := 0; i < 3; i++ {
		p.Shard(0).Advance()
	}
	c.expectNoLine(200 * time.Millisecond)

	// Once every shard's clock has moved past the flush epoch, the
	// parked ack drains.
	for sh := 1; sh < 4; sh++ {
		for i := 0; i < 3; i++ {
			p.Shard(sh).Advance()
		}
	}
	c.expect("OK")

	// The acked flush is durable under the two-epoch rule: a crash after
	// the ack must not resurrect any flushed key.
	s.SeedCrashRNG(5)
	c.send("crash partial\r\n")
	c.expect("OK")
	for _, k := range keys {
		c.send("get %s\r\n", k)
		c.expect("END")
	}

	// The recovered runtime is live for new writes (back to buffered
	// acks: nothing advances the hour-long epochs after the crash).
	c.send("durability buffered\r\n")
	c.expect("OK")
	c.send("set postcrash 0 0 2\r\nok\r\n")
	c.expect("STORED")
	c.send("get postcrash\r\n")
	c.expect("VALUE postcrash 0 2", "ok", "END")
}
