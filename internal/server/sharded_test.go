package server

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestShardedServerEpochWaitAcks drives a 4-shard server through
// epoch-wait writes: every ack must park on the OWNING shard's persist
// watermark (keys land on different shards, so a single global fence
// would be wrong in both directions), and every acked key must read
// back.
func TestShardedServerEpochWaitAcks(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4})
	if got := s.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	c := dialPipe(t, s)

	c.send("durability epoch-wait\r\n")
	c.expect("OK")
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("ew-%d", i)
		c.send("set %s 0 0 2\r\nok\r\n", k)
		c.expect("STORED")
	}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("ew-%d", i)
		c.send("get %s\r\n", k)
		c.expect(fmt.Sprintf("VALUE %s 0 2", k), "ok", "END")
	}
	if got := s.Recorder().Snapshot().Server.AcksEpoch; got != 16 {
		t.Fatalf("epoch-wait acks = %d, want 16", got)
	}
}

// TestShardedServerStats checks the stats surface: the flat epoch keys
// stay (shard 0, for existing scrapers), and a multi-shard pool adds a
// shards count plus per-shard epoch/persisted-epoch pairs.
func TestShardedServerStats(t *testing.T) {
	s := newTestServer(t, Config{Shards: 3})
	c := dialPipe(t, s)

	c.send("stats\r\n")
	stats := map[string]string{}
	for {
		line := c.line()
		if line == "END" {
			break
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) == 3 && parts[0] == "STAT" {
			stats[parts[1]] = parts[2]
		}
	}
	if stats["shards"] != "3" {
		t.Fatalf("STAT shards = %q, want 3 (stats: %v)", stats["shards"], stats)
	}
	for _, k := range []string{"epoch", "persisted_epoch",
		"shard_0_epoch", "shard_1_epoch", "shard_2_epoch",
		"shard_0_persisted_epoch", "shard_2_persisted_epoch"} {
		if _, ok := stats[k]; !ok {
			t.Fatalf("stats missing %q (got %v)", k, stats)
		}
	}
}

// TestShardedServerCrashRecovery injects a wire-protocol crash into a
// 2-shard server: sync-acked keys on BOTH shards survive, the buffered
// key is lost, and the same connection keeps serving the recovered
// pool.
func TestShardedServerCrashRecovery(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, AllowCrash: true, EpochLength: time.Hour})
	c := dialPipe(t, s)

	c.send("durability sync\r\n")
	c.expect("OK")
	// Enough keys that the router provably exercises both shards.
	const n = 8
	for i := 0; i < n; i++ {
		c.send("set dur-%d 0 0 2\r\nok\r\n", i)
		c.expect("STORED")
	}
	c.send("durability buffered\r\n")
	c.expect("OK")
	c.send("set volatile 0 0 4\r\ngone\r\n")
	c.expect("STORED")

	c.send("crash\r\n")
	c.expect("OK")
	for i := 0; i < n; i++ {
		c.send("get dur-%d\r\n", i)
		c.expect(fmt.Sprintf("VALUE dur-%d 0 2", i), "ok", "END")
	}
	c.send("get volatile\r\n")
	c.expect("END")
	if got := s.NumShards(); got != 2 {
		t.Fatalf("post-crash NumShards = %d, want 2", got)
	}
}

// TestShardedServerPoolReopen saves a 3-shard server's pool on
// shutdown and reopens it with a DIFFERENT configured shard count: the
// image's count must win (router consistency), and every key must
// survive the round trip.
func TestShardedServerPoolReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.d")

	s1 := newTestServer(t, Config{Shards: 3, PoolPath: path})
	c := dialPipe(t, s1)
	for i := 0; i < 12; i++ {
		c.send("set persist-%d 0 0 2\r\nok\r\n", i)
		c.expect("STORED")
	}
	c.c.Close()
	c.wg.Wait()
	if err := s1.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Shards: 1, PoolPath: path})
	if got := s2.NumShards(); got != 3 {
		t.Fatalf("reopened NumShards = %d, want 3 (image must win)", got)
	}
	c2 := dialPipe(t, s2)
	for i := 0; i < 12; i++ {
		c2.send("get persist-%d\r\n", i)
		c2.expect(fmt.Sprintf("VALUE persist-%d 0 2", i), "ok", "END")
	}
}
