// Command montage-kv is an interactive key-value shell over a persistent
// Montage pool, demonstrating the full lifecycle on one image:
// buffered updates, explicit sync, simulated crashes, recovery, and
// reopening a pool image across process runs.
//
// Usage:
//
//	montage-kv                          # fresh in-memory pool
//	montage-kv -pool pool.img           # reopen (or create) a pool image
//	montage-kv -pool pool.d -shards 4   # sharded pool (manifest directory)
//
// Commands:
//
//	set <key> <value>        store (buffered; durable within two epochs)
//	setttl <key> <sec> <val> store with expiry
//	get <key>                look up
//	del <key>                delete
//	keys                     list keys
//	sync                     force durability now, on every shard
//	crash                    power failure: lose unsynced work, recover
//	stats                    hit/miss/set counters + runtime counters
//	save                     write the pool image (requires -pool)
//	quit                     save (if -pool) and exit
//
// With -shards N > 1 the pool is partitioned into N independent epoch
// domains (each with its own arena, allocator, and clock); keys route
// by a stable hash, and the image becomes a directory of per-shard
// files. Reopening an image always adopts the image's shard count.
//
// With -stats-file, the shell also streams periodic runtime-stats
// snapshots (epoch advances, write-backs, fences, allocator usage) as
// JSONL; the recorder survives the crash command, so counters keep
// accumulating across recoveries.
//
// For serving a pool over the network (memcached text protocol with
// durability-aware acks), see cmd/montage-serve; both tools read and
// write the same pool image formats, so a pool built here can be served
// there and vice versa.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"montage"
	"montage/internal/kvstore"
	"montage/internal/obs"
)

const buckets = 4096

func main() {
	poolPath := flag.String("pool", "", "pool image path (empty: in-memory only)")
	shards := flag.Int("shards", 1, "independent epoch-domain shards (an existing -pool image's count wins)")
	arena := flag.Int("arena", 64<<20, "arena size in bytes (per shard)")
	statsFile := flag.String("stats-file", "", "stream runtime-stats snapshots as JSONL to this file")
	statsInterval := flag.Duration("stats-interval", time.Second, "sample interval for -stats-file (0: only a final snapshot)")
	flag.Parse()

	// One recorder for the whole process, shared by every shard: the
	// crash command replaces the pool's systems but keeps the recorder,
	// so counters span recoveries.
	rec := montage.NewRecorder(1)
	cfg := montage.PoolConfig{
		Shards: *shards,
		Core: montage.Config{
			ArenaSize:  *arena,
			MaxThreads: 1,
			Epoch:      montage.EpochConfig{EpochLength: montage.DefaultEpochLength},
			Recorder:   rec,
		},
	}

	var sampler *obs.Sampler
	if *statsFile != "" {
		f, err := os.Create(*statsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stats-file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sampler = obs.NewSampler(rec, f, *statsInterval)
		defer sampler.Stop()
	}

	var p *montage.Pool
	var store *kvstore.Store
	if *poolPath != "" {
		p2, chunks, loaded, err := montage.OpenPool(*poolPath, cfg, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reopen %s: %v\n", *poolPath, err)
			os.Exit(1)
		}
		if loaded {
			st, err := kvstore.RecoverShardedStore(p2, buckets, chunks, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rebuild: %v\n", err)
				os.Exit(1)
			}
			p, store = p2, st
			fmt.Printf("reopened pool %s (%d shards)\n", *poolPath, p.NumShards())
		}
	}
	if p == nil {
		var err error
		p, err = montage.NewPool(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store = kvstore.New(kvstore.NewShardedBackend(p, buckets), 0)
		fmt.Printf("created fresh pool (%d shards)\n", p.NumShards())
	}

	save := func() {
		if *poolPath == "" {
			fmt.Println("no -pool path; nothing saved")
			return
		}
		if err := p.Save(0, *poolPath); err != nil {
			fmt.Println("save failed:", err)
			return
		}
		fmt.Printf("pool saved to %s\n", *poolPath)
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "set":
			if len(fields) < 3 {
				fmt.Println("usage: set <key> <value>")
				break
			}
			if err := store.Set(0, fields[1], []byte(strings.Join(fields[2:], " "))); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("OK (buffered; sync to force durability)")
			}
		case "setttl":
			if len(fields) < 4 {
				fmt.Println("usage: setttl <key> <seconds> <value>")
				break
			}
			secs, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("bad ttl:", err)
				break
			}
			if err := store.SetTTL(0, fields[1], []byte(strings.Join(fields[3:], " ")), time.Duration(secs)*time.Second); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("OK")
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				break
			}
			if v, ok := store.Get(0, fields[1]); ok {
				fmt.Printf("%q\n", v)
			} else {
				fmt.Println("(not found)")
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				break
			}
			ok, err := store.Delete(0, fields[1])
			if err != nil {
				fmt.Println("error:", err)
			} else if ok {
				fmt.Println("deleted")
			} else {
				fmt.Println("(not found)")
			}
		case "keys":
			keys := storeKeys(store)
			if len(keys) == 0 {
				fmt.Println("(empty)")
			} else {
				fmt.Println(strings.Join(keys, "\n"))
			}
		case "sync":
			start := time.Now()
			p.Sync(0)
			fmt.Printf("synced %d shard(s) in %v\n", p.NumShards(), time.Since(start))
		case "crash":
			fmt.Println("simulating power failure...")
			// Crash stops every shard's epoch daemon (never Close: closing
			// would flush stale pre-crash buffers onto blocks the recovered
			// systems may reallocate), then drops un-fenced device state.
			p.Crash(montage.CrashDropAll)
			p2, chunks, err := p.Recover(1)
			if err != nil {
				fmt.Println("recovery failed:", err)
				break
			}
			st, err := kvstore.RecoverShardedStore(p2, buckets, chunks, 0)
			if err != nil {
				fmt.Println("rebuild failed:", err)
				break
			}
			p, store = p2, st
			fmt.Printf("recovered; %d keys survive\n", store.Len())
		case "stats":
			st := store.Stats()
			fmt.Printf("hits=%d misses=%d sets=%d deletes=%d expirations=%d\n",
				st.Hits.Load(), st.Misses.Load(), st.Sets.Load(), st.Deletes.Load(), st.Expirations.Load())
			rt := p.Snapshot()
			fmt.Printf("shards: %d\n", p.NumShards())
			fmt.Printf("epoch: advances=%d syncs=%d persist_queued=%d persist_pending=%d\n",
				rt.Epoch.Advances, rt.Epoch.Syncs, rt.Epoch.PersistQueued, rt.Epoch.PersistPending)
			fmt.Printf("device: write_backs=%d (%dB) fences=%d commits=%d (%dB)\n",
				rt.Device.WriteBacks, rt.Device.WriteBackBytes, rt.Device.Fences,
				rt.Device.Commits, rt.Device.CommitBytes)
			fmt.Printf("alloc: blocks_in_use=%d bytes_in_use=%d  ops=%d retries=%d recoveries=%d\n",
				rt.Alloc.BlocksInUse, rt.Alloc.BytesInUse,
				rt.Runtime.Ops, rt.Runtime.OpRetries, rt.Runtime.Recoveries)
			// When the recorder has seen serving traffic (a pool driven
			// through cmd/montage-serve in the same process, or a shared
			// stats stream), report the front end's ack counters too.
			if rt.Server.Conns > 0 {
				fmt.Printf("server: conns=%d gets=%d sets=%d acks: buffered=%d sync=%d epoch_wait=%d aborted=%d\n",
					rt.Server.Conns, rt.Server.OpsGet, rt.Server.OpsSet,
					rt.Server.AcksBuffered, rt.Server.AcksSync, rt.Server.AcksEpoch,
					rt.Server.AcksAborted)
				fmt.Printf("server: ack_sync_p99=%dns ack_epoch_wait_p99=%dns pipeline_depth_p99=%d\n",
					rt.Latency.AckSyncNs.P99, rt.Latency.AckEpochNs.P99,
					rt.Latency.PipelineDepth.P99)
			}
		case "save":
			save()
		case "quit", "exit":
			save()
			p.Close()
			return
		default:
			fmt.Println("commands: set setttl get del keys sync crash stats save quit")
			fmt.Println("(to serve a pool over TCP, use montage-serve; it reads the same -pool images)")
		}
		fmt.Print("> ")
	}
}

// storeKeys lists the store's keys in sorted order.
func storeKeys(s *kvstore.Store) []string {
	keys := s.Keys(0)
	sort.Strings(keys)
	return keys
}
