// Command montage-chaos explores seeded crash schedules against the
// sharded Montage pool and checks buffered durable linearizability after
// every recovery. Each schedule is one seed: concurrent workers drive a
// randomized, contended op mix in randomized durability-ack modes; a
// crash fires at a seeded point (an armed device crash point — mid-fence,
// mid-drain, mid-durable-write — or after a seeded op count, optionally
// with a second crash inside the recovery sweep); the pool recovers and
// the checker verifies the surviving state against the recorded history:
// acked sync/epoch-wait writes at or below their shard's persist
// watermark survived, nothing above any watermark survived, and every
// surviving value is explained by some linearization.
//
// Usage:
//
//	montage-chaos -seed 1 -schedules 1000
//	montage-chaos -seed 350 -shards 4 -mode partial -schedules 1   # reproduce
//
// By default the shard count cycles through 1/2/4 and the crash mode
// alternates drop-all/partial per seed, so a sweep covers the mix; pin
// -shards and -mode to reproduce a single reported schedule. Any
// violation prints the exact reproduce command, the violated keys' op
// histories, and the tail of the runtime's epoch-lifecycle trace, then
// the process exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"montage/internal/chaos"
	"montage/internal/obs"
	"montage/internal/pmem"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "first schedule seed (schedule i uses seed+i)")
		schedules = flag.Int("schedules", 256, "number of seeded schedules to explore")
		workers   = flag.Int("workers", 0, "op-driving goroutines per schedule (0 = harness default)")
		keys      = flag.Int("keys", 0, "key-universe size (0 = harness default)")
		ops       = flag.Int("ops", 0, "max ops per worker (0 = harness default)")
		shards    = flag.Int("shards", 0, "pool shard count; 0 cycles through 1/2/4 by seed")
		mode      = flag.String("mode", "mix", "crash mode: drop, partial, or mix (alternate by seed)")
		net       = flag.Bool("net", false, "drive schedules through a live TCP server")
		nodes     = flag.Int("nodes", 1, "with -net: cluster width; >1 proxies schedules over N servers with a mid-schedule node kill+revive")
		traceN    = flag.Int("trace", 16, "epoch-lifecycle trace events to dump on a violation")
		quiet     = flag.Bool("q", false, "suppress the per-1000-schedules progress line")
	)
	flag.Parse()
	if *nodes > 1 && !*net {
		fmt.Fprintln(os.Stderr, "-nodes > 1 requires -net")
		os.Exit(2)
	}

	shardMix := []int{1, 2, 4}
	var (
		totalOps    int
		crashes     int
		midRecovery int
		byTrigger   = map[string]int{}
		failures    int
	)
	for i := 0; i < *schedules; i++ {
		s := *seed + int64(i)
		cfg := chaos.Config{
			Seed:         s,
			Workers:      *workers,
			Keys:         *keys,
			OpsPerWorker: *ops,
			Net:          *net,
			Nodes:        *nodes,
		}
		if *shards > 0 {
			cfg.Shards = *shards
		} else {
			cfg.Shards = shardMix[s%3]
		}
		switch *mode {
		case "drop":
			cfg.Mode = pmem.CrashDropAll
		case "partial":
			cfg.Mode = pmem.CrashPartial
		case "mix":
			cfg.Mode = []pmem.CrashMode{pmem.CrashDropAll, pmem.CrashPartial}[s%2]
		default:
			fmt.Fprintf(os.Stderr, "unknown -mode %q (want drop, partial, or mix)\n", *mode)
			os.Exit(2)
		}
		rec := obs.New(16)
		rec.SetEnabled(true)
		cfg.Recorder = rec

		res, err := chaos.RunSchedule(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: schedule failed to run: %v\n", s, err)
			os.Exit(1)
		}
		totalOps += res.Ops
		crashes++
		if res.MidRecoveryCrash {
			midRecovery++
			crashes++
		}
		byTrigger[triggerClass(res.Trigger)]++
		if len(res.Violations) > 0 {
			failures++
			reportViolation(cfg, res, rec, *traceN)
		}
		if !*quiet && (i+1)%1000 == 0 {
			fmt.Printf("... %d/%d schedules, %d ops, %d violations\n",
				i+1, *schedules, totalOps, failures)
		}
	}

	fmt.Printf("explored %d schedules (%d crashes, %d with a second crash mid-recovery), %d recorded ops\n",
		*schedules, crashes, midRecovery, totalOps)
	fmt.Printf("crash triggers:")
	for _, k := range []string{"fence", "drain", "durable", "ops", "net-ops", "cluster"} {
		if n := byTrigger[k]; n > 0 {
			fmt.Printf(" %s=%d", k, n)
		}
	}
	fmt.Println()
	if failures > 0 {
		fmt.Printf("FAIL: %d schedules violated buffered durable linearizability\n", failures)
		os.Exit(1)
	}
	fmt.Println("OK: zero violations")
}

// triggerClass buckets a schedule's trigger string ("fence@shard2+3",
// "ops@57+recovery", ...) by its crash point.
func triggerClass(trigger string) string {
	if strings.HasPrefix(trigger, "cluster") {
		return "cluster"
	}
	if i := strings.IndexByte(trigger, '@'); i >= 0 {
		return trigger[:i]
	}
	return trigger
}

// reportViolation prints everything needed to reproduce and diagnose a
// failed schedule: the exact rerun command, the checker's complaints,
// the violated keys' full op histories, and the runtime trace tail.
func reportViolation(cfg chaos.Config, res chaos.Result, rec *obs.Recorder, traceN int) {
	w := os.Stderr
	modeFlag := "drop"
	if cfg.Mode == pmem.CrashPartial {
		modeFlag = "partial"
	}
	netFlag := ""
	if cfg.Net {
		netFlag = " -net"
	}
	if res.Nodes > 1 {
		netFlag += fmt.Sprintf(" -nodes %d", res.Nodes)
	}
	if cfg.Keys > 0 {
		netFlag += fmt.Sprintf(" -keys %d", cfg.Keys)
	}
	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "VIOLATION seed=%d (trigger=%s crashSeq=%d cutoffs=%v survivors=%d GOMAXPROCS=%d)\n",
		res.Seed, res.Trigger, res.CrashSeq, res.Cutoffs, res.Survivors, procs)
	fmt.Fprintf(w, "  reproduce: GOMAXPROCS=%d montage-chaos -seed %d -shards %d -mode %s%s -schedules 1\n",
		procs, res.Seed, cfg.Shards, modeFlag, netFlag)
	bad := map[string]bool{}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  %s\n", v)
		bad[v.Key] = true
	}
	for _, op := range res.History {
		if !bad[op.Key] {
			continue
		}
		fmt.Fprintf(w, "  history: w%d#%d %v %q=%q mode=%v acked=%v tag={shard %d epoch %d} start=%d end=%d ack=%d\n",
			op.Worker, op.Index, op.Kind, op.Key, op.Value, op.Mode, op.Acked,
			op.Tag.Shard, op.Tag.Epoch, op.Start, op.End, op.AckSeq)
	}
	evs := rec.TraceEvents()
	if traceN >= 0 && len(evs) > traceN {
		evs = evs[len(evs)-traceN:]
	}
	for _, e := range evs {
		fmt.Fprintf(w, "  %s\n", e)
	}
}
