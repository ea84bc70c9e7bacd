// Command montage-load drives YCSB-style load at a montage-serve
// instance over TCP and reports acked throughput plus client-observed
// latency percentiles.
//
// Usage:
//
//	montage-load -addr 127.0.0.1:11211 -conns 8 -duration 10s \
//	    -mode epoch-wait -pipeline 64
//
// The workload is YCSB-A by default (50/50 read/update, zipfian keys);
// -read-frac changes the mix. Each connection requests the chosen
// durability-ack mode, preloads its shard of the key space, and then
// pipelines requests for the timed phase. The exit status is nonzero if
// no operations were acknowledged, so scripts can assert liveness.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"montage/internal/obs"
	"montage/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "server TCP address")
	conns := flag.Int("conns", 8, "concurrent connections")
	duration := flag.Duration("duration", 5*time.Second, "timed-phase length")
	records := flag.Uint64("records", 10000, "YCSB key-space size")
	valueSize := flag.Int("value-size", 100, "stored value length in bytes")
	readFrac := flag.Float64("read-frac", 0.5, "read fraction (0.5 = YCSB-A)")
	modeName := flag.String("mode", "buffered", "durability-ack mode: buffered, sync, or epoch-wait")
	pipeline := flag.Int("pipeline", 16, "outstanding requests per connection")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	shards := flag.Int("shards", 1, "server's shard count: tallies the per-shard key distribution (routing happens server-side)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address during the run (empty: disabled)")
	flag.Parse()

	mode, err := server.ParseAckMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The loadgen records its acked ops and client-observed latency into
	// this recorder; -metrics-addr exposes the counters live mid-run.
	// Connections record at tid modulo the loadgen's slot cap, so a
	// -conns 10000 run does not allocate a 10k-thread recorder.
	recTids := *conns + 1
	if recTids > 257 {
		recTids = 257
	}
	rec := obs.New(recTids)
	if *metricsAddr != "" {
		ms, err := obs.ServeMetrics(*metricsAddr, rec.Snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("montage-load: /metrics and /debug/pprof on %s\n", ms.Addr())
	}

	cfg := server.LoadConfig{
		Addr:      *addr,
		Conns:     *conns,
		Duration:  *duration,
		Records:   *records,
		ValueSize: *valueSize,
		ReadFrac:  *readFrac,
		Mode:      mode,
		Pipeline:  *pipeline,
		Seed:      *seed,
		Shards:    *shards,
		Recorder:  rec,
	}

	res, err := server.RunLoad(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "montage-load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("montage-load: mode=%s conns=%d pipeline=%d: %s\n", mode, *conns, *pipeline, res)
	if res.Ops == 0 {
		fmt.Fprintln(os.Stderr, "montage-load: no operations were acknowledged")
		os.Exit(1)
	}
}
