// Command montage-serve runs the networked KV front end: a memcached-
// text-protocol TCP server whose items live in a persistent Montage
// pool, with epoch-aware durability acknowledgements.
//
// Usage:
//
//	montage-serve -addr 127.0.0.1:11211 -pool pool.img
//
// Clients speak standard memcached text protocol (get/gets/set/add/
// replace/cas/delete/touch/flush_all/stats/version/quit, noreply,
// pipelining). Two extensions:
//
//	durability <buffered|sync|epoch-wait>   per-connection ack mode
//	crash [partial]                         simulated power failure
//	                                        (-allow-crash only)
//	sync                                    force durability now
//
// On SIGINT/SIGTERM the server drains connections, forces all acked
// work durable, saves the pool image (with -pool), and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"montage/internal/obs"
	"montage/internal/server"
)

// writeAddrFile publishes the bound address atomically (temp file +
// rename in the same directory), so a proxy or test harness polling the
// path never reads a partially written address.
func writeAddrFile(path, addr string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".addr-*")
	if err != nil {
		return err
	}
	if _, err := tmp.WriteString(addr + "\n"); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "TCP listen address (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file (for scripts using \":0\")")
	pool := flag.String("pool", "", "pool image path: reopened if present, saved on shutdown")
	backend := flag.String("backend", "montage", "item store: montage (persistent), dram, or nvm (transient)")
	shards := flag.Int("shards", 1, "independent epoch-domain shards (an existing -pool image's count wins)")
	arena := flag.Int("arena", 64<<20, "persistent arena size in bytes (per shard)")
	buckets := flag.Int("buckets", 4096, "index bucket count")
	maxConns := flag.Int("max-conns", 64, "max concurrent connections")
	epochLen := flag.Duration("epoch", 10*time.Millisecond, "epoch advance period (shorter: faster epoch-wait acks)")
	persistDelay := flag.Duration("persist-delay", 0, "emulated device persist latency per epoch advance (0: simulated device is free)")
	durability := flag.String("durability", "buffered", "default ack mode: buffered, sync, or epoch-wait")
	maxItem := flag.Int("max-item-size", 1<<20, "max item value size in bytes")
	allowCrash := flag.Bool("allow-crash", false, "enable the crash protocol extension")
	drain := flag.Duration("drain", 5*time.Second, "shutdown drain timeout")
	statsFile := flag.String("stats-file", "", "stream runtime-stats snapshots as JSONL to this file")
	statsInterval := flag.Duration("stats-interval", time.Second, "sample interval for -stats-file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty: disabled)")
	flag.Parse()

	mode, err := server.ParseAckMode(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One recorder for the whole process: crash injections replace the
	// store but counters keep accumulating across recoveries.
	rec := obs.New(*maxConns + 2)
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
	if *metricsAddr != "" {
		ms, err := obs.ServeMetrics(*metricsAddr, rec.Snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("montage-serve: /metrics and /debug/pprof on %s\n", ms.Addr())
	}

	srv, err := server.New(server.Config{
		Addr:         *addr,
		PoolPath:     *pool,
		Backend:      *backend,
		Shards:       *shards,
		ArenaSize:    *arena,
		Buckets:      *buckets,
		MaxConns:     *maxConns,
		EpochLength:  *epochLen,
		PersistDelay: *persistDelay,
		DefaultMode:  mode,
		MaxItemSize:  *maxItem,
		AllowCrash:   *allowCrash,
		Recorder:     rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bound, err := srv.Listen()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, bound.String()); err != nil {
			fmt.Fprintf(os.Stderr, "addr-file: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("montage-serve: listening on %s (backend=%s shards=%d items=%d durability=%s epoch=%v)\n",
		bound, *backend, srv.NumShards(), srv.Store().Len(), mode, *epochLen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	select {
	case sig := <-sigc:
		fmt.Printf("montage-serve: %v: draining...\n", sig)
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := srv.Shutdown(*drain); err != nil {
		fmt.Fprintf(os.Stderr, "montage-serve: shutdown: %v\n", err)
		os.Exit(1)
	}
	snap := rec.Snapshot()
	fmt.Printf("montage-serve: drained; served %d conns, %d gets, %d sets (acks: %d buffered, %d sync, %d epoch-wait, %d aborted)\n",
		snap.Server.Conns, snap.Server.OpsGet, snap.Server.OpsSet,
		snap.Server.AcksBuffered, snap.Server.AcksSync, snap.Server.AcksEpoch,
		snap.Server.AcksAborted)
	for _, h := range []struct {
		name string
		st   obs.HistStats
	}{
		{"sync-ack", snap.Latency.AckSyncNs},
		{"epoch-wait-ack", snap.Latency.AckEpochNs},
	} {
		if h.st.Count == 0 {
			continue
		}
		fmt.Printf("montage-serve: %s latency p50=%v p95=%v p99=%v max=%v (n=%d)\n",
			h.name,
			time.Duration(h.st.Percentile(0.50)).Round(time.Microsecond),
			time.Duration(h.st.Percentile(0.95)).Round(time.Microsecond),
			time.Duration(h.st.Percentile(0.99)).Round(time.Microsecond),
			time.Duration(h.st.Max).Round(time.Microsecond), h.st.Count)
	}
	if *pool != "" {
		fmt.Printf("montage-serve: pool saved to %s\n", *pool)
	}
}
