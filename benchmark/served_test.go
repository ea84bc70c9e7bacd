package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"montage"
	"montage/internal/obs"
)

// The server's /metrics and the library's Stats() must land on the same
// canonical names, or scrapeLayers would silently read zeros on one side.
func TestScrapeAndStatsAgreeOnNames(t *testing.T) {
	sys, err := montage.NewSystem(montage.Config{ArenaSize: 1 << 20, Epoch: montage.EpochConfig{EpochLength: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	m := montage.NewHashMap(sys, 16)
	if _, err := m.Put(0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sys.Sync(0)
	stats := sys.Stats()
	sys.Close()

	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, stats); err != nil {
		t.Fatal(err)
	}
	scraped, flat := parseProm(prom.Bytes()), flatten(stats)
	if len(scraped) < 50 {
		t.Fatalf("only %d names parsed from /metrics text", len(scraped))
	}
	for name, v := range scraped {
		if name == "latency..sum" || name == "latency..count" {
			continue // two histograms the server exports without a name
		}
		got, ok := flat[name]
		if !ok {
			t.Errorf("/metrics name %q has no counterpart in Stats()", name)
		} else if got != v {
			t.Errorf("%s: /metrics says %v, Stats() %v", name, v, got)
		}
	}
	for _, name := range []string{"epoch.advances", "epoch.syncs", "device.write_backs", "alloc.bytes_in_use", "latency.sync_ns.sum", "latency.advance_ns.count"} {
		if scraped[name] == 0 {
			t.Errorf("%s is 0 after a put and a sync", name)
		}
	}
}

func TestProcReaders(t *testing.T) {
	pid := os.Getpid()
	if cpu, err := procCPU(pid); err != nil || cpu < 0 {
		t.Errorf("procCPU: %v %v", cpu, err)
	}
	if mib, err := procHWM(pid); err != nil || mib < 1 {
		t.Errorf("procHWM: %v MiB %v", mib, err)
	}
}
