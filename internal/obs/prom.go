package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
)

// This file is the live half of the metrics pipeline: the same Snapshot
// (or Merge of per-shard snapshots) that feeds the JSONL sampler is
// rendered in the Prometheus text exposition format (version 0.0.4), so
// a scraper pointed at a running montage-serve or montage-load sees
// exactly the numbers the stats files record.
//
// Naming: every counter becomes montage_<group>_<name>_total, derived
// gauges (pending work, blocks in use) become montage_<group>_<name>,
// and each log2 latency histogram becomes a cumulative-bucket histogram
// montage_latency_<name> with le bounds at the bucket upper bounds.

// promGauges lists the Snapshot fields that are derived point-in-time
// values rather than monotonic counters; they are exported as gauges.
var promGauges = map[string]bool{
	"persist_pending": true,
	"blocks_in_use":   true,
	"bytes_in_use":    true,
}

// promHistNames maps every histogram to its metric-name stem, matching
// the LatencyStats JSON tags.
var promHistNames = [numHists]string{
	HAdvanceNs:     "advance_ns",
	HWaitAllNs:     "wait_all_ns",
	HSyncNs:        "sync_ns",
	HFenceBatch:    "fence_batch",
	HDrainBatch:    "drain_batch",
	HCombineRatio:  "combine_ratio_x100",
	HAckSyncNs:     "ack_sync_ns",
	HAckEpochNs:    "ack_epoch_wait_ns",
	HPipelineDepth: "pipeline_depth",
	HLoadNs:        "load_ns",
	HFlushBatch:    "flush_batch",
	HFlushBytes:    "flush_bytes",
}

// WritePrometheus renders s in the Prometheus text exposition format.
// Histogram series need the snapshot's raw buckets, which every
// Snapshot/Sub/Merge result carries; a zero Snapshot emits counters
// only.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	groups := []struct {
		name string
		v    any
	}{
		{"epoch", s.Epoch},
		{"device", s.Device},
		{"runtime", s.Runtime},
		{"alloc", s.Alloc},
		{"server", s.Server},
		{"chaos", s.Chaos},
		{"load", s.Load},
		{"cluster", s.Cluster},
	}
	for _, g := range groups {
		rv := reflect.ValueOf(g.v)
		rt := rv.Type()
		for i := 0; i < rt.NumField(); i++ {
			tag := rt.Field(i).Tag.Get("json")
			if tag == "" || rt.Field(i).Type.Kind() != reflect.Uint64 {
				continue
			}
			val := rv.Field(i).Uint()
			name := fmt.Sprintf("montage_%s_%s", g.name, tag)
			if promGauges[tag] {
				fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, val)
			} else {
				fmt.Fprintf(bw, "# TYPE %s_total counter\n%s_total %d\n", name, name, val)
			}
		}
	}
	if s.raw != nil {
		for h := 0; h < int(numHists); h++ {
			rh := &s.raw.hists[h]
			name := "montage_latency_" + promHistNames[h]
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			var cum uint64
			for b := 0; b < histBuckets; b++ {
				if rh.buckets[b] == 0 {
					continue
				}
				cum += rh.buckets[b]
				fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", name, bucketBound(b), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, rh.count)
			fmt.Fprintf(bw, "%s_sum %d\n", name, rh.sum)
			fmt.Fprintf(bw, "%s_count %d\n", name, rh.count)
		}
	}
	return bw.Flush()
}

// MetricsHandler returns an http.Handler serving snap() as Prometheus
// text format. snap is typically a Recorder.Snapshot method value, or a
// closure merging per-shard snapshots.
func MetricsHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, snap())
	})
}

// MetricsServer is the opt-in observability endpoint behind the
// -metrics-addr flags: /metrics (Prometheus), /debug/vars (expvar), and
// /debug/pprof/* (net/http/pprof) on one listener.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics binds addr (":0" picks a free port) and serves the
// observability endpoints in the background until Close.
func ServeMetrics(addr string, snap func() Snapshot) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(snap))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	ms := &MetricsServer{ln: ln, srv: &http.Server{Handler: mux}}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Addr returns the bound listener address.
func (m *MetricsServer) Addr() net.Addr { return m.ln.Addr() }

// Close stops the listener and any in-flight handlers.
func (m *MetricsServer) Close() error { return m.srv.Close() }
