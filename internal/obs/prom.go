package obs

import (
	"bufio"
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
// montage_latency_<name> with le bounds at the bucket upper bounds. The
// names and types come from the metrics table (table.go).

// WritePrometheus renders s in the Prometheus text exposition format.
// Histogram series need the snapshot's raw buckets, which every
// Snapshot/Sub/Merge result carries; a zero Snapshot emits counters
// and gauges only.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	fields := reflect.ValueOf(s)
	for _, m := range metrics {
		if m.typ != "histogram" {
			fmt.Fprintf(bw, "# TYPE %s %s\n%s %d\n", m.name, m.typ, m.name, fields.FieldByIndex(m.index).Uint())
			continue
		}
		if s.raw == nil {
			continue
		}
		rh := &s.raw.hists[m.hist]
		fmt.Fprintf(bw, "# TYPE %s histogram\n", m.name)
		var cum uint64
		for b := 0; b < histBuckets; b++ {
			if rh.buckets[b] == 0 {
				continue
			}
			cum += rh.buckets[b]
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", m.name, bucketBound(b), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.name, rh.count)
		fmt.Fprintf(bw, "%s_sum %d\n", m.name, rh.sum)
		fmt.Fprintf(bw, "%s_count %d\n", m.name, rh.count)
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
// -metrics-addr flags: /metrics (Prometheus) and /debug/pprof/*
// (net/http/pprof, including the heap profile's runtime.MemStats at
// /debug/pprof/heap?debug=1) on one listener.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMetrics binds addr (":0" picks a free port) and serves the
// observability endpoints in the background until Close.
func ServeMetrics(addr string, snap func() Snapshot) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(snap))
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
