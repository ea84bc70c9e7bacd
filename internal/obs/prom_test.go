package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var promLineRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$`)

// checkPromFormat validates every line of a text-format exposition:
// comments are TYPE/HELP lines, each family has one TYPE line, metric
// lines match the exposition grammar, no sample name repeats, and
// histogram buckets are cumulative and monotone. It returns the parsed
// name -> value map.
func checkPromFormat(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	values := map[string]float64{}
	typed := map[string]bool{}
	bucketPrev := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		lines++
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				family, _, _ := strings.Cut(rest, " ")
				if typed[family] {
					t.Fatalf("second TYPE line for family %q", family)
				}
				typed[family] = true
			} else if !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		if !promLineRe.MatchString(line) {
			t.Fatalf("bad metric line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := values[name]; dup {
			t.Fatalf("repeated sample %q", name)
		}
		values[name] = val
		if i := strings.Index(name, "_bucket{"); i >= 0 {
			series := name[:i]
			if val < bucketPrev[series] {
				t.Fatalf("histogram %s buckets not cumulative: %q after %v", series, line, bucketPrev[series])
			}
			bucketPrev[series] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}
	return values
}

// TestWritePrometheusFormat checks the exposition is well formed, with
// every histogram observed, and that the counters, gauges, and histogram
// series carry the recorded data.
func TestWritePrometheusFormat(t *testing.T) {
	r := New(2)
	r.Add(0, COps, 123)
	r.Add(0, CNetOpsSet, 7)
	r.Add(0, CPersistQueued, 5) // derives the persist_pending gauge
	for h := HistID(0); h < numHists; h++ {
		r.Observe(0, h, 1)
	}
	for i := 0; i < 10; i++ {
		r.Observe(1, HSyncNs, 1000)
		r.Observe(1, HLoadNs, uint64(100*(i+1)))
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	vals := checkPromFormat(t, bytes.NewReader(buf.Bytes()))

	if vals["montage_runtime_ops_total"] != 123 {
		t.Errorf("ops_total = %v, want 123", vals["montage_runtime_ops_total"])
	}
	if vals["montage_server_ops_set_total"] != 7 {
		t.Errorf("server ops_set_total = %v, want 7", vals["montage_server_ops_set_total"])
	}
	// Derived values export as gauges (no _total suffix).
	if vals["montage_epoch_persist_pending"] != 5 {
		t.Errorf("persist_pending gauge = %v, want 5", vals["montage_epoch_persist_pending"])
	}
	if _, ok := vals["montage_epoch_persist_pending_total"]; ok {
		t.Error("derived gauge exported with a counter suffix")
	}
	if vals["montage_latency_sync_ns_count"] != 11 {
		t.Errorf("sync_ns_count = %v, want 11", vals["montage_latency_sync_ns_count"])
	}
	if vals["montage_latency_sync_ns_sum"] != 10001 {
		t.Errorf("sync_ns_sum = %v, want 10001", vals["montage_latency_sync_ns_sum"])
	}
	if vals[`montage_latency_load_ns_bucket{le="+Inf"}`] != 11 {
		t.Errorf("load_ns +Inf bucket = %v, want 11", vals[`montage_latency_load_ns_bucket{le="+Inf"}`])
	}
}

// TestMetricNamesMatchJSON: the flattened JSON keys of a snapshot and
// the /metrics samples correspond one to one, with equal values:
// <group>.<name> is montage_<group>_<name> (a counter adds _total) and
// latency.<h>.sum|count is montage_latency_<h>_sum|count.
func TestMetricNamesMatchJSON(t *testing.T) {
	r := New(1)
	for c := CounterID(0); c < numCounters; c++ {
		r.Add(0, c, uint64(c)+100)
	}
	for h := HistID(0); h < numHists; h++ {
		r.Observe(0, h, uint64(h)+1)
	}
	s := r.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for name, v := range checkPromFormat(t, &buf) {
		if strings.Contains(name, "_bucket{") {
			continue
		}
		key := strings.TrimSuffix(name, "_total")
		if _, dup := got[key]; dup {
			t.Fatalf("%s is exported both as a counter and as a gauge", key)
		}
		got[key] = v
	}

	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(js, &tree); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for group, v := range tree {
		fields, ok := v.(map[string]any)
		if !ok {
			continue // unix_ns, enabled
		}
		for name, f := range fields {
			key := "montage_" + group + "_" + name
			if h, ok := f.(map[string]any); ok {
				want[key+"_sum"], want[key+"_count"] = h["sum"].(float64), h["count"].(float64)
			} else {
				want[key] = f.(float64)
			}
		}
	}

	for key, v := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("JSON stat %s has no /metrics sample", key)
		} else if g != v {
			t.Errorf("%s: /metrics %v, JSON %v", key, g, v)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("/metrics sample %s has no JSON stat", key)
		}
	}
}

// TestWritePrometheusMerged: the exposition works over Merge results
// (the sharded-pool path) and over zero snapshots (counters only, no
// histogram series to emit, no panic).
func TestWritePrometheusMerged(t *testing.T) {
	a, b := New(1), New(1)
	a.Add(0, CNetOpsGet, 2)
	b.Add(0, CNetOpsGet, 3)
	a.Observe(0, HAdvanceNs, 50)
	b.Observe(0, HAdvanceNs, 70)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, Merge(a.Snapshot(), b.Snapshot())); err != nil {
		t.Fatal(err)
	}
	vals := checkPromFormat(t, bytes.NewReader(buf.Bytes()))
	if vals["montage_server_ops_get_total"] != 5 {
		t.Errorf("merged ops_get_total = %v, want 5", vals["montage_server_ops_get_total"])
	}
	if vals["montage_latency_advance_ns_count"] != 2 {
		t.Errorf("merged advance_ns_count = %v, want 2", vals["montage_latency_advance_ns_count"])
	}

	buf.Reset()
	if err := WritePrometheus(&buf, Snapshot{}); err != nil {
		t.Fatal(err)
	}
	vals = checkPromFormat(t, bytes.NewReader(buf.Bytes()))
	if vals["montage_runtime_ops_total"] != 0 {
		t.Errorf("zero snapshot ops_total = %v", vals["montage_runtime_ops_total"])
	}
}

// TestServeMetrics spins the observability endpoint on a free port and
// scrapes /metrics and /debug/pprof/cmdline over real HTTP.
func TestServeMetrics(t *testing.T) {
	r := New(1)
	r.Add(0, COps, 55)
	ms, err := ServeMetrics("127.0.0.1:0", r.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", ms.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	vals := checkPromFormat(t, resp.Body)
	if vals["montage_runtime_ops_total"] != 55 {
		t.Errorf("scraped ops_total = %v, want 55", vals["montage_runtime_ops_total"])
	}

	pp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", ms.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline: %s", pp.Status)
	}
}
