package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"montage/benchmark/workload"
)

// runLadder runs the per-layer replay for the workload in its own
// process and returns its rows.
func runLadder(spec workload.Spec, seed uint64) (map[string]float64, error) {
	out, err := runChild(time.Now().Add(2*time.Minute), filepath.Join(outDir, spec.Name+".ladder.stderr"),
		"ladder", "--workload", spec.Name, "--seed", strconv.FormatUint(seed, 10))
	if err != nil {
		return nil, err
	}
	rows := map[string]float64{}
	if err := json.Unmarshal(out, &rows); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return rows, nil
}

// ledger joins the traced repetition's client- and scrape-side values
// with the ladder's rows and derives the metrics that need both. plain
// is the untraced repetition of the same invocation. names are the
// declared per-layer metrics; those that cannot exist on the library
// workload (no sockets, no server, no kvstore) read 0 there.
func (r *result) ledger(spec workload.Spec, plain *result, ladder map[string]float64, names []string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.Layer {
		out[k] = v
	}
	for k, v := range ladder {
		out[k] = v
	}
	out["loadgen.trace_overhead_frac"] = 1 - r.E2E["throughput_ops_s"]/plain.E2E["throughput_ops_s"]
	if spec.Served {
		gets, sets := float64(r.KindOps[workload.Get]), float64(r.KindOps[workload.Set])
		kvNs := (gets*ladder["kvstore.get_ns"] + sets*ladder["kvstore.set_ns"]) / (gets + sets)
		out["server.self_us_per_op"] = r.E2E["cpu_us_per_op"] - (ladder["memtext.tokenize_ns"]+kvNs)/1e3
		named := out["server.wire_rtt_us"]*1e3 + ladder["memtext.tokenize_ns"] + ladder["kvstore.set_ns"]
		out["loadgen.ledger_gap_frac"] = (r.depth1SetP50 - named) / r.depth1SetP50
		return out
	}
	p50 := r.E2E["set_p50_us"] * 1e3
	out["loadgen.ledger_gap_frac"] = (p50 - (ladder["pds.insert_ns"]+ladder["pds.remove_ns"])/2) / p50
	for _, n := range names {
		if _, ok := out[n]; !ok && (strings.HasPrefix(n, "server.") || strings.HasPrefix(n, "kvstore.") ||
			strings.HasPrefix(n, "memtext.") || strings.HasPrefix(n, "loadgen.")) {
			out[n] = 0
		}
	}
	return out
}

// ladderParents gives each ladder row the row that calls it, so the
// aggregated rows form the same tree a request descends.
var ladderParents = map[string]string{
	"memtext": "server", "kvstore": "server", "pool": "kvstore", "pds": "kvstore",
	"core": "pds", "epoch": "core", "pmem": "epoch", "ralloc": "core",
}

func tracePath(spec workload.Spec) string {
	return filepath.Join(outDir, spec.Name+".trace.jsonl")
}

// appendSpans appends request span trees to the workload's trace file:
// per request a root "request" span and its children queue (due to
// send), send (the write), wait (until the reply's first line) and recv
// (until its last byte). pass names the part of the run they come from.
func appendSpans(spec workload.Spec, pass string, spans []span) error {
	f, err := os.OpenFile(tracePath(spec), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		conn, seq := s.seq>>48, s.seq&(1<<48-1)
		id := fmt.Sprintf("%s-c%d-%d", pass, conn, seq)
		line := func(name, parent string, start, end int64) {
			fmt.Fprintf(w, `{"trace_id":%q,"name":%q,"parent":%q,"conn":%d,"op":%q,"due_ns":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				id, name, parent, conn, s.kind.String(), s.due, start, end)
		}
		line("request", "", s.due, s.end)
		line("queue", "request", s.due, s.start)
		line("send", "request", s.start, s.sent)
		line("wait", "request", s.sent, s.first)
		line("recv", "request", s.first, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace completes the traced run's span file: the request spans
// kept in memory (a library run's child has already written its own),
// the depth-1 pass, the per-layer values and the ladder rows.
func (r *result) writeTrace(spec workload.Spec, layers map[string]float64) error {
	if err := appendSpans(spec, "window", r.spans); err != nil {
		return err
	}
	if err := appendSpans(spec, "depth1", r.depth1); err != nil {
		return err
	}
	f, err := os.OpenFile(tracePath(spec), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		layer, _, _ := strings.Cut(n, ".")
		fmt.Fprintf(w, `{"trace_id":"layers","name":%q,"parent":%q,"value":%g}`+"\n", n, ladderParents[layer], layers[n])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
