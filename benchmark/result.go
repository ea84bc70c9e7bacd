package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"montage/benchmark/workload"
)

// result is what a round measured, and — rounds merged — a repetition.
// The library workload's child process prints one as JSON; served rounds
// fill one directly.
type result struct {
	// Ops counts correct replies inside the timed windows, Failed every
	// error reply, wrong value and unanswered request; Attempted is their
	// sum.
	Ops       int64 `json:"ops"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Verified keys were read back after recovery; Lost of them differ
	// from the last acknowledged state.
	Verified   int64    `json:"verified"`
	Lost       int64    `json:"lost"`
	LostIDs    []int    `json:"lost_ids,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// KindOps counts window operations by kind.
	KindOps [workload.NumKinds]int64 `json:"kind_ops"`
	// Series holds every sample of each metric: one per 1-second slice
	// for rates, latencies and CPU, one per round for the rest. A metric's
	// value is the median of its series.
	Series map[string][]float64 `json:"series"`
	// Scrape is the change of the system's counters over the timed
	// windows, summed over the rounds, under canonical names; WindowS is
	// the windows' total length.
	Scrape  map[string]float64 `json:"scrape"`
	WindowS float64            `json:"window_s"`

	// Filled by finish.
	E2E   map[string]float64 `json:"-"`
	Layer map[string]float64 `json:"-"`

	spans, depth1 []span
	depth1SetP50  float64
}

func newResult() *result {
	return &result{Series: map[string][]float64{}, Scrape: map[string]float64{}}
}

func (r *result) add(name string, v float64) { r.Series[name] = append(r.Series[name], v) }

// merge folds another round into r.
func (r *result) merge(o *result) {
	r.Ops += o.Ops
	r.Failed += o.Failed
	r.Verified += o.Verified
	r.Lost += o.Lost
	r.LostIDs = append(r.LostIDs, o.LostIDs...)
	r.Violations = append(r.Violations, o.Violations...)
	for k := range r.KindOps {
		r.KindOps[k] += o.KindOps[k]
	}
	for name, v := range o.Series {
		r.Series[name] = append(r.Series[name], v...)
	}
	for name, v := range o.Scrape {
		r.Scrape[name] += v
	}
	r.WindowS += o.WindowS
	r.spans = append(r.spans, o.spans...)
	r.depth1 = append(r.depth1, o.depth1...)
	r.depth1SetP50 = max(r.depth1SetP50, o.depth1SetP50)
}

// sample is one correct operation of a timed window: when it ended, in
// ns since the window opened, and how long it took.
type sample struct{ end, lat int64 }

// slice is the length of the sub-windows a metric is sampled over. One
// stall of 100 ms — a GC cycle, a noisy neighbour — moves a whole-window
// p99 fivefold at 4 000 requests/s; it moves one slice, and the median
// over the slices not at all. The whole-window p99.9 and maximum are
// still printed.
const slice = time.Second

// collect folds a stopped load's samples into the result.
func (r *result) collect(l *load, window time.Duration, cpu []time.Duration) {
	var lat [workload.NumKinds][]sample
	var late []int64
	for _, c := range l.clients {
		r.Ops += c.done
		r.Failed += c.failed + (c.issued - c.answered)
		r.Violations = append(r.Violations, c.violation...)
		for k := range lat {
			lat[k] = append(lat[k], c.lat[k]...)
		}
		late = append(late, c.late...)
		for _, s := range c.spans {
			s.seq |= int64(c.id) << 48
			r.spans = append(r.spans, s)
		}
	}
	r.addSlices(lat, window, 1, cpu)
	r.add("loadgen.late_p99_us", percentile(sorted(late), 0.99)/1e3)
}

// addSlices cuts a window's samples into slices and adds each slice's
// throughput_ops_s, cpu_us_per_op, get_* and set_* to the series. Every
// mutation kind counts as a set. Each sample stands for weight
// operations (the library loop times one op in 16). cpu is the system's
// CPU clock at each slice boundary.
func (r *result) addSlices(lat [workload.NumKinds][]sample, window time.Duration, weight int64, cpu []time.Duration) {
	n := max(int(window/slice), 1)
	perSlice := make([]float64, n)
	for k := range lat {
		r.KindOps[k] += int64(len(lat[k])) * weight
	}
	classes := map[string][]sample{"get": lat[workload.Get], "set": slices.Concat(lat[workload.Set], lat[workload.Insert], lat[workload.Remove])}
	for name, v := range classes {
		bySlice := make([][]int64, n)
		all := make([]int64, len(v))
		for i, s := range v {
			at := min(int(s.end/int64(slice)), n-1)
			bySlice[at] = append(bySlice[at], s.lat)
			perSlice[at] += float64(weight) / slice.Seconds()
			all[i] = s.lat
		}
		for _, sl := range bySlice {
			if len(sl) > 0 {
				sorted(sl)
				r.add(name+"_p50_us", percentile(sl, 0.5)/1e3)
				r.add(name+"_p99_us", percentile(sl, 0.99)/1e3)
			}
		}
		sorted(all)
		r.add("info."+name+"_p999_us", percentile(all, 0.999)/1e3)
		r.add("info."+name+"_max_us", percentile(all, 1)/1e3)
		r.add("info."+name+"_slice_samples", float64(len(all)/n))
	}
	for i, ops := range perSlice {
		r.add("throughput_ops_s", ops)
		if ops > 0 && i+1 < len(cpu) {
			r.add("cpu_us_per_op", float64((cpu[i+1]-cpu[i]).Nanoseconds())/1e3/(ops*slice.Seconds()))
		}
	}
	r.WindowS += window.Seconds()
}

func (r *result) noteLost(ids []int) {
	r.Lost += int64(len(ids))
	r.LostIDs = append(r.LostIDs, ids...)
}

// finish turns the merged rounds into metric values: the median of each
// series, the two fractions from the totals, and the scrape ratios.
func (r *result) finish(spec workload.Spec) {
	r.E2E, r.Layer = map[string]float64{}, map[string]float64{}
	for name, v := range r.Series {
		switch {
		case strings.HasPrefix(name, "info."):
		case strings.Contains(name, "."):
			r.Layer[name] = median(v)
		default:
			r.E2E[name] = median(v)
		}
	}
	r.Attempted = r.Ops + r.Failed
	r.E2E["ok_ops_frac"] = float64(r.Ops) / float64(max(r.Attempted, 1))
	r.E2E["acked_kept_frac"] = float64(r.Verified-r.Lost) / float64(max(r.Verified, 1))
	r.scrapeLayers(spec)
}

// scrapeLayers derives the per-layer ratios from the counters' change
// over the timed windows (canonical names from /metrics or Stats()).
func (r *result) scrapeLayers(spec workload.Spec) {
	d := r.Scrape
	ops := float64(r.Ops)
	sets := float64(r.KindOps[workload.Set] + r.KindOps[workload.Insert] + r.KindOps[workload.Remove])
	userBytes := float64(r.KindOps[workload.Set]+r.KindOps[workload.Insert]) * float64(spec.UserBytes())
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(hist string) float64 { return ratio(d["latency."+hist+".sum"], d["latency."+hist+".count"]) }
	L := r.Layer
	L["server.flushes_per_op"] = ratio(d["server.flushes"], ops)
	L["server.flush_batch_mean"] = mean("flush_batch")
	L["server.bytes_out_per_flush"] = ratio(d["server.bytes_out"], d["server.flushes"])
	L["server.pipeline_depth_mean"] = mean("pipeline_depth")
	L["server.parse_allocs_per_op"] = ratio(d["server.parse_allocs"], ops)
	L["server.ack_sync_mean_us"] = mean("ack_sync_ns") / 1e3
	L["server.ack_epoch_wait_mean_us"] = mean("ack_epoch_wait_ns") / 1e3
	L["server.acks_aborted"] = d["server.acks_aborted"]
	L["server.proto_errors"] = d["server.proto_errors"]
	L["pds.op_retry_ratio"] = ratio(d["runtime.op_retries"], d["runtime.ops"])
	L["epoch.advance_mean_us"] = mean("advance_ns") / 1e3
	L["epoch.sync_mean_us"] = mean("sync_ns") / 1e3
	L["epoch.advances_per_s"] = ratio(d["epoch.advances"], r.WindowS)
	L["epoch.dirty_hit_ratio"] = ratio(d["epoch.persist_dirty_hits"], d["epoch.persist_queued"])
	L["epoch.advance_cas_fail_ratio"] = ratio(d["epoch.advance_cas_fails"], d["epoch.advances"])
	L["epoch.dirty_stalls_per_advance"] = ratio(d["epoch.advance_dirty_stalls"], d["epoch.advances"])
	L["epoch.late_fence_per_op"] = ratio(d["epoch.persist_late_fence"], ops)
	L["epoch.free_reclaim_ratio"] = ratio(d["epoch.free_reclaimed"], d["epoch.free_queued"])
	L["pmem.write_backs_per_set"] = ratio(d["device.write_backs"], sets)
	L["pmem.staged_bytes_per_user_byte"] = ratio(d["device.write_back_bytes"], userBytes)
	L["pmem.commit_bytes_per_user_byte"] = ratio(d["device.commit_bytes"], userBytes)
	L["pmem.coalesced_ratio"] = ratio(d["device.write_backs_coalesced"], d["device.write_backs"])
	L["pmem.fences_per_op"] = ratio(d["device.fences"], ops)
	L["pmem.drain_batch_mean"] = mean("drain_batch")
	L["pmem.claim_skipped_dirty_per_drain"] = ratio(d["device.claim_skipped_dirty"], d["device.drains"])
	L["ralloc.allocs_per_set"] = ratio(d["alloc.allocs"], sets)
	L["ralloc.block_bytes_per_alloc"] = ratio(d["alloc.alloc_bytes"], d["alloc.allocs"])
	L["ralloc.superblocks_carved"] = d["alloc.superblocks_carved"]
}

// printInfo prints what is reported but never compared.
func (r *result) printInfo() {
	for _, k := range []string{"get", "set"} {
		fmt.Printf("info: %s latency over whole windows: p99.9 %.1f us (median of rounds), max %.1f us; a slice holds %.0f samples, enough for p%g\n",
			k, median(r.Series["info."+k+"_p999_us"]), slices.Max(r.Series["info."+k+"_max_us"]),
			median(r.Series["info."+k+"_slice_samples"]), 100*tailPercentile(int(slices.Min(r.Series["info."+k+"_slice_samples"]))))
	}
	if late, ok := r.Layer["loadgen.late_p99_us"]; ok {
		fmt.Printf("info: the load generator sent its requests at most %.1f us late (p99, median of rounds)\n", late)
	}
	fmt.Printf("info: ops/s by %v slice:", slice)
	for _, v := range r.Series["throughput_ops_s"] {
		fmt.Printf(" %.0f", v)
	}
	fmt.Printf("\ninfo: %d ops in the windows, %d failed; %d keys verified after recovery, %d lost\n", r.Ops, r.Failed, r.Verified, r.Lost)
}

// writeViolations lists what the correctness checks found (first 20 of
// each kind); an empty file means a clean run.
func (r *result) writeViolations(name string) error {
	f, err := os.Create(filepath.Join(outDir, name+".violations.txt"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, v := range r.Violations[:min(len(r.Violations), 20)] {
		fmt.Fprintln(w, v)
	}
	for _, id := range r.LostIDs[:min(len(r.LostIDs), 20)] {
		fmt.Fprintf(w, "key %d: state after recovery differs from the last acknowledged state\n", id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
