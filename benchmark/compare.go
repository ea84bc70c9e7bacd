package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"montage/benchmark/workload"
)

// env is what must match for two result sets to be comparable.
type env struct {
	Nproc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	BenchVersion string `json:"benchmark_version"`
}

// metricStat is one metric over a set's repetitions.
type metricStat struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // inter-quartile distance / median
	Values []float64 `json:"values"`
}

// setFile is what `benchmark set` writes and `benchmark compare` reads.
type setFile struct {
	Env       env                              `json:"env"`
	Seed      uint64                           `json:"seed"`
	Seconds   int                              `json:"seconds"`
	Valid     map[string]int                   `json:"valid_repetitions"`
	Invalid   map[string][]string              `json:"invalid_repetitions,omitempty"`
	EndToEnd  map[string]map[string]metricStat `json:"end_to_end"`
	PerLayer  map[string]map[string]float64    `json:"per_layer,omitempty"`
	TotalSecs float64                          `json:"total_seconds"`
}

// cmdSet runs every workload reps times (seeds seed, seed+1, ...) and
// stores each end-to-end metric's median and spread; with --trace it adds
// one traced run per workload for the per-layer values.
func cmdSet(args []string) error {
	fs := flag.NewFlagSet("set", flag.ContinueOnError)
	reps := fs.Int("reps", 3, "repetitions per workload")
	seed := fs.Uint64("seed", 1, "seed of the first repetition")
	seconds := fs.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "add one traced run per workload")
	out := fs.String("out", "", "result file (required)")
	only := fs.String("workload", "", "run just this workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("set: --out is required")
	}
	d, err := readDecl()
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = d.RunSeconds
	}
	set := setFile{
		Env:      env{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), version},
		Seed:     *seed,
		Seconds:  *seconds,
		Valid:    map[string]int{},
		Invalid:  map[string][]string{},
		EndToEnd: map[string]map[string]metricStat{},
		PerLayer: map[string]map[string]float64{},
	}
	start := time.Now()
	for _, spec := range workload.Specs {
		if *only != "" && spec.Name != *only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < *reps; i++ {
			res, err := runRep(spec, *seed+uint64(i), *seconds, false)
			if err != nil {
				// A repetition the watchdog killed, or one that failed any
				// other way, is recorded and the set carries on.
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				set.Invalid[spec.Name] = append(set.Invalid[spec.Name], err.Error())
				continue
			}
			set.Valid[spec.Name]++
			for _, m := range d.EndToEnd {
				values[m.Name] = append(values[m.Name], res.E2E[m.Name])
			}
			fmt.Printf("%s rep %d: %.0f ops/s, get p50 %.1f us, set p50 %.1f us, lost %d of %d\n", spec.Name, i,
				res.E2E["throughput_ops_s"], res.E2E["get_p50_us"], res.E2E["set_p50_us"], res.Lost, res.Verified)
		}
		if set.Valid[spec.Name] == 0 {
			return fmt.Errorf("set: %s has no valid repetition", spec.Name)
		}
		stats := map[string]metricStat{}
		for _, m := range d.EndToEnd {
			v := values[m.Name]
			stats[m.Name] = metricStat{median(v), spread(v), v}
			fmt.Printf("%-22s %-24s %14.4f %-6s spread %5.1f%%\n", spec.Name, m.Name, median(v), m.Unit, 100*spread(v))
		}
		set.EndToEnd[spec.Name] = stats
		if *trace {
			layers, _, err := runOnce(d, spec, *seed, *seconds, true)
			if err != nil {
				return err
			}
			set.PerLayer[spec.Name] = layers
			for _, m := range d.PerLayer {
				fmt.Printf("%-22s %-36s %14.4f %s\n", spec.Name, m.Name, layers[m.Name], m.Unit)
			}
		}
	}
	set.TotalSecs = time.Since(start).Seconds()
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}

// verdict judges one (workload, metric) pair of two sets. A metric
// regressed when b's median is worse than a's by more than the bound;
// when either side's own spread exceeds the bound the runs cannot tell,
// and the pair is unresolved rather than unchanged.
func verdict(a, b metricStat, m metricDecl) (worse float64, v string) {
	worse = (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread > m.Bound || b.Spread > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

// cmdCompare prints one row per (workload, end-to-end metric) of two
// result sets and fails if any metric regressed.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare a.json b.json")
	}
	d, err := readDecl()
	if err != nil {
		return err
	}
	var sets [2]setFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if sets[0].Env != sets[1].Env {
		return fmt.Errorf("compare: the sets were taken in different environments and cannot be compared:\n  %s: %+v\n  %s: %+v",
			args[0], sets[0].Env, args[1], sets[1].Env)
	}
	regressions := 0
	fmt.Printf("%-22s %-24s %14s %7s %14s %7s %8s %6s  %s\n", "workload", "metric", "a median", "spread", "b median", "spread", "worse by", "bound", "verdict")
	for _, w := range d.Workloads {
		for _, m := range d.EndToEnd {
			a, okA := sets[0].EndToEnd[w.Name][m.Name]
			b, okB := sets[1].EndToEnd[w.Name][m.Name]
			if !okA || !okB {
				continue
			}
			worse, v := verdict(a, b, m)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Printf("%-22s %-24s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.1f%%  %s\n",
				w.Name, m.Name, a.Median, 100*a.Spread, b.Median, 100*b.Spread, 100*worse, 100*m.Bound, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("compare: %d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
