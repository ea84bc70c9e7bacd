// Command montage-bench regenerates the tables and figures of the
// Montage paper's evaluation (Section 6) over the simulated-NVM
// substrate, printing one table per figure with the same series the
// paper plots.
//
// Usage:
//
//	montage-bench -figure all
//	montage-bench -figure 7a -scale default
//	montage-bench -figure 6 -systems Montage,Friedman,DRAM(T)
//	montage-bench -figure recovery
//
// Figures: 4, 5, 6, 7a, 7b, 8a, 8b, 9, 10, 11, 12, recovery, all.
// Scales: quick, default, paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"montage/internal/bench"
	"montage/internal/obs"
)

// rowRecord is one benchmark data point in the -stats-file JSONL stream:
// the figure coordinates plus the runtime counters accumulated while
// that point ran (nil stats for uninstrumented baseline systems).
type rowRecord struct {
	Kind   string        `json:"kind"`
	Figure string        `json:"figure"`
	Series string        `json:"series"`
	Label  string        `json:"label"`
	X      float64       `json:"x"`
	Value  float64       `json:"value"`
	Unit   string        `json:"unit"`
	Stats  *obs.Snapshot `json:"stats,omitempty"`
}

func main() {
	var (
		figure  = flag.String("figure", "all", "figure to regenerate: 4,5,6,7a,7b,8a,8b,9,10,11,12,recovery,all")
		scale   = flag.String("scale", "default", "workload scale: quick, default, paper")
		systems = flag.String("systems", "", "comma-separated subset of systems (default: all for the figure)")
		threads = flag.String("threads", "", "comma-separated thread counts (default: scale's list)")
		ops     = flag.Int("ops", 0, "operations per thread (default: scale's value)")
		dataDir = flag.String("datadir", "", "directory for the figure-12 dataset (default: temp)")
		csvPath = flag.String("csv", "", "also append results as CSV to this file")

		statsOut      = flag.Bool("stats", false, "print a final runtime-stats snapshot as JSON on stdout")
		statsFile     = flag.String("stats-file", "", "write a JSONL runtime-stats stream (periodic samples, per-row stats, final snapshot) to this file")
		statsInterval = flag.Duration("stats-interval", time.Second, "periodic sample interval for -stats-file (0 disables periodic samples)")
	)
	flag.Parse()

	var sc bench.Scale
	switch *scale {
	case "quick":
		sc = bench.QuickScale()
	case "default":
		sc = bench.DefaultScale()
	case "paper":
		sc = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *threads != "" {
		sc.Threads = nil
		for _, tok := range strings.Split(*threads, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d", &n); err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad thread count %q\n", tok)
				os.Exit(2)
			}
			sc.Threads = append(sc.Threads, n)
		}
	}
	if *ops > 0 {
		sc.OpsPerThread = *ops
	}
	var sysList []string
	if *systems != "" {
		for _, tok := range strings.Split(*systems, ",") {
			sysList = append(sysList, strings.TrimSpace(tok))
		}
	}

	// One recorder is shared by every Montage system the harness builds,
	// so the stats stream and final snapshot cover the whole run. Thread
	// ids beyond its capacity clamp to the last cell (the default scale
	// sweeps up to 80 threads).
	var rec *obs.Recorder
	var sampler *obs.Sampler
	if *statsOut || *statsFile != "" {
		rec = obs.New(128)
		sc.Recorder = rec
	}
	if *statsFile != "" {
		f, err := os.Create(*statsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stats-file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sampler = obs.NewSampler(rec, f, *statsInterval)
	}

	figures := []string{*figure}
	if *figure == "all" {
		figures = []string{"4", "5", "6", "7a", "7b", "8a", "8b", "9", "10", "11", "12", "recovery"}
	}

	for _, fig := range figures {
		start := time.Now()
		var rs []bench.Result
		var err error
		switch fig {
		case "4":
			rs, err = bench.Fig4Design(sc, nil, 40)
		case "5":
			rs, err = bench.Fig5Design(sc, nil)
		case "6":
			rs, err = bench.Fig6Queues(sc, sysList)
		case "7a":
			rs, err = bench.Fig7Maps(sc, sysList, false)
		case "7b":
			rs, err = bench.Fig7Maps(sc, sysList, true)
		case "8a":
			rs, err = bench.Fig8Payload(sc, sysList, false)
		case "8b":
			rs, err = bench.Fig8Payload(sc, sysList, true)
		case "9":
			rs, err = bench.Fig9Sync(sc, 40, nil)
		case "10":
			rs, err = bench.Fig10Memcached(sc)
		case "11":
			rs, err = bench.Fig11Graph(sc)
		case "12":
			rs, err = bench.Fig12Recovery(sc, *dataDir)
		case "recovery":
			rs, err = bench.RecoveryHashmap(sc, nil, nil)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s failed: %v\n", fig, err)
			os.Exit(1)
		}
		bench.PrintResults(os.Stdout, rs)
		if sampler != nil {
			for _, r := range rs {
				unit := r.Unit
				if unit == "" {
					unit = "Mops/s"
				}
				sampler.Record(rowRecord{
					Kind: "row", Figure: r.Figure, Series: r.Series,
					Label: r.Label, X: r.X, Value: r.Mops, Unit: unit,
					Stats: r.Stats,
				})
			}
		}
		if *csvPath != "" {
			f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				os.Exit(1)
			}
			bench.WriteCSV(f, rs)
			f.Close()
		}
		fmt.Printf("(figure %s regenerated in %v wall time)\n\n", fig, time.Since(start).Round(time.Millisecond))
	}

	if sampler != nil {
		if err := sampler.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "stats-file: %v\n", err)
			os.Exit(1)
		}
	}
	if *statsOut {
		b, err := json.MarshalIndent(rec.Snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", b)
	}
}
