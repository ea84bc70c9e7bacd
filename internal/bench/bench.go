// Package bench is the harness that regenerates every table and figure of
// the paper's evaluation (Section 6): the design-exploration bars of
// Figures 4 and 5, the queue and hashmap throughput sweeps of Figures 6
// and 7, the payload-size sweeps of Figure 8, the sync-frequency study of
// Figure 9, the memcached/YCSB-A validation of Figure 10, the graph
// microbenchmark of Figure 11, the Orkut-style recovery-vs-construction
// comparison of Figure 12, and the hashmap recovery-time sweep of
// Section 6.4.
//
// Throughput is measured in virtual time (see internal/simclock): every
// system under test — Montage and all baselines — runs over the same
// simulated NVM device and cost model, so the figures reproduce the
// paper's relative shapes (who wins, by what factor, where the crossovers
// and plateaus fall) independently of the host machine's core count.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"montage/internal/obs"
	"montage/internal/simclock"
)

// Scale sets workload sizes. The paper's full parameters (1M buckets,
// 0.5M preloaded 1KB pairs, 30-second runs on 80 hyperthreads) are too
// heavy for a laptop-scale run; DefaultScale is a proportional reduction
// and PaperScale restores the published numbers for machines that can
// afford them.
type Scale struct {
	// ArenaSize is the persistent arena size in bytes.
	ArenaSize int
	// KeyRange is the number of distinct keys (paper: 1M).
	KeyRange int
	// Preload is the number of pairs preloaded into maps (paper: 0.5M).
	Preload int
	// Buckets is the hashmap bucket count (paper: 1M).
	Buckets int
	// ValueSize is the payload value size in bytes (paper: 1KB).
	ValueSize int
	// OpsPerThread is the number of measured operations per thread.
	OpsPerThread int
	// EpochLenV is the virtual epoch length in nanoseconds (paper: 10ms).
	EpochLenV int64
	// BufferSize is Montage's per-thread write-back buffer (paper: 64).
	BufferSize int
	// Threads lists the thread counts for sweep figures.
	Threads []int
	// GraphVertices scales the Figure 11/12 graphs (paper: 1M capacity /
	// 0.5M initial; Orkut has 3M).
	GraphVertices int
	// GraphDegree is the average vertex degree (paper: 32).
	GraphDegree int
	// Seed drives all workload randomness.
	Seed int64
	// Recorder, when non-nil, is shared by every Montage system the
	// harness builds, so one JSON stats stream covers a whole run and
	// each benchmark row can carry the interval's runtime counters.
	Recorder *obs.Recorder
}

// DefaultScale returns the laptop-scale configuration.
func DefaultScale() Scale {
	return Scale{
		ArenaSize:     512 << 20,
		KeyRange:      100_000,
		Preload:       50_000,
		Buckets:       200_000,
		ValueSize:     1024,
		OpsPerThread:  3000,
		EpochLenV:     10_000_000, // 10ms
		BufferSize:    64,
		Threads:       []int{1, 2, 4, 8, 12, 16, 24, 32, 40, 56, 80},
		GraphVertices: 20_000,
		GraphDegree:   32,
		Seed:          42,
	}
}

// QuickScale returns a very small configuration for go test -bench runs.
func QuickScale() Scale {
	s := DefaultScale()
	s.ArenaSize = 128 << 20
	s.KeyRange = 20_000
	s.Preload = 10_000
	s.Buckets = 40_000
	s.ValueSize = 256
	s.OpsPerThread = 800
	s.Threads = []int{1, 4, 16, 40}
	s.GraphVertices = 4_000
	s.GraphDegree = 16
	return s
}

// PaperScale returns the published workload parameters. It needs tens of
// gigabytes of memory and long runtimes; use on a large machine only.
func PaperScale() Scale {
	s := DefaultScale()
	s.ArenaSize = 8 << 30
	s.KeyRange = 1_000_000
	s.Preload = 500_000
	s.Buckets = 1_000_000
	s.ValueSize = 1024
	s.OpsPerThread = 50_000
	s.GraphVertices = 1_000_000
	s.GraphDegree = 32
	return s
}

// Result is one data point of one figure.
type Result struct {
	Figure string  // e.g. "fig7a"
	Series string  // system or configuration name
	Label  string  // x-axis label, e.g. "threads=16"
	X      float64 // numeric x for ordering
	Mops   float64 // value; throughput in Mops/s unless Unit says otherwise
	Unit   string  // defaults to "Mops/s"
	// Stats carries the runtime counters accumulated while this data
	// point ran (epoch advances, write-backs, fences, retries, ...).
	// Nil for non-Montage systems, which have no instrumented runtime.
	Stats *obs.Snapshot
}

// throughput converts (ops, virtual ns) into Mops/s.
func throughput(ops int, vns int64) float64 {
	if vns <= 0 {
		return 0
	}
	return float64(ops) / float64(vns) * 1000.0
}

// runWorkers runs fn(tid, i) for i in [0, opsPerThread) on each of
// threads goroutines and returns the throughput computed from the
// clock's maximum worker time. The clock is reset first.
func runWorkers(clk *simclock.Clock, threads, opsPerThread int, fn func(tid, i int)) float64 {
	clk.Reset()
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < opsPerThread; i++ {
				fn(tid, i)
			}
		}(tid)
	}
	wg.Wait()
	return throughput(threads*opsPerThread, clk.Max())
}

// key32 renders key i in the paper's format: an integer converted to a
// string and padded to 32 bytes.
func key32(i int) string { return fmt.Sprintf("%032d", i) }

// value returns a deterministic value of n bytes.
func value(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i * 31)
	}
	return v
}

// opMix draws map operations with the given get:insert:remove weights.
type opMix struct {
	get, insert, remove int
}

func (m opMix) total() int { return m.get + m.insert + m.remove }

// kind returns 0=get, 1=insert, 2=remove for draw r in [0,total).
func (m opMix) kind(r int) int {
	if r < m.get {
		return 0
	}
	if r < m.get+m.insert {
		return 1
	}
	return 2
}

var (
	mixWriteDominant = opMix{get: 0, insert: 1, remove: 1}  // 0:1:1
	mixReadDominant  = opMix{get: 18, insert: 1, remove: 1} // 18:1:1
	mixReadWrite     = opMix{get: 2, insert: 1, remove: 1}  // 2:1:1
)

// PrintResults renders results grouped by figure as aligned tables, one
// row per x value and one column per series — the same rows/series the
// paper's plots report.
func PrintResults(w io.Writer, results []Result) {
	byFigure := map[string][]Result{}
	var figures []string
	for _, r := range results {
		if _, ok := byFigure[r.Figure]; !ok {
			figures = append(figures, r.Figure)
		}
		byFigure[r.Figure] = append(byFigure[r.Figure], r)
	}
	for _, fig := range figures {
		rs := byFigure[fig]
		var seriesNames []string
		seriesSeen := map[string]bool{}
		xs := map[float64]string{}
		var xOrder []float64
		cell := map[string]float64{}
		for _, r := range rs {
			if !seriesSeen[r.Series] {
				seriesSeen[r.Series] = true
				seriesNames = append(seriesNames, r.Series)
			}
			if _, ok := xs[r.X]; !ok {
				xs[r.X] = r.Label
				xOrder = append(xOrder, r.X)
			}
			cell[fmt.Sprintf("%s|%g", r.Series, r.X)] = r.Mops
		}
		sort.Float64s(xOrder)
		unit := rs[0].Unit
		if unit == "" {
			unit = "Mops/s"
		}
		// Format every cell first: each series column is as wide as the
		// longer of its name and its widest value, plus one space, so no
		// two header names run together.
		xw := len("x")
		widths := make([]int, len(seriesNames))
		for i, s := range seriesNames {
			widths[i] = len(s)
		}
		rows := make([][]string, len(xOrder))
		for r, x := range xOrder {
			xw = max(xw, len(xs[x]))
			rows[r] = make([]string, len(seriesNames))
			for i, s := range seriesNames {
				c := "-"
				if v, ok := cell[fmt.Sprintf("%s|%g", s, x)]; ok {
					c = fmt.Sprintf("%.3f", v)
				}
				rows[r][i] = c
				widths[i] = max(widths[i], len(c))
			}
		}
		fmt.Fprintf(w, "== %s (%s, virtual time) ==\n", fig, unit)
		fmt.Fprintf(w, "%-*s", xw, "x")
		for i, s := range seriesNames {
			fmt.Fprintf(w, "%*s", widths[i]+1, s)
		}
		fmt.Fprintln(w)
		for r, x := range xOrder {
			fmt.Fprintf(w, "%-*s", xw, xs[x])
			for i, c := range rows[r] {
				fmt.Fprintf(w, "%*s", widths[i]+1, c)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders results as CSV (figure,series,label,x,value,unit),
// one row per data point, for external plotting.
func WriteCSV(w io.Writer, results []Result) {
	fmt.Fprintln(w, "figure,series,label,x,value,unit")
	for _, r := range results {
		unit := r.Unit
		if unit == "" {
			unit = "Mops/s"
		}
		fmt.Fprintf(w, "%s,%s,%s,%g,%g,%s\n", r.Figure, r.Series, r.Label, r.X, r.Mops, unit)
	}
}

// rng returns a thread-local RNG for a deterministic workload.
func rng(seed int64, tid int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(tid)*97))
}
