// Package benchsuite orchestrates the repository's benchmark figures
// into one continuous-regression harness: it runs a configurable set of
// sections (the virtual-time microbenchmarks, the write-combining
// profile, the wall-clock network and shard sweeps, and a served YCSB-A
// load), samples the runtime's observability counters and a background
// process-memory monitor around every cell, and emits a versioned
// machine-readable BENCH_<n>.json artifact that Compare diffs against a
// committed baseline under per-metric tolerance bands.
package benchsuite

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"montage/internal/bench"
	"montage/internal/obs"
	"montage/internal/server"
)

// AllSections lists the suite's sections in run order.
var AllSections = []string{"micro", "writeback", "net", "conns", "shard", "cluster", "serve"}

// Config parameterizes a suite run.
type Config struct {
	// Quick trims every sweep to CI-smoke size (sub-second cells).
	Quick bool
	// Sections selects which sections run; nil means AllSections.
	Sections []string
	// Seed overrides the workload seed when nonzero.
	Seed int64
	// LoadDuration is the timed phase of each wall-clock cell; zero
	// means 150ms under Quick and 1s otherwise.
	LoadDuration time.Duration
	// MemInterval is the background memory-sampling period (default 25ms).
	MemInterval time.Duration
	// MetricsAddr, when set, serves /metrics and /debug/pprof for the
	// duration of the run, exporting the suite's shared recorder live.
	MetricsAddr string
	// ProfileDir, when set, captures a CPU profile per suite cell into
	// this directory (created if missing) as <section>-<nn>.cpu.pprof,
	// so a regression flagged by compare can be attributed to its hot
	// path without re-running the suite under a profiler.
	ProfileDir string
	// Name labels the artifact (e.g. a git describe string).
	Name string
	// Log receives one progress line per cell; nil discards.
	Log io.Writer
	// Scale overrides the derived workload scale; for tests.
	Scale *bench.Scale

	// prof is the per-cell CPU profiler built from ProfileDir by Run.
	prof *cpuProfiler
}

// cpuProfiler captures one CPU profile per suite cell, numbered within
// each section. Cells run strictly sequentially, so a single active
// profile at a time is an invariant, not a limitation.
type cpuProfiler struct {
	dir string
	seq map[string]int
}

func newCPUProfiler(dir string) (*cpuProfiler, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &cpuProfiler{dir: dir, seq: map[string]int{}}, nil
}

// start begins the profile for one cell and returns its stop function.
// Profiling failures are logged, never fatal: the suite's measurements
// matter more than their attribution.
func (p *cpuProfiler) start(section string, logw io.Writer) func() {
	if p == nil {
		return func() {}
	}
	p.seq[section]++
	path := filepath.Join(p.dir, fmt.Sprintf("%s-%02d.cpu.pprof", section, p.seq[section]))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(logw, "suite: profile %s: %v\n", path, err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(logw, "suite: profile %s: %v\n", path, err)
		f.Close()
		os.Remove(path)
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

func (c Config) loadDuration() time.Duration {
	if c.LoadDuration > 0 {
		return c.LoadDuration
	}
	if c.Quick {
		return 150 * time.Millisecond
	}
	return time.Second
}

// suiteThreads is the recorder capacity shared by every section: wide
// enough for the largest thread/connection sweep the suite configures.
const suiteThreads = 64

// Run executes the configured sections and returns the artifact.
func Run(cfg Config) (*Artifact, error) {
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	sections := cfg.Sections
	if len(sections) == 0 {
		sections = AllSections
	}
	known := map[string]bool{}
	for _, s := range AllSections {
		known[s] = true
	}
	for _, s := range sections {
		if !known[s] {
			return nil, fmt.Errorf("unknown section %q (have %s)", s, strings.Join(AllSections, ", "))
		}
	}

	rec := obs.New(suiteThreads)
	prof, err := newCPUProfiler(cfg.ProfileDir)
	if err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	cfg.prof = prof
	if cfg.MetricsAddr != "" {
		ms, err := obs.ServeMetrics(cfg.MetricsAddr, rec.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("metrics endpoint: %w", err)
		}
		defer ms.Close()
		fmt.Fprintf(logw, "suite: serving /metrics and /debug/pprof on %s\n", ms.Addr())
	}

	var scale bench.Scale
	if cfg.Scale != nil {
		scale = *cfg.Scale
	} else if cfg.Quick {
		scale = bench.QuickScale()
	} else {
		scale = bench.DefaultScale()
	}
	if cfg.Seed != 0 {
		scale.Seed = cfg.Seed
	}
	scale.LoadDuration = cfg.loadDuration()
	scale.Recorder = rec

	mon := startMemMonitor(cfg.MemInterval)
	defer mon.Stop()

	art := &Artifact{
		Schema:     SchemaVersion,
		Name:       cfg.Name,
		CreatedUTC: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		MaxProcs:   runtime.GOMAXPROCS(0),
		Quick:      cfg.Quick,
		Sections:   sections,
	}

	for _, sec := range sections {
		start := time.Now()
		var (
			rows []Row
			err  error
		)
		switch sec {
		case "micro":
			rows, err = runMicro(cfg, scale, mon, logw)
		case "writeback":
			rows, err = runWritebackSection(cfg, scale, mon, logw)
		case "net":
			rows, err = runNet(cfg, scale, mon, logw)
		case "conns":
			rows, err = runConns(cfg, scale, mon, logw)
		case "shard":
			rows, err = runShard(cfg, scale, mon, logw)
		case "cluster":
			rows, err = runCluster(cfg, scale, mon, logw)
		case "serve":
			rows, err = runServe(cfg, scale, mon, logw)
		}
		if err != nil {
			return nil, fmt.Errorf("section %s: %w", sec, err)
		}
		art.Rows = append(art.Rows, rows...)
		fmt.Fprintf(logw, "suite: section %s done: %d rows in %s\n",
			sec, len(rows), time.Since(start).Round(time.Millisecond))
	}
	return art, nil
}

// cell runs fn bracketed by a memory-window mark (and, when configured,
// a per-cell CPU profile) and converts its results into rows tagged with
// the section and the window.
func cell(cfg Config, section string, mon *memMonitor, logw io.Writer,
	fn func() ([]bench.Result, error)) ([]Row, error) {
	mark := mon.Mark()
	stop := cfg.prof.start(section, logw)
	results, err := fn()
	stop()
	if err != nil {
		return nil, err
	}
	mem := downsample(mon.Since(mark), maxMemPoints)
	var rows []Row
	for _, res := range results {
		row := toRow(section, res)
		row.Memory = mem
		fmt.Fprintf(logw, "suite: %-9s %-18s %-14s %-12s %10.3f %s\n",
			section, row.Figure, row.Series, row.Label, row.Throughput, row.Unit)
		rows = append(rows, row)
	}
	return rows, nil
}

// toRow converts one bench result, lifting latency percentiles and
// counter summaries out of the cell's runtime-stats delta.
func toRow(section string, res bench.Result) Row {
	unit := res.Unit
	if unit == "" {
		unit = "Mops/s"
	}
	row := Row{
		Section:    section,
		Figure:     res.Figure,
		Series:     res.Series,
		Label:      res.Label,
		X:          res.X,
		Throughput: res.Mops,
		Unit:       unit,
	}
	if s := res.Stats; s != nil {
		row.Ops = s.Runtime.Ops
		if s.Load.Ops > 0 {
			row.Ops = s.Load.Ops
		}
		row.EpochAdvances = s.Epoch.Advances
		if src, h, ok := pickLatency(s); ok {
			row.LatencySource = src
			row.P50Ns = uint64(h.Percentile(0.50) + 0.5)
			row.P95Ns = uint64(h.Percentile(0.95) + 0.5)
			row.P99Ns = uint64(h.Percentile(0.99) + 0.5)
		}
	}
	return row
}

// pickLatency selects the cell's most client-facing populated latency
// histogram: the loadgen's end-to-end ack latency when the cell ran
// over the wire, else the epoch-advance and sync histograms the
// in-process figures populate.
func pickLatency(s *obs.Snapshot) (string, obs.HistStats, bool) {
	for _, c := range []struct {
		name string
		h    obs.HistStats
	}{
		{"load_ns", s.Latency.LoadNs},
		{"advance_ns", s.Latency.AdvanceNs},
		{"sync_ns", s.Latency.SyncNs},
	} {
		if c.h.Count > 0 {
			return c.name, c.h, true
		}
	}
	return "", obs.HistStats{}, false
}

// runMicro sweeps the Figure 7a hashmap (write-dominant, Montage only)
// over a trimmed thread ladder, one suite cell per thread count so each
// row gets its own memory window.
func runMicro(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	threads := []int{1, 4, 16}
	if cfg.Quick {
		threads = []int{1, 4}
	}
	var rows []Row
	for _, t := range threads {
		sc := scale
		sc.Threads = []int{t}
		rs, err := cell(cfg, "micro", mon, logw, func() ([]bench.Result, error) {
			return bench.Fig7Maps(sc, []string{"Montage"}, false)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}

// runWritebackSection profiles write combining per key range, folding
// each series' combine-ratio row into its throughput row's CombinePct.
func runWritebackSection(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	keyRanges := []int{64, 1024, 16_384}
	if cfg.Quick {
		keyRanges = []int{64, 1024}
	}
	var rows []Row
	for _, keys := range keyRanges {
		rs, err := cell(cfg, "writeback", mon, logw, func() ([]bench.Result, error) {
			return bench.FigWriteback(scale, []int{keys})
		})
		if err != nil {
			return nil, err
		}
		// FigWriteback emits a throughput row and a combine-ratio row per
		// series; merge the ratio into the throughput row.
		combine := map[string]float64{}
		for _, r := range rs {
			if r.Figure == "writeback-combine" {
				combine[r.Series+"|"+r.Label] = r.Throughput
			}
		}
		for _, r := range rs {
			if r.Figure != "writeback" {
				continue
			}
			r.CombinePct = combine[r.Series+"|"+r.Label]
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// runNet sweeps durability-ack modes over connection counts, one suite
// cell (and one fresh server) per (mode, conns) pair.
func runNet(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	conns := []int{1, 2, 4, 8}
	if cfg.Quick {
		conns = []int{1, 4}
	}
	modes := []server.AckMode{server.AckBuffered, server.AckSync, server.AckEpochWait}
	var rows []Row
	for _, m := range modes {
		for _, c := range conns {
			m, c := m, c
			rs, err := cell(cfg, "net", mon, logw, func() ([]bench.Result, error) {
				return bench.FigNet(scale, []int{c}, []server.AckMode{m})
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, rs...)
		}
	}
	return rows, nil
}

// runConns sweeps the connection count into the thousands for the two
// scaling ack modes, one suite cell (and one fresh server) per (mode,
// conns) pair. The claim the committed baselines record: throughput at
// 1k connections holds at or above the same mode's 4-connection net
// rows — the serving path's per-connection cost is buffers, not
// goroutines or allocations.
func runConns(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	conns := []int{1, 64, 1024, 8192}
	if cfg.Quick {
		conns = []int{64, 1024}
	}
	modes := []server.AckMode{server.AckBuffered, server.AckEpochWait}
	var rows []Row
	for _, m := range modes {
		for _, c := range conns {
			m, c := m, c
			rs, err := cell(cfg, "conns", mon, logw, func() ([]bench.Result, error) {
				return bench.FigConns(scale, []int{c}, []server.AckMode{m})
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, rs...)
		}
	}
	return rows, nil
}

// runShard sweeps the pool's shard count per ack mode, one cell per
// (mode, shards) pair.
func runShard(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	shards := []int{1, 2, 4, 8}
	if cfg.Quick {
		shards = []int{1, 2}
	}
	modes := []server.AckMode{server.AckSync, server.AckEpochWait}
	var rows []Row
	for _, m := range modes {
		for _, s := range shards {
			m, s := m, s
			rs, err := cell(cfg, "shard", mon, logw, func() ([]bench.Result, error) {
				return bench.FigShard(scale, []int{s}, []server.AckMode{m})
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, rs...)
		}
	}
	return rows, nil
}

// runCluster sweeps the montage-proxy's node count per ack mode, one
// cell (fresh single-shard nodes plus a fresh proxy) per (mode, nodes)
// pair. Epoch-wait throughput scaling monotonically with the node count
// is the figure's claim; the committed baselines record it.
func runCluster(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	nodes := []int{1, 2, 3}
	if cfg.Quick {
		nodes = []int{1, 3}
	}
	// Epoch-wait cells need enough 1ms-epoch windows to reach steady
	// state; at the quick scale's 150ms a cell measures ramp-up noise
	// and the monotonic-scaling claim drowns. Floor the cluster cells
	// at one second regardless of -quick.
	if scale.LoadDuration < time.Second {
		scale.LoadDuration = time.Second
	}
	modes := []server.AckMode{server.AckSync, server.AckEpochWait}
	var rows []Row
	for _, m := range modes {
		for _, n := range nodes {
			m, n := m, n
			rs, err := cell(cfg, "cluster", mon, logw, func() ([]bench.Result, error) {
				return bench.FigCluster(scale, []int{n}, []server.AckMode{m})
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, rs...)
		}
	}
	return rows, nil
}

// runServe is the serving-path section: one long-lived sharded server,
// a YCSB-A load per durability-ack mode, client-observed latency from
// the loadgen's histogram.
func runServe(cfg Config, scale bench.Scale, mon *memMonitor, logw io.Writer) ([]Row, error) {
	const conns = 4
	records := uint64(scale.KeyRange)
	if records > 10_000 {
		records = 10_000
	}
	valueSize := scale.ValueSize
	if valueSize > 256 {
		valueSize = 256
	}

	srv, err := server.New(server.Config{
		Addr:         "127.0.0.1:0",
		ArenaSize:    scale.ArenaSize,
		Buckets:      scale.Buckets,
		Shards:       2,
		MaxConns:     conns + 1,
		EpochLength:  time.Millisecond,
		PersistDelay: 100 * time.Microsecond,
		Recorder:     scale.Recorder,
	})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Listen(); err != nil {
		return nil, err
	}
	go srv.Serve()
	defer srv.Shutdown(5 * time.Second)
	rec := srv.Recorder()

	modes := []server.AckMode{server.AckBuffered, server.AckSync, server.AckEpochWait}
	var rows []Row
	for i, mode := range modes {
		mark := mon.Mark()
		stopProf := cfg.prof.start("serve", logw)
		prev := rec.Snapshot()
		res, err := server.RunLoad(server.LoadConfig{
			Addr:      srv.Addr().String(),
			Conns:     conns,
			Duration:  scale.LoadDuration,
			Records:   records,
			ValueSize: valueSize,
			ReadFrac:  -1, // YCSB-A: 50/50 reads and updates
			Mode:      mode,
			Pipeline:  32,
			Seed:      scale.Seed,
			Shards:    2,
			Recorder:  rec,
		})
		stopProf()
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", mode, err)
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("serve %s: %d errored acks", mode, res.Errors)
		}
		delta := rec.Snapshot().Sub(prev)
		row := toRow("serve", bench.Result{
			Figure: "serve", Series: mode.String(), Label: "ycsb-a",
			X: float64(i), Mops: res.OpsPerSec / 1e6, Unit: "Mops/s (wall)",
			Stats: &delta,
		})
		row.Memory = downsample(mon.Since(mark), maxMemPoints)
		fmt.Fprintf(logw, "suite: %-9s %-18s %-14s %-12s %10.3f %s\n",
			"serve", row.Figure, row.Series, row.Label, row.Throughput, row.Unit)
		rows = append(rows, row)
	}
	return rows, nil
}
