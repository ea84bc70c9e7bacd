// Command benchmark is the repository's benchmark: four workloads that
// drive montage-serve (through its binary, its TCP protocol and
// /metrics) or the montage library (in a child process), check every
// output, and print every metric BENCHMARK.json declares.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one repetition, one JSON line
//	benchmark set [--reps 3] [--seed 1] [--trace] --out F      every workload, medians and spreads
//	benchmark compare a.json b.json                           apply BENCHMARK.json's bounds
//
// Run it through benchmark/run.sh, which builds it, the ladder and
// montage-serve next to each other. See benchmark/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"montage/benchmark/workload"
)

// version changes whenever a workload, a metric definition or the way
// something is measured changes; compare refuses to mix versions.
const version = "1"

// A repetition is rounds rounds, each with fresh child processes, its
// own set-up, warm-up, share of the timed window, crash and recovery.
// Where the server's threads and connections land differs from process
// to process and moves throughput and CPU by a tenth; pooling the slices
// of three processes halves what that does to the medians, and gives
// setup_s and recover_ms three samples each.
const rounds = 3

// warmup is the traffic each round runs before its timed window.
const warmup = 2 * time.Second

var (
	// outDir receives everything a run leaves behind; binDir holds this
	// binary, the ladder and montage-serve.
	outDir = filepath.Join("benchmark", "out")
	binDir string
)

// watchdog is a repetition's deadline: three times its nominal length.
func watchdog(seconds int) time.Duration {
	return 3 * (time.Duration(seconds)*time.Second + rounds*(warmup+6*time.Second))
}

// decl is BENCHMARK.json.
type decl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDecl() (*decl, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d decl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

func main() {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	binDir = filepath.Dir(exe)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "set":
			fatalIf(cmdSet(os.Args[2:]))
			return
		case "compare":
			fatalIf(cmdCompare(os.Args[2:]))
			return
		case "lib-run":
			fatalIf(cmdLibRun(os.Args[2:]))
			return
		case "lib-recover":
			fatalIf(cmdLibRecover(os.Args[2:]))
			return
		}
	}
	fatalIf(cmdRun(os.Args[1:]))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

// runResult is one repetition as the contract reports it.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cmdRun is the driver's entry: one repetition of one workload, ending
// in one JSON line.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "the only source of randomness")
	seconds := fs.Int("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run, print the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := readDecl()
	if err != nil {
		return err
	}
	spec, err := workload.ByName(*name)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = d.RunSeconds
	}
	fmt.Printf("workload %s: %s\n", spec.Name, spec.Why)
	fmt.Printf("flush policy: epoch daemon every 10 ms; %d rounds of %v warm-up + %d s timed window, seed %d\n", rounds, warmup, roundSeconds(*seconds), *seed)
	values, res, err := runOnce(d, spec, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	decls := d.EndToEnd
	if *trace == 1 {
		decls = d.PerLayer
	}
	out := runResult{
		Correct:   res.correct(d),
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range decls {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		fmt.Printf("%-36s %16.4f %s\n", m.Name, v, m.Unit)
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	res.printInfo()
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// correct reports whether the repetition's outputs were right: every
// reply was the one the shadow required, and no acknowledged state was
// lost across crash and recovery beyond acked_kept_frac's bound — which
// is above zero only because of the ROADMAP's open P0 (README,
// "Durability").
func (r *result) correct(d *decl) bool {
	for _, m := range d.EndToEnd {
		if m.Name == "acked_kept_frac" && r.E2E[m.Name] < 1-m.Bound {
			return false
		}
	}
	return r.Failed == 0
}

// roundSeconds is each round's share of the timed window.
func roundSeconds(seconds int) int { return max(seconds/rounds, 1) }

// runRep runs one repetition, merges its rounds and records what the
// correctness checks found. Round i of seed s draws its streams from
// seed s*rounds+i, so a seed still fixes every input.
func runRep(spec workload.Spec, seed uint64, seconds int, traced bool) (*result, error) {
	deadline := time.Now().Add(watchdog(seconds))
	round := libRound
	if spec.Served {
		round = servedRound
	}
	total := newResult()
	for i := 0; i < rounds; i++ {
		r, err := round(spec, seed*rounds+uint64(i), roundSeconds(seconds), traced, i == rounds-1, deadline)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", spec.Name, i, err)
		}
		if i < rounds-1 {
			r.spans = nil // the trace file holds the last round's requests
		}
		total.merge(r)
	}
	total.finish(spec)
	return total, total.writeViolations(spec.Name)
}

// runOnce is what one driver invocation does. Untraced, it is one
// repetition and the values are the end-to-end metrics. Traced, the
// end-to-end numbers still come from an untraced repetition; a second,
// traced one plus the ladder give the per-layer values.
func runOnce(d *decl, spec workload.Spec, seed uint64, seconds int, traced bool) (map[string]float64, *result, error) {
	if !traced {
		res, err := runRep(spec, seed, seconds, false)
		if err != nil {
			return nil, nil, err
		}
		return res.E2E, res, nil
	}
	if err := os.Remove(tracePath(spec)); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	plain, err := runRep(spec, seed, seconds, false)
	if err != nil {
		return nil, nil, err
	}
	res, err := runRep(spec, seed, seconds, true)
	if err != nil {
		return nil, nil, err
	}
	ladder, err := runLadder(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(d.PerLayer))
	for i, m := range d.PerLayer {
		names[i] = m.Name
	}
	layers := res.ledger(spec, plain, ladder, names)
	if err := res.writeTrace(spec, layers); err != nil {
		return nil, nil, err
	}
	return layers, res, nil
}
