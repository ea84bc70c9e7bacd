package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"montage/benchmark/workload"
)

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "set_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	st := func(median, spread float64) metricStat { return metricStat{Median: median, Spread: spread} }
	for _, c := range []struct {
		name string
		a, b metricStat
		m    metricDecl
		want string
	}{
		{"latency up 5% is inside the bound", st(100, 0.02), st(105, 0.02), lower, "ok"},
		{"latency up 11% regressed", st(100, 0.02), st(111, 0.02), lower, "REGRESSION"},
		{"latency down 30% is fine", st(100, 0.02), st(70, 0.02), lower, "ok"},
		{"throughput down 11% regressed", st(1000, 0.02), st(889, 0.02), higher, "REGRESSION"},
		{"throughput up 50% is fine", st(1000, 0.02), st(1500, 0.02), higher, "ok"},
		{"a spread above the bound cannot tell", st(100, 0.12), st(150, 0.02), lower, "unresolved"},
		{"b spread above the bound cannot tell", st(100, 0.02), st(101, 0.30), lower, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := verdict(st(1000, 0), st(900, 0), higher); worse < 0.0999 || worse > 0.1001 {
		t.Errorf("throughput 1000 -> 900 is worse by %v, want 0.1", worse)
	}
}

// inRepoRoot runs the rest of the test from the repository root, where
// BENCHMARK.json lives and where the benchmark is always run from.
func inRepoRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	inRepoRoot(t)
	dir := t.TempDir()
	write := func(name string, e env, throughput float64) string {
		set := setFile{Env: e, EndToEnd: map[string]map[string]metricStat{
			"serve-set-sync": {"throughput_ops_s": {Median: throughput, Spread: 0.01}},
		}}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := env{Nproc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", BenchVersion: version}
	a := write("a.json", base, 30000)
	if err := cmdCompare([]string{a, write("same.json", base, 29000)}); err != nil {
		t.Errorf("3%% slower on the same environment: %v", err)
	}
	if err := cmdCompare([]string{a, write("slow.json", base, 20000)}); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("a third slower must fail as a regression, got %v", err)
	}
	for name, e := range map[string]env{
		"nproc":      {4, 2, "go1.24.0", version},
		"gomaxprocs": {2, 1, "go1.24.0", version},
		"go":         {2, 2, "go1.25.0", version},
		"benchmark":  {2, 2, "go1.24.0", version + "x"},
	} {
		if err := cmdCompare([]string{a, write(name+".json", e, 30000)}); err == nil || !strings.Contains(err.Error(), "different environments") {
			t.Errorf("different %s must be refused, got %v", name, err)
		}
	}
}

// BENCHMARK.json must name the workloads this package defines and stay
// inside the limits the benchmark contract sets, or the driver refuses
// it before a single run.
func TestDeclarationMatchesCodeAndContract(t *testing.T) {
	inRepoRoot(t)
	d, err := readDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workload.Specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(d.Workloads), len(workload.Specs))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workload.Specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workload.Specs[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range d.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range d.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 || len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", d.RunSeconds, d.Paths)
	}
}
