package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"montage"
	"montage/benchmark/workload"
	"montage/internal/pmem"
)

// The library workload runs in child processes of this same binary, so
// that its CPU and memory are the system's alone and recovery starts
// from a cold process, as a restart does:
//
//	lib-run      NewSystem, preload, warm-up, timed window, Sync, crash, Save
//	lib-recover  load the image, RecoverParallel, RecoverHashMap, verify
//
// Only montage's public API is used, plus pmem.NewDeviceFromFile, which
// the public package does not re-export.

// sampleEvery is the library loop's latency sampling: one op in 16 is
// timed, so the clock reads cost under 1 % of the loop and a slice still
// holds some 25 000 samples of each class.
const sampleEvery = 16

func libConfig(spec workload.Spec) montage.Config {
	return montage.Config{
		ArenaSize:  spec.Arena,
		MaxThreads: 2,
		Epoch:      montage.EpochConfig{EpochLength: montage.DefaultEpochLength},
	}
}

// runChild runs one of this directory's binaries to completion and
// returns its standard output. Past the deadline the child gets SIGQUIT,
// so its goroutine dump lands in the stderr file, and is then killed.
func runChild(deadline time.Time, stderrPath, bin string, args ...string) ([]byte, error) {
	stderr, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stderr = stderr
	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := cmd.Output()
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, fmt.Errorf("%s %v: %w (see %s)", bin, args, r.err, stderrPath)
		}
		return r.out, nil
	case <-time.After(time.Until(deadline)):
	}
	if cmd.Process != nil {
		cmd.Process.Signal(syscall.SIGQUIT)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		cmd.Process.Kill()
		<-done
	}
	return nil, fmt.Errorf("watchdog: %s %v passed its deadline; goroutine dump in %s", bin, args, stderrPath)
}

// libRound is one round of the library workload: a lib-run child, then
// a lib-recover child on the image it saved.
func libRound(spec workload.Spec, seed uint64, seconds int, traced, last bool, deadline time.Time) (*result, error) {
	stderrPath := filepath.Join(outDir, spec.Name+".lib.stderr")
	image := filepath.Join(outDir, spec.Name+".img")
	shadow := filepath.Join(outDir, spec.Name+".shadow")
	defer os.Remove(image)
	defer os.Remove(shadow)

	args := []string{"lib-run", "--workload", spec.Name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--image", image, "--shadow", shadow}
	if traced && last {
		// The child's tracing is a few clock reads; one round of spans is
		// enough for the trace file.
		args = append(args, "--trace")
	}
	out, err := runChild(deadline, stderrPath, "benchmark", args...)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("lib-run: %w", err)
	}
	out, err = runChild(deadline, stderrPath, "benchmark", "lib-recover", "--workload", spec.Name, "--image", image, "--shadow", shadow)
	if err != nil {
		return nil, err
	}
	var rec struct {
		LoadMs, SweepMs, RebuildMs, RecoverMs float64
		Verified                              int64
		Lost                                  []int
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("lib-recover: %w", err)
	}
	res.add("recover_ms", rec.RecoverMs)
	res.add("core.recover_sweep_ms", rec.SweepMs)
	res.add("pds.rebuild_ms", rec.RebuildMs)
	res.add("info.image_load_ms", rec.LoadMs)
	res.Verified = rec.Verified
	res.noteLost(rec.Lost)
	return res, nil
}

// libFlags parses a child's flags: the workload, the seed, and more.
func libFlags(name string, args []string, more func(fs *flag.FlagSet)) (workload.Spec, uint64, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	wl := fs.String("workload", "", "")
	seed := fs.Uint64("seed", 1, "")
	more(fs)
	if err := fs.Parse(args); err != nil {
		return workload.Spec{}, 0, err
	}
	spec, err := workload.ByName(*wl)
	return spec, *seed, err
}

// cmdLibRun is the child that is the system under test.
func cmdLibRun(args []string) error {
	var seconds int
	var traced bool
	var image, shadow string
	spec, seed, err := libFlags("lib-run", args, func(fs *flag.FlagSet) {
		fs.IntVar(&seconds, "seconds", 10, "")
		fs.BoolVar(&traced, "trace", false, "")
		fs.StringVar(&image, "image", "", "")
		fs.StringVar(&shadow, "shadow", "", "")
	})
	if err != nil {
		return err
	}
	res := newResult()
	stream := workload.NewStream(spec, seed, 0)
	keys := make([]string, spec.Keys)
	for id := range keys {
		keys[id] = string(workload.AppendKey(nil, id, spec.KeyLen))
	}
	var val []byte

	t0 := time.Now()
	sys, err := montage.NewSystem(libConfig(spec))
	if err != nil {
		return err
	}
	m := montage.NewHashMap(sys, spec.Buckets)
	for id := range keys {
		if spec.Preloaded(id) {
			val = workload.AppendValue(val[:0], id, 1, spec.ValueLen)
			if ok, err := m.Insert(0, keys[id], val); err != nil || !ok {
				return fmt.Errorf("preload key %d: inserted=%v err=%v", id, ok, err)
			}
		}
	}
	res.add("setup_s", time.Since(t0).Seconds())

	// do runs one op and checks its result against the shadow.
	do := func(op workload.Op) {
		var err error
		key := keys[op.ID]
		switch op.Kind {
		case workload.Get:
			v, hit := m.Get(0, key)
			id, version, ok := workload.ParseValue(v, spec.ValueLen)
			if hit != op.Live || hit && (!ok || id != op.ID || version != op.Version) {
				err = fmt.Errorf("hit=%v key %d version %d", hit, id, version)
			}
		case workload.Insert:
			val = workload.AppendValue(val[:0], op.ID, op.Version, spec.ValueLen)
			var inserted bool
			if inserted, err = m.Insert(0, key, val); err == nil && inserted == op.Live {
				err = fmt.Errorf("inserted=%v", inserted)
			}
		case workload.Remove:
			var removed bool
			if removed, err = m.Remove(0, key); err == nil && removed != op.Live {
				err = fmt.Errorf("removed=%v", removed)
			}
		}
		if err != nil {
			res.Failed++
			if len(res.Violations) < 20 {
				res.Violations = append(res.Violations, fmt.Sprintf("%s key %d want version %d live %v: %v", op.Kind, op.ID, op.Version, op.Live, err))
			}
		}
	}
	// loop runs ops until the deadline, timing one in sampleEvery; the
	// clock is read only around the sampled op. base is when the timed
	// window opened.
	var lat [workload.NumKinds][]sample
	var spans []span
	var base time.Time
	var cpu []time.Duration
	loop := func(until time.Time, record bool) (ops int64) {
		for {
			if !time.Now().Before(until) {
				return ops
			}
			op := stream.Next()
			t := time.Now()
			do(op)
			end := time.Now()
			if record {
				at := end.Sub(base)
				lat[op.Kind] = append(lat[op.Kind], sample{int64(at), int64(end.Sub(t))})
				if traced && len(spans) < traceCap {
					s := int64(t.Sub(base))
					spans = append(spans, span{ops, op.Kind, s, s, s, int64(at), int64(at)})
				}
				if at >= time.Duration(len(cpu))*slice {
					// A slice boundary: read the CPU clock and the epoch lag.
					cpu = append(cpu, selfCPU())
					es := sys.Epochs()
					res.add("epoch.lag_epochs_mean", float64(es.Epoch())-float64(es.PersistedEpoch()))
				}
			}
			for i := 1; i < sampleEvery; i++ {
				do(stream.Next())
			}
			ops += sampleEvery
		}
	}
	for k, w := range spec.Mix {
		if w > 0 {
			lat[k] = make([]sample, 0, 1<<18)
		}
	}
	loop(time.Now().Add(warmup), false)

	before := flatten(sys.Stats())
	failedBefore := res.Failed
	base = time.Now()
	cpu = append(cpu, selfCPU())
	ops := loop(base.Add(time.Duration(seconds)*time.Second), true)
	window := time.Since(base)
	cpu = append(cpu, selfCPU())
	after := flatten(sys.Stats())

	res.Ops = ops - (res.Failed - failedBefore)
	res.addSlices(lat, window, sampleEvery, cpu)
	res.Scrape = delta(after, before)

	sys.Sync(0)
	res.add("nvm_bytes_per_user_byte", flatten(sys.Stats())["alloc.bytes_in_use"]/float64(stream.LiveCount()*spec.UserBytes()))
	sys.Abandon()
	sys.Device().Crash(montage.CrashDropAll)
	if err := sys.Device().Save(image); err != nil {
		return err
	}
	if err := writeShadow(shadow, stream); err != nil {
		return err
	}
	rss, err := procHWM(os.Getpid())
	if err != nil {
		return err
	}
	res.add("peak_rss_mib", rss)
	if traced {
		if err := appendSpans(spec, "window", spans); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// flatten turns a Stats() snapshot into the canonical names /metrics
// parses to ("epoch.advances", "latency.sync_ns.sum"), by way of its
// JSON form so that no internal package is named here.
func flatten(stats montage.Stats) map[string]float64 {
	b, err := json.Marshal(stats)
	if err != nil {
		panic(err) // a plain struct of numbers always marshals
	}
	var tree map[string]any
	if err := json.Unmarshal(b, &tree); err != nil {
		panic(err)
	}
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case float64:
			out[prefix] = v
		case map[string]any:
			for k, c := range v {
				if prefix != "" {
					k = prefix + "." + k
				}
				walk(k, c)
			}
		}
	}
	walk("", tree)
	return out
}

// writeShadow saves the expected state of every key: version<<1 | live.
func writeShadow(path string, s *workload.Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var word [4]byte
	for j := 0; j < s.Local(); j++ {
		version, live := s.State(j)
		v := version << 1
		if live {
			v |= 1
		}
		binary.LittleEndian.PutUint32(word[:], v)
		w.Write(word[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdLibRecover is the restarted process: it reopens the saved image,
// recovers, and compares every key with the shadow. Loading the image
// file stands in for mapping NVM and is reported apart from recover_ms.
func cmdLibRecover(args []string) error {
	var image, shadow string
	spec, _, err := libFlags("lib-recover", args, func(fs *flag.FlagSet) {
		fs.StringVar(&image, "image", "", "")
		fs.StringVar(&shadow, "shadow", "", "")
	})
	if err != nil {
		return err
	}
	want, err := os.ReadFile(shadow)
	if err != nil {
		return err
	}
	t0 := time.Now()
	dev, err := pmem.NewDeviceFromFile(image, 2, nil)
	if err != nil {
		return err
	}
	t1 := time.Now()
	sys, chunks, err := montage.RecoverParallel(dev, libConfig(spec), 2)
	if err != nil {
		return err
	}
	t2 := time.Now()
	m, err := montage.RecoverHashMap(sys, spec.Buckets, chunks)
	if err != nil {
		return err
	}
	t3 := time.Now()
	defer sys.Close()

	var lost []int
	var key []byte
	for id := 0; id < spec.Keys; id++ {
		w := binary.LittleEndian.Uint32(want[4*id:])
		key = workload.AppendKey(key[:0], id, spec.KeyLen)
		v, hit := m.Get(0, string(key))
		gotID, version, ok := workload.ParseValue(v, spec.ValueLen)
		if hit != (w&1 == 1) || hit && (!ok || gotID != id || version != w>>1) {
			lost = append(lost, id)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"LoadMs": ms(t1.Sub(t0)), "SweepMs": ms(t2.Sub(t1)), "RebuildMs": ms(t3.Sub(t2)), "RecoverMs": ms(t3.Sub(t1)),
		"Verified": spec.Keys, "Lost": lost,
	})
}
