package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"montage/benchmark/workload"
)

// server is one montage-serve child. It is exercised only through its
// binary, its TCP protocol, /metrics and /proc.
type server struct {
	cmd         *exec.Cmd
	addr, maddr string
	stderr      *os.File
	stderrPath  string
	exited      chan struct{}
	admin       net.Conn
	adminR      *bufio.Reader
	stopOnce    sync.Once
}

// startServer spawns montage-serve with its defaults plus what the
// benchmark needs (crash command, metrics endpoint, arena size) and
// waits until it listens.
func startServer(spec workload.Spec, deadline time.Time) (*server, error) {
	s := &server{exited: make(chan struct{})}
	s.stderrPath = filepath.Join(outDir, spec.Name+".server.stderr")
	var err error
	if s.stderr, err = os.Create(s.stderrPath); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(filepath.Join(binDir, "montage-serve"),
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-allow-crash",
		"-arena", strconv.Itoa(spec.Arena))
	s.cmd.Stderr = s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addrs := make(chan string, 2)
	go func() {
		// Read the child's output to its end (Wait closes the pipe), picking
		// out the two addresses it announces.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "/debug/pprof on "); ok {
				addrs <- rest
			} else if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addrs <- strings.Fields(rest)[0]
			}
		}
		s.cmd.Wait()
		close(s.exited)
	}()
	for _, dst := range []*string{&s.maddr, &s.addr} {
		select {
		case *dst = <-addrs:
		case <-s.exited:
			return nil, fmt.Errorf("montage-serve exited during start-up, see %s", s.stderrPath)
		case <-time.After(time.Until(deadline)):
			s.dumpAndKill()
			return nil, fmt.Errorf("montage-serve did not listen in time")
		}
	}
	if s.admin, s.adminR, err = dial(s.addr, deadline); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// kill stops the child at once and waits for it.
func (s *server) kill() {
	s.stopOnce.Do(func() {
		if s.admin != nil {
			s.admin.Close()
		}
		s.cmd.Process.Kill()
		<-s.exited
		s.stderr.Close()
	})
}

// end sends the child a signal, gives it grace to exit, then kills it.
func (s *server) end(sig syscall.Signal, grace time.Duration) {
	s.cmd.Process.Signal(sig)
	select {
	case <-s.exited:
	case <-time.After(grace):
	}
	s.kill()
}

// stop asks the child to drain and exit. The caller has closed its load
// connections; an open one would hold the drain for its whole timeout.
func (s *server) stop() {
	s.admin.Close()
	s.end(syscall.SIGTERM, 10*time.Second)
}

// dumpAndKill is the watchdog's end: SIGQUIT makes the Go runtime write
// every goroutine's stack to the child's stderr file before it dies.
func (s *server) dumpAndKill() {
	s.end(syscall.SIGQUIT, 3*time.Second)
	fmt.Fprintf(os.Stderr, "watchdog: goroutine dump of montage-serve saved in %s\n", s.stderrPath)
}

func (s *server) adminCmd(cmd string) (string, error) { return roundTrip(s.admin, s.adminR, cmd) }

// stats runs the stats command and returns its numeric fields.
func (s *server) stats() (map[string]float64, error) {
	if _, err := s.admin.Write([]byte("stats\r\n")); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for {
		line, err := s.adminR.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		f := strings.Fields(string(line))
		if len(f) == 1 && f[0] == "END" {
			return out, nil
		}
		if len(f) == 3 && f[0] == "STAT" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		}
	}
}

// scrape fetches /metrics and returns every counter, gauge and
// histogram sum/count under its canonical name ("epoch.advances",
// "latency.sync_ns.sum"), the names the library's Stats() flatten to.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.maddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		name, val, ok := strings.Cut(string(line), " ")
		if !ok || !strings.HasPrefix(name, "montage_") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		group, rest, _ := strings.Cut(strings.TrimPrefix(name, "montage_"), "_")
		rest = strings.TrimSuffix(rest, "_total")
		if group == "latency" {
			if i := strings.LastIndex(rest, "_"); i >= 0 {
				rest = rest[:i] + "." + rest[i+1:]
			}
		}
		out[group+"."+rest] = v
	}
	return out
}

// procCPU is the CPU time a process has used. The scheduler's per-thread
// run time (/proc/<pid>/task/*/schedstat, in ns) is summed where the
// kernel keeps it; otherwise utime+stime from /proc/<pid>/stat, whose
// 10 ms ticks are too coarse for a 1 s slice of a lightly loaded server.
func procCPU(pid int) (time.Duration, error) {
	if tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)); len(tasks) > 0 {
		var ns int64
		for _, t := range tasks {
			b, err := os.ReadFile(t) // a thread may exit between the glob and the read
			if f := strings.Fields(string(b)); err == nil && len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				ns += v
			}
		}
		if ns > 0 {
			return time.Duration(ns), nil
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil // USER_HZ is 100 on Linux
}

// procHWM is a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// selfCPU is this process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setUp is one complete set-up: spawn, listen, connect, preload, select
// the ack mode. Its duration is one setup_s sample.
func setUp(spec workload.Spec, seed uint64, deadline time.Time) (*server, []*client, error) {
	srv, err := startServer(spec, deadline)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*client, spec.Conns)
	errs := make(chan error, spec.Conns)
	for i := range clients {
		c := &client{spec: spec, id: i, stream: workload.NewStream(spec, seed, i)}
		clients[i] = c
		go func() {
			var err error
			if c.nc, c.br, err = dial(srv.addr, deadline); err == nil {
				if err = c.preload(); err == nil {
					var reply string
					if reply, err = roundTrip(c.nc, c.br, "durability "+spec.Ack); err == nil && reply != "OK" {
						err = fmt.Errorf("durability %s: %s", spec.Ack, reply)
					}
				}
			}
			errs <- err
		}()
	}
	for range clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		closeClients(clients)
		srv.dumpAndKill()
		return nil, nil, err
	}
	return srv, clients, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		if c.nc != nil {
			c.nc.Close()
		}
	}
}

// servedRound is one round of a served workload against a fresh
// montage-serve child: set up, warm up, measure, then sync, crash,
// recover and read everything back. last marks the repetition's final
// round, the one a traced run adds its depth-1 pass to.
func servedRound(spec workload.Spec, seed uint64, seconds int, traced, last bool, deadline time.Time) (*result, error) {
	res := newResult()
	t0 := time.Now()
	srv, clients, err := setUp(spec, seed, deadline)
	if err != nil {
		return nil, err
	}
	res.add("setup_s", time.Since(t0).Seconds())
	defer closeClients(clients)
	pid := srv.cmd.Process.Pid

	l := &load{spec: spec, base: time.Now(), traced: traced, clients: clients}
	for _, c := range clients {
		c.load = l
		for k, w := range spec.Mix {
			if w > 0 {
				c.lat[k] = make([]sample, 0, 1<<19)
			}
		}
		c.late = make([]int64, 0, 1<<19)
	}
	fail := func(err error) (*result, error) {
		l.stop.Store(true)
		srv.dumpAndKill()
		closeClients(clients)
		l.wg.Wait()
		return nil, err
	}
	l.start()
	time.Sleep(warmup)

	before, err := srv.scrape()
	if err != nil {
		return fail(err)
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return fail(err)
	}
	self0 := selfCPU()
	opened := time.Now()
	l.winStart.Store(int64(opened.Sub(l.base)))
	// Sleep through the window one slice at a time, reading the server's
	// CPU clock at every boundary. A traced run also samples the epoch lag
	// there; it comes from the stats command, which walks every key and
	// stalls the server for tens of ms, so once a second is already a few
	// per cent of throughput (trace_overhead_frac) and 10 Hz cost a third.
	cpu := []time.Duration{cpu0}
	for i := 1; i <= seconds*int(time.Second/slice); i++ {
		time.Sleep(time.Until(opened.Add(time.Duration(i) * slice)))
		c, err := procCPU(pid)
		if err != nil {
			return fail(err)
		}
		cpu = append(cpu, c)
		if traced {
			st, err := srv.stats()
			if err != nil {
				return fail(err)
			}
			res.add("epoch.lag_epochs_mean", st["epoch"]-st["persisted_epoch"])
		}
	}
	l.winEnd.Store(l.now())
	self1 := selfCPU()
	after, err := srv.scrape()
	l.stop.Store(true)
	l.wg.Wait()
	if err != nil {
		return fail(err)
	}
	res.collect(l, time.Duration(l.winEnd.Load()-l.winStart.Load()), cpu)
	if res.Ops == 0 {
		return fail(fmt.Errorf("no operation completed in the timed window"))
	}
	res.Scrape = delta(after, before)
	res.add("loadgen.cpu_us_per_op", float64((self1-self0).Microseconds())/float64(res.Ops))

	if traced && last {
		if err := res.depthOne(clients[0]); err != nil {
			return fail(err)
		}
	}

	// Everything sent has been answered; make it durable, then pull the plug.
	if reply, err := srv.adminCmd("sync"); err != nil || reply != "OK" {
		return fail(fmt.Errorf("sync: %q %v", reply, err))
	}
	final, err := srv.scrape()
	if err != nil {
		return fail(err)
	}
	st, err := srv.stats()
	if err != nil {
		return fail(err)
	}
	live := 0
	for _, c := range clients {
		live += c.stream.LiveCount()
	}
	res.add("nvm_bytes_per_user_byte", final["alloc.bytes_in_use"]/float64(live*spec.UserBytes()))
	if hits, misses, evictions := st["get_hits"], st["get_misses"], st["evictions"]; misses != 0 || evictions != 0 {
		return fail(fmt.Errorf("guard tripped: kvstore.hit_rate %v (must be 1), kvstore.evictions %v (must be 0): this was not the declared workload",
			hits/(hits+misses), evictions))
	}
	res.add("kvstore.hit_rate", 1)
	res.add("kvstore.evictions", 0)

	// The crash command returns once the server has recovered in place
	// and answers again.
	t0 = time.Now()
	if reply, err := srv.adminCmd("crash"); err != nil || reply != "OK" {
		return fail(fmt.Errorf("crash: %q %v", reply, err))
	}
	recoverMs := float64(time.Since(t0).Microseconds()) / 1e3
	recovered, err := srv.scrape()
	if err != nil {
		return fail(err)
	}
	d := delta(recovered, final)
	sweepMs := (d["runtime.recovery_sweep_ns"] + d["runtime.recovery_filter_ns"] + d["runtime.recovery_invalidate_ns"]) / 1e6
	res.add("recover_ms", recoverMs)
	res.add("core.recover_sweep_ms", sweepMs)
	res.add("pds.rebuild_ms", recoverMs-sweepMs)

	type swept struct {
		checked int
		lost    []int
		err     error
	}
	sweeps := make(chan swept, len(clients))
	for _, c := range clients {
		go func() {
			var s swept
			s.checked, s.lost, s.err = c.sweep()
			sweeps <- s
		}()
	}
	for range clients {
		s := <-sweeps
		if s.err != nil && err == nil {
			err = s.err
		}
		res.Verified += int64(s.checked)
		res.noteLost(s.lost)
	}
	if err != nil {
		return fail(err)
	}
	rss, err := procHWM(pid)
	if err != nil {
		return fail(err)
	}
	res.add("peak_rss_mib", rss)
	closeClients(clients)
	srv.stop()
	return res, nil
}

// delta is after-before for every name in after.
func delta(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// depthOne is the traced run's non-overlapping pass on one connection:
// the bare wire round trip (version) and then the workload's own ops one
// at a time, so each request's spans nest and the ledger can be checked
// against them.
func (r *result) depthOne(c *client) error {
	const n = 2000
	rtt := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if reply, err := roundTrip(c.nc, c.br, "version"); err != nil || !strings.HasPrefix(reply, "VERSION") {
			return fmt.Errorf("version: %q %v", reply, err)
		}
		rtt = append(rtt, int64(time.Since(t0)))
	}
	r.add("server.wire_rtt_us", percentile(sorted(rtt), 0.5)/1e3)

	l := c.load
	var buf []byte
	var sets []int64
	for i := 0; i < 4*n && len(sets) < n; i++ {
		op := c.stream.Next()
		buf = workload.AppendRequest(buf[:0], c.spec, op)
		in := inflight{op: op, seq: c.seq, start: l.now()}
		c.seq++
		if _, err := c.nc.Write(buf); err != nil {
			return err
		}
		sent := l.now()
		first, err := c.readReply(op)
		end := l.now()
		if err != nil {
			if _, ok := err.(mismatch); !ok {
				return err
			}
			r.Failed++
			r.Violations = append(r.Violations, fmt.Sprintf("depth-1 %s key %d want version %d: %v", op.Kind, op.ID, op.Version, err))
			continue
		}
		if op.Kind != workload.Get {
			sets = append(sets, end-in.start)
		}
		r.depth1 = append(r.depth1, span{in.seq, op.Kind, in.start, in.start, sent, first, end})
	}
	r.depth1SetP50 = percentile(sorted(sets), 0.5)
	return nil
}
