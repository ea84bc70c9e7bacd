package chaos

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"montage/internal/memtext"
	"montage/internal/pmem"
	"montage/internal/server"
)

// netClient is a minimal memcached-text-protocol client for net-mode
// schedules.
type netClient struct {
	conn net.Conn
	br   *bufio.Reader
	mode AckMode
}

func dialNet(addr string) (*netClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &netClient{conn: conn, br: memtext.NewReader(conn)}, nil
}

// line reads one response line, framed as the server frames requests.
func (c *netClient) line() (string, error) {
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, _, err := memtext.ReadLine(c.br)
	return string(line), err
}

// cmd sends one command (the caller includes the trailing \r\n and any
// data block) and reads the first response line.
func (c *netClient) cmd(format string, args ...any) (string, error) {
	if _, err := fmt.Fprintf(c.conn, format, args...); err != nil {
		return "", err
	}
	return c.line()
}

// setMode switches the connection's durability-ack mode if needed.
func (c *netClient) setMode(m AckMode) error {
	if c.mode == m {
		return nil
	}
	resp, err := c.cmd("durability %s\r\n", m)
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("durability %s: %q", m, resp)
	}
	c.mode = m
	return nil
}

// get reads key's value. The body is consumed by the VALUE header's
// byte count, not as a line, so a value of any size stays framed.
func (c *netClient) get(key string) (string, bool, error) {
	resp, err := c.cmd("get %s\r\n", key)
	if err != nil {
		return "", false, err
	}
	if resp == "END" {
		return "", false, nil
	}
	f := strings.Fields(resp)
	if len(f) < 4 || f[0] != "VALUE" || f[1] != key {
		return "", false, fmt.Errorf("get %s: %q", key, resp)
	}
	n, ok := memtext.ParseUint([]byte(f[3]), 31)
	if !ok {
		return "", false, fmt.Errorf("get %s: bad byte count in %q", key, resp)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return "", false, err
	}
	if string(body[n:]) != "\r\n" {
		return "", false, fmt.Errorf("get %s: %d-byte body not followed by CRLF", key, n)
	}
	if end, err := c.line(); err != nil || end != "END" {
		return "", false, fmt.Errorf("get %s: missing END (%q, %v)", key, end, err)
	}
	return string(body[:n]), true, nil
}

// runNetSchedule drives one schedule through a live TCP server: workers
// speak the wire protocol (switching durability modes per op), the crash
// is injected with the gated "crash" command, and the readback happens
// over a fresh connection against the in-place-recovered store. Per-shard
// watermarks are not observable through the wire, so the checker runs
// with nil cutoffs: binding-ack checks only.
func runNetSchedule(cfg Config) (Result, error) {
	res := Result{Seed: cfg.Seed, Shards: cfg.Shards, Mode: cfg.Mode, Net: true}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := drawPlan(rng, cfg)
	res.Trigger = plan.trigger(true)

	srv, err := server.New(server.Config{
		Shards:      cfg.Shards,
		ArenaSize:   cfg.ArenaSize,
		MaxConns:    cfg.Workers + 4,
		EpochLength: 500 * time.Microsecond,
		AllowCrash:  true,
		Recorder:    cfg.Recorder,
	})
	if err != nil {
		return res, err
	}
	addr, err := srv.Listen()
	if err != nil {
		return res, err
	}
	go srv.Serve()
	defer srv.Shutdown(2 * time.Second)
	srv.SeedCrashRNG(cfg.Seed)

	hist := NewHistory(cfg.Workers)
	crashed := make(chan struct{})
	var crashOnce sync.Once
	markCrashed := func() { crashOnce.Do(func() { close(crashed) }) }
	var crashFired atomic.Bool

	crashCmd := "crash\r\n"
	if cfg.Mode == pmem.CrashPartial {
		crashCmd = "crash partial\r\n"
	}
	// injectCrash stamps the crash instant BEFORE the command goes on the
	// wire: any ack stamped later raced the crash and is non-binding.
	injectCrash := func(c *netClient) error {
		hist.MarkCrash()
		resp, err := c.cmd("%s", crashCmd)
		if err != nil {
			return err
		}
		if resp != "OK" {
			return fmt.Errorf("crash: %q", resp)
		}
		markCrashed()
		return nil
	}

	opErrs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		c, err := dialNet(addr.String())
		if err != nil {
			markCrashed() // release nothing-specific; just stop peers
			wg.Wait()
			return res, err
		}
		wg.Add(1)
		go func(w int, c *netClient) {
			defer wg.Done()
			defer c.conn.Close()
			wrng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(w)))
			for i := 0; i < cfg.OpsPerWorker; i++ {
				select {
				case <-crashed:
					return
				default:
				}
				op := Op{Worker: w, Index: i, Key: fmt.Sprintf("k%02d", wrng.Intn(cfg.Keys))}
				if wrng.Intn(4) == 0 {
					op.Kind = OpDelete
				}
				switch wrng.Intn(4) {
				case 0:
					op.Mode = AckSync
				case 1:
					op.Mode = AckEpochWait
				}
				if err := c.setMode(op.Mode); err != nil {
					opErrs[w] = err
					return
				}
				op.Start = hist.Next()
				var resp string
				var err error
				if op.Kind == OpSet {
					op.Value = fmt.Sprintf("s%x.w%d.%d", uint64(cfg.Seed), w, i)
					op.Found = true
					resp, err = c.cmd("set %s 0 0 %d\r\n%s\r\n", op.Key, len(op.Value), op.Value)
				} else {
					resp, err = c.cmd("delete %s\r\n", op.Key)
				}
				if err != nil {
					opErrs[w] = fmt.Errorf("w%d#%d %s %s: %w", w, i, op.Kind, op.Key, err)
					return
				}
				op.End = hist.Next()
				op.AckSeq = op.End
				switch {
				case op.Kind == OpSet && resp == "STORED":
					op.Acked = true
				case op.Kind == OpDelete && resp == "DELETED":
					op.Acked, op.Found = true, true
				case op.Kind == OpDelete && resp == "NOT_FOUND":
					op.Acked, op.Found = true, false
				case strings.HasPrefix(resp, "SERVER_ERROR crash"):
					// The op raced the injected crash: its parked ack was
					// aborted, so it carries no promise (Acked stays false)
					// but its effect may still be in either state — a raced
					// delete must stay eligible as an absence explainer.
					op.Found = true
				default:
					opErrs[w] = fmt.Errorf("w%d#%d %s %s: unexpected ack %q", w, i, op.Kind, op.Key, resp)
					return
				}
				hist.Record(op)
				if hist.Completed() >= plan.afterOps && crashFired.CompareAndSwap(false, true) {
					if err := injectCrash(c); err != nil {
						opErrs[w] = err
						return
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
	for _, e := range opErrs {
		if e != nil {
			return res, e
		}
	}
	if crashFired.CompareAndSwap(false, true) {
		c, err := dialNet(addr.String())
		if err != nil {
			return res, err
		}
		err = injectCrash(c)
		c.conn.Close()
		if err != nil {
			return res, err
		}
	}

	rb, err := dialNet(addr.String())
	if err != nil {
		return res, err
	}
	recovered := make(map[string]string)
	for i := 0; i < cfg.Keys; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok, gerr := rb.get(k)
		if gerr != nil {
			rb.conn.Close()
			return res, gerr
		}
		if ok {
			recovered[k] = v
		}
	}
	rb.conn.Close()

	ops := hist.Ops()
	res.Ops = len(ops)
	res.History = ops
	res.CrashSeq = hist.CrashSeq()
	res.Survivors = len(recovered)
	res.Violations = Check(CheckInput{
		Ops:       ops,
		CrashSeq:  hist.CrashSeq(),
		Cutoffs:   nil,
		Recovered: recovered,
	})
	return res, nil
}
