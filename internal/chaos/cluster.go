package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"montage/internal/cluster"
	"montage/internal/server"
)

// setModeLoose switches the connection's durability-ack mode, tolerating
// a SERVER_ERROR response. Through the cluster proxy a mode change is a
// broadcast, and a dead backend fails the broadcast's combined ack — but
// the proxy applies the mode to the connection regardless and replays it
// in its redial handshake, so every future ack still carries the right
// mode. Only a protocol-level refusal is fatal.
func (c *netClient) setModeLoose(m AckMode) error {
	if c.mode == m {
		return nil
	}
	resp, err := c.cmd("durability %s\r\n", m)
	if err != nil {
		return err
	}
	if resp != "OK" && !strings.HasPrefix(resp, "SERVER_ERROR") {
		return fmt.Errorf("durability %s: %q", m, resp)
	}
	c.mode = m
	return nil
}

// runClusterSchedule drives one schedule through a consistent-hash proxy
// over cfg.Nodes live servers. It layers two failure events on top of the
// net-mode recipe:
//
//   - A seeded victim node is killed and revived mid-schedule WITHOUT
//     marking a crash in the history. Binding acks (sync, epoch-wait) are
//     durable before they are issued, so they must survive a node crash
//     that the history never sees; ops that race the dead node come back
//     as SERVER_ERROR lines and are recorded as non-binding.
//   - The recorded crash downs the whole cluster: MarkCrash first, then
//     every node is killed and revived in place. Workers keep running
//     into the outage (their acks stamp after the crash instant and bind
//     nothing), exactly like net mode's in-flight races.
//
// The readback walks the key universe through the proxy against the
// recovered fleet, and the checker runs with nil cutoffs (binding-ack
// checks only — per-node watermarks are not observable through the wire).
func runClusterSchedule(cfg Config) (Result, error) {
	res := Result{Seed: cfg.Seed, Shards: cfg.Shards, Mode: cfg.Mode, Net: true, Nodes: cfg.Nodes}
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan := drawPlan(rng, cfg)
	// Cluster-only draws, after the plan so the shared prefix of the
	// decision vector matches net mode for the same seed.
	victim := rng.Intn(cfg.Nodes)
	killAfter := uint64(1 + rng.Intn(int(plan.afterOps)))
	reviveDelay := time.Duration(1+rng.Intn(20)) * time.Millisecond
	res.Trigger = fmt.Sprintf("cluster%d-ops@%d+kill-n%d@%d", cfg.Nodes, plan.afterOps, victim, killAfter)

	nodes := make([]*server.Server, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		srv, err := server.New(server.Config{
			Shards:      cfg.Shards,
			ArenaSize:   cfg.ArenaSize,
			MaxConns:    cfg.Workers + 6,
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
		srv.SeedCrashRNG(cfg.Seed*31 + int64(n))
		nodes[n] = srv
		addrs[n] = addr.String()
	}

	// RetryWindow stays well under the clients' 10s line deadline so an
	// op routed at a node that never comes back fails with a SERVER_ERROR
	// while the client is still listening.
	px, err := cluster.NewProxy(cluster.Config{
		Nodes:          addrs,
		MaxConns:       cfg.Workers + 4,
		RetryWindow:    3 * time.Second,
		BackendTimeout: 8 * time.Second,
		Recorder:       cfg.Recorder,
	})
	if err != nil {
		return res, err
	}
	pxAddr, err := px.Listen()
	if err != nil {
		return res, err
	}
	go px.Serve()
	defer px.Shutdown(2 * time.Second)

	hist := NewHistory(cfg.Workers)
	crashed := make(chan struct{})
	var crashOnce sync.Once
	markCrashed := func() { crashOnce.Do(func() { close(crashed) }) }

	killRevive := func(srv *server.Server, delay time.Duration) error {
		if err := srv.Kill(cfg.Mode); err != nil {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if _, err := srv.Revive(); err != nil {
			return err
		}
		go srv.Serve()
		return nil
	}

	// The driver owns both failure events, serialized in one goroutine so
	// the victim kill can never race the cluster-wide crash on the same
	// node. workersDone forces any event the op stream never reached (a
	// worker error stalls Completed below the trigger) so every schedule
	// exercises the kill+revive path and ends with a recorded crash.
	var driverErr error
	driverDone := make(chan struct{})
	workersDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		defer markCrashed()
		killed := false
		for {
			done := false
			select {
			case <-workersDone:
				done = true
			default:
			}
			n := hist.Completed()
			if !killed && (n >= killAfter || done) {
				killed = true
				if err := killRevive(nodes[victim], reviveDelay); err != nil {
					driverErr = fmt.Errorf("victim kill+revive: %w", err)
					return
				}
			}
			if killed && (n >= plan.afterOps || done) {
				hist.MarkCrash()
				for i, srv := range nodes {
					if err := killRevive(srv, 0); err != nil {
						driverErr = fmt.Errorf("crash node %d: %w", i, err)
						return
					}
				}
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	opErrs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		c, err := dialNet(pxAddr.String())
		if err != nil {
			close(workersDone)
			wg.Wait()
			<-driverDone
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
				if err := c.setModeLoose(op.Mode); err != nil {
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
				case strings.HasPrefix(resp, "SERVER_ERROR"):
					// The op raced a crash or a dead node ("SERVER_ERROR
					// crash", "SERVER_ERROR node <addr> unavailable"): no
					// promise was made (Acked stays false) but the effect
					// may be in either state — a raced delete must stay
					// eligible as an absence explainer.
					op.Found = true
				default:
					opErrs[w] = fmt.Errorf("w%d#%d %s %s: unexpected ack %q", w, i, op.Kind, op.Key, resp)
					return
				}
				hist.Record(op)
			}
		}(w, c)
	}
	wg.Wait()
	close(workersDone)
	<-driverDone
	if driverErr != nil {
		return res, driverErr
	}
	for _, e := range opErrs {
		if e != nil {
			return res, e
		}
	}

	rb, err := dialNet(pxAddr.String())
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
	recordSchedule(cfg, &res)
	return res, nil
}
