package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"montage/internal/pmem"
)

// TestCrashSyncedWriteSurvives is the simplest durability contract: a
// write acked in sync mode survives a crash injected over the wire, and
// the listener keeps serving the recovered store on the same
// connection.
func TestCrashSyncedWriteSurvives(t *testing.T) {
	// A near-infinite epoch keeps the daemon from persisting the buffered
	// write on its own: only the sync-mode ack forces durability, so the
	// post-crash outcome is deterministic.
	s := newTestServer(t, Config{AllowCrash: true, EpochLength: time.Hour})
	c := dialPipe(t, s)

	c.send("durability sync\r\n")
	c.expect("OK")
	c.send("set durable 0 0 2\r\nok\r\n")
	c.expect("STORED")
	c.send("durability buffered\r\n")
	c.expect("OK")
	c.send("set volatile 0 0 4\r\ngone\r\n")
	c.expect("STORED")

	c.send("crash\r\n")
	c.expect("OK")
	c.send("get durable\r\n")
	c.expect("VALUE durable 0 2", "ok", "END")
	// The buffered write landed after the last persisted epoch boundary
	// and was never synced: the crash dropped it.
	c.send("get volatile\r\n")
	c.expect("END")

	if got := s.Recorder().Snapshot().Server.Crashes; got != 1 {
		t.Fatalf("crash injections = %d", got)
	}
}

// crashClient is one load connection for the crash-during-serve test.
// It owns a disjoint key set (single writer per key), stamps every
// value with its own sequence number, and tracks the last sequence per
// key whose ack carried a durability guarantee.
type crashClient struct {
	id     int
	mode   AckMode
	conn   net.Conn
	br     *bufio.Reader
	issued map[string]map[int]bool // key -> set of issued seqs
	acked  map[string]int          // key -> last durably-acked seq
	sets   int
	aborts int
}

func (cc *crashClient) key(j int) string { return fmt.Sprintf("c%d-k%d", cc.id, j) }

// run writes as fast as acks come back (pipeline depth 1) until stop
// closes. Values are the decimal seq so the checker can read them back.
func (cc *crashClient) run(t *testing.T, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	seq := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		seq++
		key := cc.key(seq % 4)
		val := strconv.Itoa(seq)
		if _, err := fmt.Fprintf(cc.conn, "set %s 0 0 %d\r\n%s\r\n", key, len(val), val); err != nil {
			t.Errorf("client %d: send: %v", cc.id, err)
			return
		}
		if cc.issued[key] == nil {
			cc.issued[key] = map[int]bool{}
		}
		cc.issued[key][seq] = true
		cc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := cc.br.ReadString('\n')
		if err != nil {
			t.Errorf("client %d: read: %v", cc.id, err)
			return
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "STORED":
			cc.sets++
			// Only sync and epoch-wait acks promise durability.
			if cc.mode != AckBuffered {
				cc.acked[key] = seq
			}
		case strings.HasPrefix(line, "SERVER_ERROR crash"):
			// A parked ack aborted by the crash: explicitly NOT durable.
			cc.aborts++
		default:
			t.Errorf("client %d: unexpected ack %q", cc.id, line)
			return
		}
	}
}

// TestCrashDuringServe runs pipelining clients in all three ack modes
// against a live TCP server, injects a power failure mid-load, lets the
// load continue against the recovered store, and then checks the
// durability contract per key: the surviving value's sequence is at
// least the last durably-acked one, and is a value that was actually
// issued (the recovered state is a prefix of the acked history, never
// an invention).
func TestCrashDuringServe(t *testing.T) {
	s := newTestServer(t, Config{
		MaxConns:    8,
		ArenaSize:   1 << 25,
		EpochLength: time.Millisecond,
		AllowCrash:  true,
	})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	modes := []AckMode{AckSync, AckSync, AckEpochWait, AckEpochWait, AckBuffered, AckBuffered}
	clients := make([]*crashClient, len(modes))
	for i, mode := range modes {
		nc, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		cc := &crashClient{
			id: i, mode: mode, conn: nc, br: bufio.NewReader(nc),
			issued: map[string]map[int]bool{}, acked: map[string]int{},
		}
		if _, err := fmt.Fprintf(nc, "durability %s\r\n", mode); err != nil {
			t.Fatal(err)
		}
		if line, _ := cc.br.ReadString('\n'); strings.TrimRight(line, "\r\n") != "OK" {
			t.Fatalf("client %d: durability handshake got %q", i, line)
		}
		clients[i] = cc
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, cc := range clients {
		wg.Add(1)
		go cc.run(t, stop, &wg)
	}

	time.Sleep(100 * time.Millisecond)
	if _, err := s.Crash(pmem.CrashDropAll); err != nil {
		t.Fatalf("crash: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Read the final state back over the wire (a fresh connection against
	// the recovered runtime).
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	readBack := func(key string) (int, bool) {
		fmt.Fprintf(nc, "get %s\r\n", key)
		head, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("readback %s: %v", key, err)
		}
		head = strings.TrimRight(head, "\r\n")
		if head == "END" {
			return 0, false
		}
		val, _ := br.ReadString('\n')
		if end, _ := br.ReadString('\n'); strings.TrimRight(end, "\r\n") != "END" {
			t.Fatalf("readback %s: missing END", key)
		}
		seq, err := strconv.Atoi(strings.TrimRight(val, "\r\n"))
		if err != nil {
			t.Fatalf("readback %s: bad value %q", key, val)
		}
		return seq, true
	}

	var totalSets, totalAborts int
	for _, cc := range clients {
		totalSets += cc.sets
		totalAborts += cc.aborts
		for key, issued := range cc.issued {
			seq, found := readBack(key)
			lastAcked := cc.acked[key]
			if lastAcked > 0 {
				if !found {
					t.Errorf("client %d (%v): key %s durably acked seq %d but is gone",
						cc.id, cc.mode, key, lastAcked)
					continue
				}
				if seq < lastAcked {
					t.Errorf("client %d (%v): key %s rolled back to seq %d, acked %d",
						cc.id, cc.mode, key, seq, lastAcked)
				}
			}
			// Whatever survived must be something this client actually
			// wrote: state is a prefix of history, never an invention.
			if found && !issued[seq] {
				t.Errorf("client %d (%v): key %s holds never-issued seq %d",
					cc.id, cc.mode, key, seq)
			}
		}
	}
	if totalSets == 0 {
		t.Fatal("no sets were acked at all")
	}

	snap := s.Recorder().Snapshot()
	if snap.Server.Crashes != 1 {
		t.Errorf("crash injections = %d", snap.Server.Crashes)
	}
	if snap.Server.AcksSync == 0 || snap.Server.AcksEpoch == 0 || snap.Server.AcksBuffered == 0 {
		t.Errorf("ack mix sync=%d epoch=%d buffered=%d: a mode saw no traffic",
			snap.Server.AcksSync, snap.Server.AcksEpoch, snap.Server.AcksBuffered)
	}
	if uint64(totalAborts) != snap.Server.AcksAborted {
		t.Errorf("clients saw %d aborted acks, server counted %d",
			totalAborts, snap.Server.AcksAborted)
	}

	if err := s.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}
