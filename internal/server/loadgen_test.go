package server

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"montage/internal/obs"
	"montage/internal/ycsb"
)

// TestRunLoadStopsWhenReaderFails runs the load generator against a fake
// server that acks the handshake and the preload barrier, answers the
// first timed request with ERROR, and then keeps reading without
// replying. The connection's reader gives up on the ERROR while the
// socket stays writable; RunLoad must stop sending and return the
// reader's error instead of blocking on a pipeline nobody drains.
func TestRunLoadStopsWhenReaderFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		preloaded := false
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			switch {
			case strings.HasPrefix(line, "durability "):
				io.WriteString(c, "OK\r\n")
			case strings.HasPrefix(line, "version"):
				io.WriteString(c, "VERSION fake\r\n")
			case strings.HasSuffix(line, "noreply\r\n"):
				br.ReadString('\n') // the preload set's data line
			case strings.HasPrefix(line, "set ") && !preloaded:
				// The preload's first set asks for a reply.
				br.ReadString('\n')
				io.WriteString(c, "STORED\r\n")
				preloaded = true
			default:
				io.WriteString(c, "ERROR\r\n")
				io.Copy(io.Discard, br)
				return
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		_, err := RunLoad(LoadConfig{
			Addr:     ln.Addr().String(),
			Duration: 300 * time.Millisecond,
			Records:  16,
			Pipeline: 4,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "ERROR") {
			t.Fatalf("RunLoad error = %v, want the reader's ERROR reply", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunLoad still running 2s after its reader failed")
	}
}

func TestRunLoadAgainstServer(t *testing.T) {
	s := newTestServer(t, Config{MaxConns: 8})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	res, err := RunLoad(LoadConfig{
		Addr:     addr.String(),
		Conns:    3,
		Duration: 200 * time.Millisecond,
		Records:  64,
		Pipeline: 8,
		Mode:     AckEpochWait,
		ReadFrac: -1, // YCSB-A
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("load saw no traffic: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("load errors: %+v", res)
	}
	if res.P50 == 0 || res.Max < res.P50 {
		t.Fatalf("latency summary broken: %+v", res)
	}
	// Every write was acked in epoch-wait mode: the timed phase's, plus
	// each connection's first preload set, the only one that asks for a
	// reply.
	snap := s.Recorder().Snapshot()
	if want := res.Writes + 3; snap.Server.AcksEpoch != want {
		t.Fatalf("epoch-wait acks %d != %d (acked writes + 3 preload sets)", snap.Server.AcksEpoch, want)
	}
}

// TestLoadReaderFramesLargeValues feeds loadReader a get response whose
// body is larger than its reader's buffer (the 4 KiB buffers RunLoad
// uses at 4096+ connections): the body must be skipped by its declared
// length, not read as a line.
func TestLoadReaderFramesLargeValues(t *testing.T) {
	body := strings.Repeat("x", 8000)
	resp := "VALUE k 0 8000\r\n" + body + "\r\nEND\r\nSTORED\r\n"
	br := bufio.NewReaderSize(strings.NewReader(resp), 4<<10)
	inflight := make(chan reqToken, 2)
	inflight <- reqToken{kind: ycsb.Read, start: time.Now()}
	inflight <- reqToken{kind: ycsb.Update, start: time.Now()}
	close(inflight)
	var st connStats
	if err := loadReader(br, inflight, obs.New(1), 0, &st); err != nil {
		t.Fatalf("loadReader: %v", err)
	}
	if st.reads != 1 || st.writes != 1 || st.errors != 0 {
		t.Fatalf("tally = %+v, want one read and one write", st)
	}
}

// TestRunLoadFailsOnRejectedPreload stores values larger than the
// largest allocator size class: the server rejects every set, so the
// preload must fail the run rather than time reads against an empty
// store.
func TestRunLoadFailsOnRejectedPreload(t *testing.T) {
	s := newTestServer(t, Config{MaxConns: 8})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	res, err := RunLoad(LoadConfig{
		Addr:      addr.String(),
		Conns:     2,
		Duration:  100 * time.Millisecond,
		Records:   16,
		ValueSize: 20000,
		ReadFrac:  1,
	})
	if err == nil || !strings.Contains(err.Error(), "SERVER_ERROR") {
		t.Fatalf("RunLoad = %+v, %v; want the server's SERVER_ERROR reply", res, err)
	}
}
