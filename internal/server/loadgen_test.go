package server

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"
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
	// Every write was acked in epoch-wait mode.
	snap := s.Recorder().Snapshot()
	if snap.Server.AcksEpoch != res.Writes {
		t.Fatalf("epoch-wait acks %d != acked writes %d", snap.Server.AcksEpoch, res.Writes)
	}
}
