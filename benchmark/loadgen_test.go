package main

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"montage/benchmark/workload"
)

// openSpec is a small open-loop, set-only workload for the fake server.
var openSpec = workload.Spec{
	Name: "test-open", Served: true, Keys: 64, Preload: 64, KeyLen: 16, ValueLen: 32,
	Mix: [workload.NumKinds]int{workload.Set: 1}, Conns: 1, RatePerS: 2000,
}

const stall = 50 * time.Millisecond

// fakeServer answers every set with STORED and, once stallAfter requests
// have arrived, stops reading for the length of one stall.
func fakeServer(t *testing.T, stallAfter int64) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		for n := int64(1); ; n++ {
			head, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(head, "set ") {
				t.Errorf("fake server got %q", head)
				return
			}
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			if n == stallAfter {
				time.Sleep(stall)
			}
			if _, err := nc.Write([]byte("STORED\r\n")); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// slowConn is a connection whose stallAt-th Write takes one stall
// longer: a generator that is itself late.
type slowConn struct {
	net.Conn
	writes  atomic.Int64
	stallAt int64
}

func (c *slowConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == c.stallAt {
		time.Sleep(stall)
	}
	return c.Conn.Write(b)
}

// runOpen drives openSpec for 300 ms, all of it timed.
func runOpen(t *testing.T, addr string, writeStallAt int64) *client {
	nc, br, err := dial(addr, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &client{spec: openSpec, nc: &slowConn{Conn: nc, stallAt: writeStallAt}, br: br, stream: workload.NewStream(openSpec, 1, 0)}
	l := &load{spec: openSpec, base: time.Now(), clients: []*client{c}}
	c.load = l
	l.winStart.Store(1)
	l.start()
	time.Sleep(300 * time.Millisecond)
	l.stop.Store(true)
	l.wg.Wait()
	if c.failed != 0 || c.answered != c.issued {
		t.Fatalf("failed %d, answered %d of %d: %v", c.failed, c.answered, c.issued, c.violation)
	}
	return c
}

func over(v []int64, d time.Duration) (n int) {
	for _, x := range v {
		if x > int64(d) {
			n++
		}
	}
	return n
}

func lats(v []sample) []int64 {
	out := make([]int64, len(v))
	for i, s := range v {
		out[i] = s.lat
	}
	return out
}

// A server stall must show in the latency of the requests that fell due
// during it — they are timed from their due time, not from when a free
// connection let them out — while the generator, which kept sending on
// schedule into the socket buffer, reports no lateness.
func TestOpenLoopChargesServerStallToLatency(t *testing.T) {
	c := runOpen(t, fakeServer(t, 100), 0)
	lat := sorted(lats(c.lat[workload.Set]))
	if max := time.Duration(lat[len(lat)-1]); max < stall*8/10 || max > stall*4 {
		t.Errorf("slowest request took %v; a %v stall must reach it once", max, stall)
	}
	// 2000 requests/s fall due for 50 ms: about 100 requests wait 5 ms or
	// more, and the backlog drains at once when the server resumes.
	if n := over(lat, 5*time.Millisecond); n < 50 || n > 200 {
		t.Errorf("%d requests waited over 5 ms, want about %d", n, int(stall.Seconds()*float64(openSpec.RatePerS))*9/10)
	}
	// Had the stall been charged to the generator, a sixth of the requests
	// would be up to a whole stall late; a busy test machine is not.
	if late := time.Duration(percentile(sorted(c.late), 0.99)); late > stall/2 {
		t.Errorf("generator late p99 = %v although only the server stalled", late)
	}
}

// A generator that is itself late — here one write that blocks — shows
// up in the lateness, and the latency of the requests it delayed still
// counts from when they were due.
func TestOpenLoopReportsLateGenerator(t *testing.T) {
	c := runOpen(t, fakeServer(t, 0), 100)
	if n := over(c.late, stall/2); n < 20 {
		t.Errorf("only %d requests were sent over %v late after a %v generator stall", n, stall/2, stall)
	}
	if n := over(lats(c.lat[workload.Set]), stall/2); n < 20 {
		t.Errorf("only %d delayed requests carry the delay in their latency", n)
	}
	if late := time.Duration(percentile(sorted(c.late), 0.5)); late > stall/2 {
		t.Errorf("median lateness %v: the generator did not catch up", late)
	}
}

// The closed loop and the reply checker against a server that answers
// one get wrongly.
func TestClosedLoopChecksReplies(t *testing.T) {
	spec := workload.Spec{
		Name: "test-closed", Served: true, Keys: 8, Preload: 8, KeyLen: 16, ValueLen: 32,
		Mix: [workload.NumKinds]int{workload.Get: 1, workload.Set: 1}, Conns: 1, Depth: 4,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		store := map[string]string{}
		for id := 0; id < spec.Keys; id++ {
			store[string(workload.AppendKey(nil, id, spec.KeyLen))] = string(workload.AppendValue(nil, id, 1, spec.ValueLen))
		}
		for gets := 1; ; {
			head, err := br.ReadString('\n')
			if err != nil {
				return
			}
			f := strings.Fields(head)
			if f[0] == "set" {
				data, _ := br.ReadString('\n')
				store[f[1]] = strings.TrimRight(data, "\r\n")
				nc.Write([]byte("STORED\r\n"))
				continue
			}
			v := store[f[1]]
			if gets++; gets == 50 {
				v = string(workload.AppendValue(nil, 0, 999999, spec.ValueLen)) // a value nobody wrote
			}
			nc.Write([]byte("VALUE " + f[1] + " 0 32\r\n" + v + "\r\nEND\r\n"))
		}
	}()
	nc, br, err := dial(ln.Addr().String(), time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := &client{spec: spec, nc: nc, br: br, stream: workload.NewStream(spec, 1, 0)}
	l := &load{spec: spec, base: time.Now(), clients: []*client{c}}
	c.load = l
	l.winStart.Store(1)
	l.start()
	time.Sleep(100 * time.Millisecond)
	l.stop.Store(true)
	l.wg.Wait()
	if c.failed != 1 || len(c.violation) != 1 {
		t.Errorf("failed = %d, violations %v; want exactly the one wrong value", c.failed, c.violation)
	}
	if c.answered != c.issued || c.done != c.answered-1 {
		t.Errorf("issued %d, answered %d, correct %d", c.issued, c.answered, c.done)
	}
}
