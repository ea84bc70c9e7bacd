package cluster

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"montage/internal/core"
	"montage/internal/kvstore"
	"montage/internal/memtext"
	"montage/internal/pmem"
	"montage/internal/pool"
	"montage/internal/server"
)

// --- ring -----------------------------------------------------------------

func TestRingBalance(t *testing.T) {
	names := []string{"10.0.0.1:11211", "10.0.0.2:11211", "10.0.0.3:11211"}
	r := NewRing(names, 0)
	const keys = 30000
	counts := make([]int, len(names))
	for i := 0; i < keys; i++ {
		counts[r.Node(fmt.Sprintf("user%012d", i))]++
	}
	uniform := float64(keys) / float64(len(names))
	for ni, n := range counts {
		dev := (float64(n) - uniform) / uniform
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("node %d holds %d keys, %+.1f%% off uniform (band ±15%%)", ni, n, 100*dev)
		}
	}
}

func TestRingDeterministic(t *testing.T) {
	names := []string{"a:1", "b:2", "c:3"}
	r1 := NewRing(names, 64)
	r2 := NewRing(names, 64)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r1.NodeName(k) != r2.NodeName(k) {
			t.Fatalf("ring not deterministic for %q", k)
		}
	}
}

// TestRingRemapMinimality is the consistent-hashing property itself:
// adding a node moves only the keys the new node now owns; every other
// key keeps its old owner.
func TestRingRemapMinimality(t *testing.T) {
	old := NewRing([]string{"a:1", "b:2", "c:3"}, 0)
	grown := NewRing([]string{"a:1", "b:2", "c:3", "d:4"}, 0)
	const keys = 20000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("user%012d", i)
		was, is := old.NodeName(k), grown.NodeName(k)
		if was == is {
			continue
		}
		moved++
		if is != "d:4" {
			t.Fatalf("key %q moved %s -> %s, not to the new node", k, was, is)
		}
	}
	frac := float64(moved) / keys
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("adding 1 of 4 nodes moved %.1f%% of keys (want roughly 25%%)", 100*frac)
	}
}

// --- proxy fixtures -------------------------------------------------------

func startNode(t *testing.T, allowCrash bool) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		ArenaSize:   1 << 24,
		Buckets:     256,
		MaxConns:    16,
		EpochLength: time.Millisecond,
		AllowCrash:  allowCrash,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Shutdown(time.Second) })
	return s
}

func startCluster(t *testing.T, n int, allowCrash bool, retry time.Duration) ([]*server.Server, *Proxy) {
	t.Helper()
	nodes := make([]*server.Server, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startNode(t, allowCrash)
		addrs[i] = nodes[i].Addr().String()
	}
	px, err := NewProxy(Config{
		Nodes:          addrs,
		RetryWindow:    retry,
		BackendTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := px.Listen(); err != nil {
		t.Fatal(err)
	}
	go px.Serve()
	t.Cleanup(func() { px.Shutdown(time.Second) })
	return nodes, px
}

// tclient is a minimal blocking text-protocol client for tests.
type tclient struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialT(t *testing.T, addr string) *tclient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	return &tclient{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *tclient) write(s string) {
	c.t.Helper()
	if _, err := c.nc.Write([]byte(s)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *tclient) line() string {
	c.t.Helper()
	l, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(l, "\r\n")
}

func (c *tclient) cmd(s string) string {
	c.write(s)
	return c.line()
}

func (c *tclient) set(key, val string) {
	c.t.Helper()
	if got := c.cmd(fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val)); got != "STORED" {
		c.t.Fatalf("set %s: %q", key, got)
	}
}

// get returns the value (and hit flag) of a single-key get.
func (c *tclient) get(key string) (string, bool) {
	c.t.Helper()
	c.write("get " + key + "\r\n")
	l := c.line()
	if l == "END" {
		return "", false
	}
	var k string
	var flags, n int
	if _, err := fmt.Sscanf(l, "VALUE %s %d %d", &k, &flags, &n); err != nil {
		c.t.Fatalf("get %s: bad response %q", key, l)
	}
	val := c.line()
	if end := c.line(); end != "END" {
		c.t.Fatalf("get %s: missing END, got %q", key, end)
	}
	return val, true
}

// keysOnDistinctNodes finds one key per node of an n-node ring.
func keysOnDistinctNodes(r *Ring, n int) []string {
	byNode := make(map[int]string, n)
	for i := 0; len(byNode) < n && i < 100000; i++ {
		k := fmt.Sprintf("k%05d", i)
		ni := r.Node(k)
		if _, ok := byNode[ni]; !ok {
			byNode[ni] = k
		}
	}
	out := make([]string, 0, n)
	for ni := 0; ni < n; ni++ {
		out = append(out, byNode[ni])
	}
	return out
}

// --- proxy behavior -------------------------------------------------------

func TestProxyBasic(t *testing.T) {
	_, px := startCluster(t, 1, false, time.Second)
	c := dialT(t, px.Addr().String())
	c.set("alpha", "one")
	if v, ok := c.get("alpha"); !ok || v != "one" {
		t.Fatalf("get alpha = %q,%v", v, ok)
	}
	if got := c.cmd("delete alpha\r\n"); got != "DELETED" {
		t.Fatalf("delete: %q", got)
	}
	if _, ok := c.get("alpha"); ok {
		t.Fatal("alpha survived delete")
	}
	if got := c.cmd("version\r\n"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version: %q", got)
	}
	c.write("stats\r\n")
	sawNodes := false
	for {
		l := c.line()
		if l == "END" {
			break
		}
		if strings.HasPrefix(l, "STAT proxy_nodes ") {
			sawNodes = true
		}
	}
	if !sawNodes {
		t.Fatal("stats missing proxy_nodes")
	}
	if got := c.cmd("durability epoch-wait\r\n"); got != "OK" {
		t.Fatalf("durability: %q", got)
	}
	c.set("beta", "two") // epoch-wait ack through the proxy
	if got := c.cmd("flush_all\r\n"); got != "OK" {
		t.Fatalf("flush_all: %q", got)
	}
	if _, ok := c.get("beta"); ok {
		t.Fatal("beta survived flush_all")
	}
}

// TestProxyPipelinedCrossNode pipelines a burst whose keys land on
// different nodes and requires replies in request order, including a
// multi-key get spanning all three nodes whose VALUE blocks must come
// back in request key order.
func TestProxyPipelinedCrossNode(t *testing.T) {
	_, px := startCluster(t, 3, false, time.Second)
	keys := keysOnDistinctNodes(px.Ring(), 3)
	kA, kB, kC := keys[0], keys[1], keys[2]

	c := dialT(t, px.Addr().String())
	c.set(kA, "va")
	c.set(kB, "vb")
	c.set(kC, "vc")

	// One write, many commands: cross-node multiget, storage, delete,
	// noreply, second multiget after the delete, broadcast sync.
	var burst strings.Builder
	fmt.Fprintf(&burst, "get %s %s %s\r\n", kC, kA, kB) // request order C A B
	fmt.Fprintf(&burst, "set px1 0 0 2\r\nv1\r\n")
	fmt.Fprintf(&burst, "delete %s\r\n", kA)
	fmt.Fprintf(&burst, "set px2 0 0 2 noreply\r\nv2\r\n")
	fmt.Fprintf(&burst, "gets %s %s\r\n", kA, kB)
	fmt.Fprintf(&burst, "sync\r\n")
	fmt.Fprintf(&burst, "get px2\r\n")
	c.write(burst.String())

	expect := func(want string) {
		t.Helper()
		if got := c.line(); got != want {
			t.Fatalf("pipeline: got %q, want %q", got, want)
		}
	}
	// Multiget: VALUE blocks in request key order C, A, B.
	expect(fmt.Sprintf("VALUE %s 0 2", kC))
	expect("vc")
	expect(fmt.Sprintf("VALUE %s 0 2", kA))
	expect("va")
	expect(fmt.Sprintf("VALUE %s 0 2", kB))
	expect("vb")
	expect("END")
	expect("STORED")  // set px1
	expect("DELETED") // delete kA
	// gets after delete: kA gone, kB present with a cas token.
	if got := c.line(); !strings.HasPrefix(got, fmt.Sprintf("VALUE %s 0 2 ", kB)) {
		t.Fatalf("gets: got %q, want VALUE %s with cas", got, kB)
	}
	expect("vb")
	expect("END")
	expect("OK") // sync fanned out to all nodes
	expect("VALUE px2 0 2")
	expect("v2")
	expect("END")
}

// TestProxyKillRevive crash-stops one node under a live proxy: requests
// for its keys fail with a non-binding SERVER_ERROR while it is down
// (never a resend), and after an in-place Revive the proxy redials and
// serves the node's sync-acked (hence durable) data again.
func TestProxyKillRevive(t *testing.T) {
	nodes, px := startCluster(t, 3, true, 2*time.Second)
	keys := keysOnDistinctNodes(px.Ring(), 3)

	c := dialT(t, px.Addr().String())
	if got := c.cmd("durability sync\r\n"); got != "OK" {
		t.Fatalf("durability: %q", got)
	}
	for i, k := range keys {
		c.set(k, fmt.Sprintf("v%d", i))
	}

	victim := px.Ring().Node(keys[1])
	if err := nodes[victim].Kill(pmem.CrashDropAll); err != nil {
		t.Fatal(err)
	}

	// The victim's key fails fast (the severed connection errors), other
	// nodes keep serving. A fresh proxy connection pays the dial-retry
	// window instead; either way the answer is a SERVER_ERROR, never a
	// wrong value.
	c.write("get " + keys[1] + "\r\n")
	if got := c.line(); !strings.HasPrefix(got, "SERVER_ERROR node ") {
		t.Fatalf("dead node get: %q, want SERVER_ERROR node ...", got)
	}
	if v, ok := c.get(keys[0]); !ok || v != "v0" {
		t.Fatalf("live node get = %q,%v", v, ok)
	}

	if _, err := nodes[victim].Revive(); err != nil {
		t.Fatal(err)
	}
	go nodes[victim].Serve()

	// Same client connection: the proxy redials the revived node and the
	// sync-acked value must have survived the crash.
	if v, ok := c.get(keys[1]); !ok || v != "v1" {
		t.Fatalf("revived node get = %q,%v (sync-acked write lost?)", v, ok)
	}
}

// TestProxyBroadcastFailsOnDeadNode: flush_all through a cluster with a
// dead node must refuse (SERVER_ERROR), not half-flush and ack.
func TestProxyBroadcastFailsOnDeadNode(t *testing.T) {
	nodes, px := startCluster(t, 2, true, 300*time.Millisecond)
	c := dialT(t, px.Addr().String())
	c.set("bc-key", "v")
	if err := nodes[1].Kill(pmem.CrashDropAll); err != nil {
		t.Fatal(err)
	}
	c.write("flush_all\r\n")
	if got := c.line(); !strings.HasPrefix(got, "SERVER_ERROR node ") {
		t.Fatalf("flush_all with dead node: %q", got)
	}
}

// TestProxyFlushAllNoreply pipelines flush_all noreply between normal
// commands: the backends send no response to it, so the proxy must not
// wait for (or steal) one — every later response must stay on its own
// command.
func TestProxyFlushAllNoreply(t *testing.T) {
	_, px := startCluster(t, 2, false, time.Second)
	c := dialT(t, px.Addr().String())
	c.set("fa-key", "v")
	c.write("flush_all noreply\r\nget fa-key\r\nversion\r\n")
	if got := c.line(); got != "END" {
		t.Fatalf("get after flush_all noreply: %q, want END", got)
	}
	if got := c.line(); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version after flush_all noreply: %q", got)
	}
	// The connection is still usable for writes.
	c.set("fa-key2", "w")
	if v, ok := c.get("fa-key2"); !ok || v != "w" {
		t.Fatalf("set after flush_all noreply = %q,%v", v, ok)
	}
}

// TestProxyMultiGetDeadNodeDrainsHealthy kills one node of three and
// issues a cross-node get spanning all of them, pipelined ahead of
// single-node gets. The cross-node get fails whole (SERVER_ERROR), but
// the healthy nodes' VALUE/END responses to it must be drained — the
// follow-up gets must see their own responses, not stale blocks.
func TestProxyMultiGetDeadNodeDrainsHealthy(t *testing.T) {
	nodes, px := startCluster(t, 3, true, 300*time.Millisecond)
	keys := keysOnDistinctNodes(px.Ring(), 3)
	c := dialT(t, px.Addr().String())
	for i, k := range keys {
		c.set(k, fmt.Sprintf("v%d", i))
	}
	victim := px.Ring().Node(keys[1])
	if err := nodes[victim].Kill(pmem.CrashDropAll); err != nil {
		t.Fatal(err)
	}
	// Pipelined behind the doomed get: overwrite keys[2] and read it back.
	// If the failed get left keys[2]'s node's stale VALUE/END unread, the
	// set's ack slot would collect that stale VALUE line instead of STORED.
	c.write(fmt.Sprintf("get %s %s %s\r\nset %s 0 0 2\r\nw2\r\nget %s\r\n",
		keys[0], keys[1], keys[2], keys[2], keys[2]))
	if got := c.line(); !strings.HasPrefix(got, "SERVER_ERROR node ") {
		t.Fatalf("cross-node get with dead node: %q, want SERVER_ERROR node ...", got)
	}
	expect := func(want string) {
		t.Helper()
		if got := c.line(); got != want {
			t.Fatalf("after failed cross-node get: got %q, want %q", got, want)
		}
	}
	expect("STORED")
	expect(fmt.Sprintf("VALUE %s 0 2", keys[2]))
	expect("w2")
	expect("END")
	if v, ok := c.get(keys[0]); !ok || v != "v0" {
		t.Fatalf("healthy node get = %q,%v", v, ok)
	}
}

// TestProxyOversizeStoreKeepsConnection: a store whose declared body
// exceeds the proxy's buffering bound is swallowed and refused with
// SERVER_ERROR, keeping the connection usable (noreply swallows the
// error line too).
func TestProxyOversizeStoreKeepsConnection(t *testing.T) {
	_, px := startCluster(t, 1, false, time.Second)
	c := dialT(t, px.Addr().String())
	n := memtext.MaxBodyLen - 1 // n+2 > MaxBodyLen
	body := strings.Repeat("x", n) + "\r\n"
	c.write(fmt.Sprintf("set big 0 0 %d\r\n", n))
	c.write(body)
	if got := c.line(); got != "SERVER_ERROR object too large for cache" {
		t.Fatalf("oversize set: %q", got)
	}
	c.write(fmt.Sprintf("set big 0 0 %d noreply\r\n", n))
	c.write(body)
	if got := c.cmd("version\r\n"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version after oversize sets: %q", got)
	}
	c.set("small", "ok")
	if v, ok := c.get("small"); !ok || v != "ok" {
		t.Fatalf("set after oversize = %q,%v", v, ok)
	}
}

// TestProxyFramesLikeTheServer sends one byte stream straight to a node
// and through the proxy and requires the same responses: both frame
// with internal/memtext. Two shapes they once framed differently: a
// storage header with a malformed flags, exptime or cas field (the
// proxy forwarded it with its body; the node refused the header and ran
// the body as a command, so one request drew two responses and every
// later response on that link answered the command before it), and a
// line of exactly MaxLineLen bytes (served by the node, refused as too
// long by the proxy).
func TestProxyFramesLikeTheServer(t *testing.T) {
	nodes, px := startCluster(t, 1, false, time.Second)
	longest := "get k" + strings.Repeat(" ", memtext.MaxLineLen-len("get k\r")) + "\r\n"
	script := "set k notanumber 0 1\r\nx\r\n" +
		"set k 0 soon 1\r\nx\r\n" +
		"cas k 0 0 1 notacas\r\nx\r\n" +
		longest +
		"set k 0 0 1\r\ny\r\n" +
		"get k\r\n"
	want := []string{
		"CLIENT_ERROR bad flags", "ERROR",
		"CLIENT_ERROR bad exptime", "ERROR",
		"CLIENT_ERROR bad cas value", "ERROR",
		"END",
		"STORED",
		"VALUE k 0 1", "y", "END",
	}
	for _, ep := range []struct{ name, addr string }{
		{"node", nodes[0].Addr().String()},
		{"proxy", px.Addr().String()},
	} {
		c := dialT(t, ep.addr)
		c.write(script)
		for i, w := range want {
			if got := c.line(); got != w {
				t.Fatalf("%s: response line %d = %q, want %q", ep.name, i, got, w)
			}
		}
		c.write("flush_all\r\n")
		if got := c.line(); got != "OK" {
			t.Fatalf("%s: flush_all: %q", ep.name, got)
		}
	}
}

// --- rebalance ------------------------------------------------------------

func rebalanceConfig() pool.Config {
	return pool.Config{
		Shards: 2,
		Core:   core.Config{ArenaSize: 1 << 22, MaxThreads: 2},
	}
}

func TestRebalance(t *testing.T) {
	dir := t.TempDir()
	cfg := rebalanceConfig()
	img0 := filepath.Join(dir, "n0.pool")
	img1 := filepath.Join(dir, "n1.pool")

	// Seed node 0's image with every key.
	p, err := pool.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New(kvstore.NewShardedBackend(p, 256), 0)
	const nkeys = 60
	for i := 0; i < nkeys; i++ {
		if err := store.Set(0, fmt.Sprintf("rb%03d", i), []byte(fmt.Sprintf("val%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Save(0, img0); err != nil {
		t.Fatal(err)
	}
	p.Close()

	newNodes := []NodeImage{
		{Name: "10.0.0.1:11211", Path: img0},
		{Name: "10.0.0.2:11211", Path: img1},
	}
	st, err := Rebalance(newNodes, 0, 256, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != nkeys {
		t.Errorf("stats saw %d keys, want %d", st.Keys, nkeys)
	}
	if len(st.Created) != 1 || st.Created[0] != img1 {
		t.Errorf("created = %v, want [%s]", st.Created, img1)
	}
	ring := NewRing([]string{newNodes[0].Name, newNodes[1].Name}, 0)
	if st.Moved == 0 {
		t.Error("no keys moved to the new node")
	}

	// Reopen both images and check every key lives exactly where the
	// ring says, with its value intact.
	total := 0
	for ni, n := range newNodes {
		p, chunks, loaded, err := pool.Open(n.Path, cfg, 2)
		if err != nil || !loaded {
			t.Fatalf("reopen %s: loaded=%v err=%v", n.Path, loaded, err)
		}
		s, err := kvstore.RecoverShardedStore(p, 256, chunks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range s.Keys(0) {
			total++
			if ring.NodeName(k) != n.Name {
				t.Errorf("key %q on node %d, ring owner is %s", k, ni, ring.NodeName(k))
			}
			want := "val" + strings.TrimPrefix(k, "rb")
			if v, ok := s.Get(0, k); !ok || string(v) != want {
				t.Errorf("key %q = %q,%v want %q", k, v, ok, want)
			}
		}
		p.Close()
	}
	if total != nkeys {
		t.Errorf("images hold %d keys total, want %d", total, nkeys)
	}
}

func TestAdoptImage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "old.pool")
	dst := filepath.Join(dir, "new.pool")
	if err := os.WriteFile(src, []byte("image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AdoptImage(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Fatal("source image still present")
	}
	if b, err := os.ReadFile(dst); err != nil || string(b) != "image" {
		t.Fatalf("moved image = %q, %v", b, err)
	}
	// Refuses to clobber.
	if err := os.WriteFile(src, []byte("other"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AdoptImage(src, dst); err == nil {
		t.Fatal("adopt clobbered an existing image")
	}
}
