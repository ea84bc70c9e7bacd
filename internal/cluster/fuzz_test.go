package cluster

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"montage/internal/memtext"
	"montage/internal/server"
)

// The fuzz fixture is one real backend plus a proxy over it, shared
// across iterations: the interesting surface is the proxy's client-side
// parser and its framing against the backend stream, not Montage
// startup.
var (
	fuzzOnce  sync.Once
	fuzzProxy *Proxy
)

func getFuzzProxy(f *testing.F) *Proxy {
	fuzzOnce.Do(func() {
		srv, err := server.New(server.Config{
			ArenaSize:   1 << 24,
			Buckets:     256,
			MaxConns:    8,
			EpochLength: time.Millisecond,
			MaxItemSize: 4 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		if _, err := srv.Listen(); err != nil {
			f.Fatal(err)
		}
		go srv.Serve()
		px, err := NewProxy(Config{
			Nodes:          []string{srv.Addr().String()},
			RetryWindow:    500 * time.Millisecond,
			BackendTimeout: 5 * time.Second,
		})
		if err != nil {
			f.Fatal(err)
		}
		fuzzProxy = px
	})
	return fuzzProxy
}

// FuzzProxyProtocol is the server protocol fuzz ported to run through
// the proxy: arbitrary client bytes must neither panic nor hang the
// proxied connection, whatever they do to the backend link. The seed
// corpus carries the server test's frame damage plus proxy-specific
// shapes (cross-command pipelines, broadcast and durability
// extensions, multigets).
func FuzzProxyProtocol(f *testing.F) {
	seeds := []string{
		"set k 0 0 5\r\nhello\r\nget k\r\n",
		"set k 0 0 5\r\nhel",                              // torn body
		"set k 0 0 99999999\r\n",                          // oversized declared length
		"set k 0 0 2147483647\r\nx\r\n",                   // over body cap: swallowed in chunks, never allocated whole
		"set k 0 0 -1\r\nx\r\n",                           // negative length
		"set k 0 0 notanum\r\nx\r\n",                      // bad number
		"\x00\x01\x02 bad magic\r\n",                      // binary-protocol magic byte
		"get\r\nget \r\n gets\r\n",                        // missing keys
		"get " + strings.Repeat("k", 300) + "\r\n",        // oversized key
		strings.Repeat("a ", memtext.MaxLineLen) + "\r\n", // unframeable line
		"cas k 0 0 1 notacas\r\nx\r\n",                    // bad cas token
		"set k 0 0 2\r\nvvNOPE\r\n",                       // missing CRLF terminator
		"delete\r\ndelete k extra args here\r\n",          // bad arity
		"touch k\r\ntouch k notanum\r\n",                  // bad touch args
		"durability warp-speed\r\nflush_all x\r\n",        // bad extension args
		"quit\r\nset k 0 0 1\r\nx\r\n",                    // commands after quit
		"set k 0 0 1 noreply\r\nx\r\nbogus\r\n",           // noreply then junk
		"\r\n\r\n\r\nversion\r\n",                         // blank lines
		"stats\r\nversion\r\nverbosity 1 noreply\r\n",
		"get a b c d\r\nset a 0 0 1\r\nz\r\nsync\r\n", // multiget + broadcast
		"durability epoch-wait\r\nset k 0 0 1\r\nv\r\nflush_all\r\n",
		"flush_all noreply\r\nget k\r\nversion\r\n", // responseless broadcast must not steal later responses
		"flush_all 1 noreply\r\nsync\r\n",
		"crash\r\ncrash partial\r\n", // not routable through the proxy
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	px := getFuzzProxy(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		cl, sv := net.Pipe()
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, cl)
			close(drained)
		}()
		go func() {
			cl.Write(data)
			cl.Close()
		}()
		done := make(chan struct{})
		go func() {
			px.serveConn(sv, 0)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("proxy serveConn hung")
		}
		<-drained
	})
}
