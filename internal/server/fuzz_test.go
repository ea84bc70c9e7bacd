package server

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"montage/internal/memtext"
)

// fuzzServer is shared across fuzz iterations: building a Montage
// system per input would dominate the run.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func getFuzzServer(f *testing.F) *Server {
	fuzzOnce.Do(func() {
		s, err := New(Config{
			ArenaSize:   1 << 24,
			Buckets:     256,
			MaxConns:    4,
			EpochLength: time.Millisecond,
			MaxItemSize: 4 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv = s
	})
	return fuzzSrv
}

// FuzzProtocol throws arbitrary bytes at a connection and requires only
// that the server neither panics nor hangs. The seed corpus covers the
// interesting frame damage: torn lines, truncated and oversized bodies,
// bad magic, bad numbers, embedded NULs, and missing terminators.
func FuzzProtocol(f *testing.F) {
	seeds := []string{
		"set k 0 0 5\r\nhello\r\nget k\r\n",
		"set k 0 0 5\r\nhel",                              // torn body
		"set k 0 0 99999999\r\n",                          // oversized declared length
		"set k 0 0 2147483647\r\nx\r\n",                   // over discard cap: must close, not allocate
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	srv := getFuzzServer(f)

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
			srv.serveConn(sv)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn hung")
		}
		<-drained
	})
}

// FuzzTokenizer pins the zero-alloc tokenizer to bytes.Fields: both
// must produce identical fields for every input, so a command line
// dispatches the same however it is split.
func FuzzTokenizer(f *testing.F) {
	seeds := []string{
		"set key 0 0 5",
		"get a b c",
		"  leading  and   trailing  ",
		"\ttabs\tand\vvtabs\fand\ffeeds",
		"", " ", "\t", "x",
		"unicode nbsp is not ascii space",
		"nul\x00byte mid token",
		"very-long-" + strings.Repeat("k", 300) + " tail",
		"mixed \r embedded cr",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want := bytes.Fields(line)
		got := memtext.AppendFields(nil, line)
		if len(got) != len(want) {
			t.Fatalf("field count: tokenizer %d, bytes.Fields %d (input %q)", len(got), len(want), line)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("field %d: tokenizer %q, bytes.Fields %q (input %q)", i, got[i], want[i], line)
			}
		}
	})
}
