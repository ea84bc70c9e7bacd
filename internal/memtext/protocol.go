package memtext

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

// Framing limits. The server frames every request with these: a client
// that disagrees about where a request ends desynchronizes every
// response behind it.
const (
	// MaxLineLen bounds one command line, its LF excluded (a CR before
	// the LF counts). A longer line cannot be reframed reliably, so it
	// closes the connection.
	MaxLineLen = 8192
	// MaxBodyLen bounds an item body, CRLF included, that an endpoint
	// will swallow or buffer to stay framed; a larger declared length
	// is never allocated.
	MaxBodyLen = 16 << 20
)

// Responses shared by every endpoint.
var (
	RespOK           = []byte("OK\r\n")
	RespEnd          = []byte("END\r\n")
	RespError        = []byte("ERROR\r\n")
	RespLineTooLong  = []byte("SERVER_ERROR line too long\r\n")
	RespTooLarge     = []byte("SERVER_ERROR object too large for cache\r\n")
	RespTooManyConns = []byte("SERVER_ERROR too many connections\r\n")
	RespBadChunk     = []byte("CLIENT_ERROR bad data chunk\r\n")
	RespBadFormat    = []byte("CLIENT_ERROR bad command line format\r\n")
	RespBadKey       = []byte("CLIENT_ERROR bad key\r\n")
)

// ClientError renders a CLIENT_ERROR response line.
func ClientError(msg string) []byte {
	return []byte("CLIENT_ERROR " + msg + "\r\n")
}

// ServerError renders a SERVER_ERROR response line.
func ServerError(msg string) []byte {
	return []byte("SERVER_ERROR " + msg + "\r\n")
}

// ErrLineTooLong reports a command line longer than MaxLineLen.
var ErrLineTooLong = errors.New("memtext: line too long")

// CutLine frames the command line at the front of buf: it returns the
// line without its LF (or CRLF) and the bytes it spans, terminator
// included. n == 0 means the line is incomplete. A line longer than
// MaxLineLen — complete or not — is ErrLineTooLong. The line aliases buf.
func CutLine(buf []byte) (line []byte, n int, err error) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		if len(buf) > MaxLineLen {
			return nil, 0, ErrLineTooLong
		}
		return nil, 0, nil
	}
	if i > MaxLineLen {
		return nil, 0, ErrLineTooLong
	}
	line = buf[:i]
	if i > 0 && line[i-1] == '\r' {
		line = line[:i-1]
	}
	return line, i + 1, nil
}

// NewReader returns a reader whose buffer holds the longest line
// CutLine accepts, so ReadLine over it frames exactly as CutLine does.
func NewReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, MaxLineLen+1)
}

// ReadLine reads one line from br, framed as CutLine frames it, and
// returns it with the bytes consumed. It frames any line shorter than
// br's buffer; a reader from NewReader holds every line CutLine
// accepts. The line aliases br's buffer until the next read.
func ReadLine(br *bufio.Reader) ([]byte, int, error) {
	raw, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return nil, len(raw), ErrLineTooLong
	}
	if err != nil {
		return nil, len(raw), err
	}
	line, _, err := CutLine(raw)
	return line, len(raw), err
}

// HasNoreply reports whether a command's last argument is "noreply".
func HasNoreply(args [][]byte) bool {
	return len(args) > 0 && string(args[len(args)-1]) == "noreply"
}

// Storage is the parsed header of a storage command (set, add,
// replace, cas). The key is returned separately, borrowed.
type Storage struct {
	Flags   uint32
	Exptime int64
	Bytes   int    // declared body length, CRLF excluded
	CAS     uint64 // cas command only
	Noreply bool
}

// Storage-header parse errors. Static values so the error path does not
// allocate; the messages are the CLIENT_ERROR texts.
var (
	ErrBadFormat  = errors.New("bad command line format")
	ErrBadKey     = errors.New("bad key")
	ErrBadFlags   = errors.New("bad flags")
	ErrBadExptime = errors.New("bad exptime")
	ErrBadLength  = errors.New("bad data length")
	ErrBadCAS     = errors.New("bad cas value")
)

// ParseStorage parses "<key> <flags> <exptime> <bytes> [casid]
// [noreply]" (verb already stripped) into h and returns the key,
// borrowed from fields. On error the declared length is not to be
// trusted: the caller stays on the line boundary and lets any body
// bytes fail as commands.
func ParseStorage(fields [][]byte, wantCAS bool, h *Storage) ([]byte, error) {
	*h = Storage{}
	n := 4
	if wantCAS {
		n = 5
	}
	if len(fields) == n+1 && string(fields[n]) == "noreply" {
		h.Noreply = true
		fields = fields[:n]
	}
	if len(fields) != n {
		return nil, ErrBadFormat
	}
	key := fields[0]
	if !ValidKey(key) {
		return nil, ErrBadKey
	}
	flags, ok := ParseUint(fields[1], 32)
	if !ok {
		return nil, ErrBadFlags
	}
	h.Flags = uint32(flags)
	if h.Exptime, ok = ParseInt(fields[2]); !ok {
		return nil, ErrBadExptime
	}
	sz, ok := ParseUint(fields[3], 31)
	if !ok {
		return nil, ErrBadLength
	}
	h.Bytes = int(sz)
	if wantCAS {
		if h.CAS, ok = ParseUint(fields[4], 64); !ok {
			return nil, ErrBadCAS
		}
	}
	return key, nil
}
