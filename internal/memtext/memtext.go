// Package memtext is the memcached text protocol's vocabulary, held
// once: line framing (in place over a read buffer, or over a
// bufio.Reader), the framing limits, an in-place field tokenizer over a
// borrowed line, integer parsing over byte slices, key validation, the
// storage-command header, and the responses every endpoint shares. The
// server frames requests with it, and the load generator and the chaos
// harness's wire client frame the server's responses with it, so both
// ends of the wire agree on where a line ends.
//
// Everything here operates on borrowed []byte views into a caller's
// read buffer. Nothing allocates on the steady-state path: AppendFields
// reuses the caller's token slice, and String produces an unsafe
// aliasing string that must be cloned before it is retained anywhere.
package memtext

import (
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// MaxKeyLen is the memcached key-length limit in bytes.
const MaxKeyLen = 250

// asciiSpace mirrors the table bytes.Fields uses for the ASCII fast
// path; the slow path below handles multi-byte Unicode space so the
// split is byte-for-byte identical to bytes.Fields on arbitrary input.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// AppendFields appends the white-space-separated fields of line to dst
// and returns the extended slice. Split positions match bytes.Fields
// exactly (including exotic Unicode space), so command dispatch is
// bit-identical to a []string split; the returned subslices alias line
// and are valid only until the backing read buffer is reused.
func AppendFields(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		c := line[i]
		if c < utf8.RuneSelf {
			if asciiSpace[c] {
				i++
				continue
			}
		} else if r, w := utf8.DecodeRune(line[i:]); unicode.IsSpace(r) {
			i += w
			continue
		}
		start := i
		for i < len(line) {
			c := line[i]
			if c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
				continue
			}
			r, w := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += w
		}
		dst = append(dst, line[start:i])
	}
	return dst
}

// ParseUint parses an unsigned base-10 integer that must fit in
// bitSize bits (≤ 64). Semantics match strconv.ParseUint(s, 10,
// bitSize): no sign prefix, leading zeros allowed, overflow rejected.
func ParseUint(b []byte, bitSize int) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var limit uint64
	if bitSize >= 64 {
		limit = ^uint64(0)
	} else {
		limit = 1<<uint(bitSize) - 1
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// ParseInt parses a signed base-10 int64, matching
// strconv.ParseInt(s, 10, 64): optional +/- prefix, overflow rejected.
func ParseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	limit := uint64(1)<<63 - 1
	if neg {
		limit = 1 << 63
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// ValidKey enforces memcached's key rules: 1..MaxKeyLen bytes, no
// control characters or spaces (anything ≤ ' ' or DEL).
func ValidKey(b []byte) bool {
	if len(b) == 0 || len(b) > MaxKeyLen {
		return false
	}
	for _, c := range b {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// String returns a string view of b without copying. The result
// aliases b's backing array: it is only valid while that array is
// untouched, and any layer that retains it (a map key, a node field)
// must strings.Clone it first. This is the "borrow until the kvstore
// boundary" contract from DESIGN §14.
func String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
