// Package workload defines the benchmark's four workloads and generates
// their inputs. It imports nothing from the repository: the op streams,
// keys and values a seed produces must stay identical across commits,
// or two commits would be measured on different inputs.
package workload

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Kind is an operation type. Served workloads use Get and Set; the
// library workload uses Get, Insert and Remove.
type Kind uint8

const (
	Get Kind = iota
	Set
	Insert
	Remove
	NumKinds
)

func (k Kind) String() string {
	return [...]string{"get", "set", "insert", "remove"}[k]
}

// Spec is one workload. The sizes are fixed here, not flags: a
// benchmark whose shape can be tuned per run cannot be compared across
// runs.
type Spec struct {
	Name string
	Why  string
	// Served workloads drive a montage-serve child over TCP; the library
	// workload drives montage.HashMap in a child process.
	Served bool
	// Ack is the served durability-ack mode.
	Ack string
	// Keys is the key range; Preload of them exist before warm-up
	// (ids 0..Keys-1 with id%(Keys/Preload)==0).
	Keys, Preload    int
	KeyLen, ValueLen int
	// Zipf selects zipfian(0.99) key choice; otherwise uniform.
	Zipf bool
	// Mix gives the weight of each Kind.
	Mix [NumKinds]int
	// Conns load connections (or worker goroutines). A closed loop keeps
	// Depth requests outstanding per connection; RatePerS > 0 makes it an
	// open loop at that total rate on a 1 ms tick schedule.
	Conns, Depth, RatePerS int
	Arena, Buckets         int
}

// Specs lists the workloads in the order they run.
var Specs = []Spec{
	{
		Name:   "serve-ycsba-buffered",
		Why:    "YCSB-A (paper Fig. 10) through the whole TCP stack with persistence off the critical path; zipfian keys hit write coalescing",
		Served: true, Ack: "buffered",
		Keys: 100000, Preload: 100000, KeyLen: 16, ValueLen: 100, Zipf: true,
		Mix:   [NumKinds]int{Get: 50, Set: 50},
		Conns: 2, Depth: 4, Arena: 256 << 20, Buckets: 4096,
	},
	{
		Name:   "serve-set-sync",
		Why:    "sync-acked sets put epoch advance, drain and fence on every request's critical path; uniform keys defeat coalescing",
		Served: true, Ack: "sync",
		Keys: 10000, Preload: 10000, KeyLen: 16, ValueLen: 100,
		Mix:   [NumKinds]int{Get: 10, Set: 90},
		Conns: 2, Depth: 1, Arena: 256 << 20, Buckets: 4096,
	},
	{
		Name:   "serve-set-epochwait",
		Why:    "open loop at a fixed rate with epoch-wait acks: latency is set by epoch cadence and the parking lot, not by CPU",
		Served: true, Ack: "epoch-wait",
		Keys: 100000, Preload: 100000, KeyLen: 16, ValueLen: 100,
		Mix:   [NumKinds]int{Get: 30, Set: 70},
		Conns: 2, RatePerS: 4000, Arena: 256 << 20, Buckets: 4096,
	},
	{
		Name: "lib-hashmap-mixed",
		Why:  "paper Fig. 8b point (1 thread, get:insert:remove 2:1:1, 1 KB values) with no sockets: engine and allocator cost undiluted",
		Keys: 200000, Preload: 100000, KeyLen: 32, ValueLen: 1024,
		Mix:   [NumKinds]int{Get: 2, Insert: 1, Remove: 1},
		Conns: 1, Arena: 256 << 20, Buckets: 1 << 17,
	},
}

// ByName returns the named workload.
func ByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Preloaded reports whether key id exists before warm-up.
func (s Spec) Preloaded(id int) bool { return id%(s.Keys/s.Preload) == 0 }

// UserBytes is what a user stores per live item.
func (s Spec) UserBytes() int { return s.KeyLen + s.ValueLen }

// rng is splitmix64: tiny, fast, and fixed here so that no toolchain or
// repository change can alter the streams.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks in [0,n) with YCSB's zipfian generator (Gray et al.).
type zipf struct {
	n                float64
	theta, alpha     float64
	zetan, eta, half float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	return min(int(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), int(z.n)-1)
}

// Op is one generated operation on key ID. For a mutation, Version is
// the version the key holds afterwards; for a Get it is the version the
// reply must carry. Live is the key's expected presence before the op
// (so Insert must report Live==false as "inserted", Remove Live==true as
// "removed", and Get must hit exactly when Live).
type Op struct {
	Kind    Kind
	ID      int
	Version uint32
	Live    bool
}

// Stream is one connection's deterministic op sequence and, because a
// connection's history is sequential, also its shadow model: connection
// c of n owns the keys with id%n == c, so nobody else changes them.
type Stream struct {
	spec        Spec
	conn, conns int
	local       int // keys owned by this connection
	r           rng
	z           *zipf
	cum         [NumKinds]int
	total       int
	ver         []uint32
	live        []bool
}

// NewStream returns connection conn's stream for the seed, with the
// shadow in its post-preload state.
func NewStream(spec Spec, seed uint64, conn int) *Stream {
	s := &Stream{spec: spec, conn: conn, conns: spec.Conns, local: spec.Keys / spec.Conns}
	s.r = rng(seed*0x100000001b3 + uint64(conn)*0x9e3779b1 + 1)
	if spec.Zipf {
		s.z = newZipf(s.local, 0.99)
	}
	for k, w := range spec.Mix {
		s.total += w
		s.cum[k] = s.total
	}
	s.ver = make([]uint32, s.local)
	s.live = make([]bool, s.local)
	for j := range s.ver {
		if spec.Preloaded(s.ID(j)) {
			s.ver[j], s.live[j] = 1, true
		}
	}
	return s
}

// ID maps a local key index to its global id.
func (s *Stream) ID(local int) int { return local*s.conns + s.conn }

// Local is the number of keys this connection owns.
func (s *Stream) Local() int { return s.local }

// Next generates the next op and applies it to the shadow.
func (s *Stream) Next() Op {
	w := s.r.intn(s.total)
	var j int
	if s.z != nil {
		j = s.z.rank(s.r.float())
	} else {
		j = s.r.intn(s.local)
	}
	kind := Get
	for kind < NumKinds-1 && w >= s.cum[kind] {
		kind++
	}
	op := Op{Kind: kind, ID: s.ID(j), Live: s.live[j]}
	switch kind {
	case Set:
		s.ver[j]++
		s.live[j] = true
	case Insert:
		if !s.live[j] {
			s.ver[j]++
			s.live[j] = true
		}
	case Remove:
		s.live[j] = false
	}
	op.Version = s.ver[j]
	return op
}

// State reports the shadow's view of local key index j.
func (s *Stream) State(j int) (version uint32, live bool) { return s.ver[j], s.live[j] }

// LiveCount is the number of keys the shadow holds present.
func (s *Stream) LiveCount() int {
	n := 0
	for _, l := range s.live {
		if l {
			n++
		}
	}
	return n
}

const digits = "0123456789"

// AppendKey appends key id as 'k' plus zero-padded decimal, keyLen bytes.
func AppendKey(dst []byte, id, keyLen int) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, keyLen)...)
	b := dst[n:]
	for i := keyLen - 1; i > 0; i-- {
		b[i] = digits[id%10]
		id /= 10
	}
	b[0] = 'k'
	return dst
}

// headLen is the self-describing prefix of a value: "id version ".
const headLen = 22

// padding fills the rest of a value; comparing and copying it in blocks
// keeps value checks far cheaper than the operations they check.
var padding = bytes.Repeat([]byte{'x'}, 1024)

// AppendValue appends the size-byte value for (id, version): both
// numbers in 10 decimal digits, then padding, so any reply can be
// checked without remembering the bytes sent.
func AppendValue(dst []byte, id int, version uint32, size int) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, size)...)
	b := dst[n:]
	for pad := b[headLen:]; len(pad) > 0; pad = pad[copy(pad, padding):] {
	}
	putDec(b[0:10], uint64(id))
	b[10] = ' '
	putDec(b[11:21], uint64(version))
	b[21] = ' '
	return dst
}

func putDec(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v%10]
		v /= 10
	}
}

// ParseValue decodes a value, reporting ok only for a well-formed value
// of the right size.
func ParseValue(b []byte, size int) (id int, version uint32, ok bool) {
	if len(b) != size || size < headLen || b[10] != ' ' || b[21] != ' ' {
		return 0, 0, false
	}
	for pad := b[headLen:]; len(pad) > 0; pad = pad[min(len(pad), len(padding)):] {
		if !bytes.Equal(pad[:min(len(pad), len(padding))], padding[:min(len(pad), len(padding))]) {
			return 0, 0, false
		}
	}
	i, ok1 := getDec(b[0:10])
	v, ok2 := getDec(b[11:21])
	return int(i), uint32(v), ok1 && ok2
}

func getDec(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// AppendRequest appends the memcached-text request for op.
func AppendRequest(dst []byte, spec Spec, op Op) []byte {
	if op.Kind == Get {
		dst = append(dst, "get "...)
		dst = AppendKey(dst, op.ID, spec.KeyLen)
		return append(dst, '\r', '\n')
	}
	dst = append(dst, "set "...)
	dst = AppendKey(dst, op.ID, spec.KeyLen)
	dst = append(dst, " 0 0 "...)
	dst = strconv.AppendInt(dst, int64(spec.ValueLen), 10)
	dst = append(dst, '\r', '\n')
	dst = AppendValue(dst, op.ID, op.Version, spec.ValueLen)
	return append(dst, '\r', '\n')
}
