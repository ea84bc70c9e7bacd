package workload

import (
	"bytes"
	"testing"
)

// requests renders the first n requests of one connection's stream.
func requests(spec Spec, seed uint64, conn, n int) []byte {
	s := NewStream(spec, seed, conn)
	var out []byte
	for i := 0; i < n; i++ {
		out = AppendRequest(out, spec, s.Next())
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, spec := range Specs {
		if !spec.Served {
			continue
		}
		for conn := 0; conn < spec.Conns; conn++ {
			a, b := requests(spec, 7, conn, 5000), requests(spec, 7, conn, 5000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: same seed gave different request bytes", spec.Name, conn)
			}
			if bytes.Equal(a, requests(spec, 8, conn, 5000)) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", spec.Name, conn)
			}
		}
	}
}

func TestStreamOwnsItsKeysAndTracksThem(t *testing.T) {
	for _, spec := range Specs {
		for conn := 0; conn < spec.Conns; conn++ {
			s := NewStream(spec, 3, conn)
			type state struct {
				version uint32
				live    bool
			}
			model := map[int]state{}
			for j := 0; j < s.Local(); j++ {
				v, l := s.State(j)
				if l != spec.Preloaded(s.ID(j)) {
					t.Fatalf("%s: key %d preloaded=%v but shadow says live=%v", spec.Name, s.ID(j), spec.Preloaded(s.ID(j)), l)
				}
				model[s.ID(j)] = state{v, l}
			}
			var kinds [NumKinds]int
			for i := 0; i < 20000; i++ {
				op := s.Next()
				kinds[op.Kind]++
				if op.ID%spec.Conns != conn || op.ID >= spec.Keys {
					t.Fatalf("%s conn %d drew key %d", spec.Name, conn, op.ID)
				}
				was := model[op.ID]
				if op.Live != was.live {
					t.Fatalf("%s op %d: Live=%v, model says %v", spec.Name, i, op.Live, was.live)
				}
				switch op.Kind {
				case Get:
					if op.Version != was.version {
						t.Fatalf("%s op %d: get expects version %d, model has %d", spec.Name, i, op.Version, was.version)
					}
				case Set:
					model[op.ID] = state{was.version + 1, true}
				case Insert:
					if !was.live {
						model[op.ID] = state{was.version + 1, true}
					}
				case Remove:
					model[op.ID] = state{was.version, false}
				}
				if op.Kind != Get && op.Version != model[op.ID].version {
					t.Fatalf("%s op %d: %s leaves version %d, model has %d", spec.Name, i, op.Kind, op.Version, model[op.ID].version)
				}
			}
			for k, w := range spec.Mix {
				if (w == 0) != (kinds[k] == 0) {
					t.Errorf("%s: kind %s has weight %d but was drawn %d times", spec.Name, Kind(k), w, kinds[k])
				}
			}
		}
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	spec, err := ByName("serve-ycsba-buffered")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(spec, 1, 0)
	hits := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		hits[s.Next().ID]++
	}
	// Under zipfian(0.99) over 50 000 keys the hottest key draws about 9 %
	// of the requests; uniform would give it 0.002 %.
	if hot := hits[s.ID(0)]; hot < n/20 {
		t.Errorf("hottest key drew %d of %d requests; the stream is not zipfian", hot, n)
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{22, 100, 1024, 3000} {
		v := AppendValue(nil, 123456, 789, size)
		if len(v) != size {
			t.Fatalf("size %d: value has %d bytes", size, len(v))
		}
		id, version, ok := ParseValue(v, size)
		if !ok || id != 123456 || version != 789 {
			t.Errorf("size %d: parsed (%d, %d, %v)", size, id, version, ok)
		}
		if size > headLen {
			v[size-1] = 'y'
			if _, _, ok := ParseValue(v, size); ok {
				t.Errorf("size %d: damaged padding was accepted", size)
			}
		}
		if _, _, ok := ParseValue(v[:size-1], size); ok {
			t.Errorf("size %d: short value was accepted", size)
		}
	}
	if k := AppendKey(nil, 42, 16); string(k) != "k000000000000042" {
		t.Errorf("key = %q", k)
	}
}
