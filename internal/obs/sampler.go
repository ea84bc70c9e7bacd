package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Sampler periodically writes a Recorder's snapshot as one JSON object
// per line (JSONL) to a writer — the "background interval-sampled JSON
// metrics" shape of the Weaviate benchmarker. Arbitrary extra records
// (e.g. per-benchmark-row stats) can be interleaved with Record; all
// writes share one lock so lines never interleave mid-object.
type Sampler struct {
	r *Recorder

	mu  sync.Mutex
	w   io.Writer
	err error

	stop chan struct{}
	done chan struct{}
}

// NewSampler starts sampling r into w every interval. A non-positive
// interval records no periodic samples; Stop still emits a final one, so
// even short runs produce a complete stats stream.
func NewSampler(r *Recorder, w io.Writer, interval time.Duration) *Sampler {
	s := &Sampler{r: r, w: w}
	if interval > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go func() {
			defer close(s.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.sample("sample")
				}
			}
		}()
	}
	return s
}

// Record writes v as one JSON line.
func (s *Sampler) Record(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(b, '\n')); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// sampleRecord is one periodic (or final) snapshot line.
type sampleRecord struct {
	Kind  string   `json:"kind"`
	Stats Snapshot `json:"stats"`
}

func (s *Sampler) sample(kind string) {
	s.Record(sampleRecord{Kind: kind, Stats: s.r.Snapshot()})
}

// Stop halts periodic sampling and writes a final snapshot line. It
// returns the first write error encountered, if any.
func (s *Sampler) Stop() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
		s.stop = nil
	}
	s.sample("final")
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
