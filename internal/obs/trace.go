package obs

import (
	"fmt"
	"sync"
	"time"
)

// TraceKind classifies one epoch-lifecycle trace event.
type TraceKind uint8

const (
	TraceAdvanceStart TraceKind = iota // an epoch advance began (Epoch = old clock)
	TraceAdvanceEnd                    // an epoch advance published (Epoch = new clock)
	TraceSyncStart                     // a Sync call began (Epoch = clock at entry)
	TraceSyncEnd                       // a Sync call returned (Epoch = clock at exit)
	TraceCrash                         // the device crashed (Arg = staged writes discarded)
	TraceRecovery                      // recovery completed (Epoch = durable clock, Arg = survivors)
)

var traceKindNames = [...]string{
	TraceAdvanceStart: "advance_start",
	TraceAdvanceEnd:   "advance_end",
	TraceSyncStart:    "sync_start",
	TraceSyncEnd:      "sync_end",
	TraceCrash:        "crash",
	TraceRecovery:     "recovery",
}

// String returns the event kind's stable snake_case name.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name, keeping stats dumps readable.
func (k TraceKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// TraceEvent is one entry of the epoch-lifecycle trace ring.
type TraceEvent struct {
	Seq    uint64    `json:"seq"`
	UnixNs int64     `json:"unix_ns"`
	Kind   TraceKind `json:"kind"`
	TID    int       `json:"tid"`
	Epoch  uint64    `json:"epoch"`
	Arg    uint64    `json:"arg,omitempty"`
}

// String renders the event as one aligned log line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("trace[%d] %-13s tid=%d epoch=%d arg=%d", e.Seq, e.Kind, e.TID, e.Epoch, e.Arg)
}

// DefaultTraceCap is the trace ring capacity: enough for hundreds of
// epoch boundaries of context without unbounded growth.
const DefaultTraceCap = 1024

// traceRing is a bounded, mutex-guarded ring. Events are rare (epoch
// boundaries, syncs, crashes), so a mutex is cheaper than the complexity
// of a lock-free ring and still allocation-free per event.
type traceRing struct {
	mu     sync.Mutex
	events []TraceEvent
	next   uint64 // total events ever recorded; next%cap is the write slot
}

func (t *traceRing) init(capacity int) {
	t.events = make([]TraceEvent, capacity)
}

// Trace appends an epoch-lifecycle event to the ring.
func (r *Recorder) Trace(tid int, kind TraceKind, epoch uint64, arg uint64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	now := time.Now().UnixNano()
	t := &r.trace
	t.mu.Lock()
	t.events[t.next%uint64(len(t.events))] = TraceEvent{
		Seq: t.next, UnixNs: now, Kind: kind, TID: tid, Epoch: epoch, Arg: arg,
	}
	t.next++
	t.mu.Unlock()
}

// TraceEvents returns the ring's surviving events in chronological order.
func (r *Recorder) TraceEvents() []TraceEvent {
	if r == nil {
		return nil
	}
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	capacity := uint64(len(t.events))
	n := t.next
	if n > capacity {
		n = capacity
	}
	out := make([]TraceEvent, 0, n)
	start := t.next - n
	for i := uint64(0); i < n; i++ {
		out = append(out, t.events[(start+i)%capacity])
	}
	return out
}
