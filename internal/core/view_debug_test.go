//go:build montagedebug

package core

import (
	"strings"
	"testing"
)

// TestInPlaceSetOfViewPanics: in a debug build, the in-place branch of
// Set refuses a payload whose data is a view of the arena. Recovered
// payloads are views and never reach that branch (their epoch is below
// the restarted clock); this forges one that does.
func TestInPlaceSetOfViewPanics(t *testing.T) {
	cfg := Config{ArenaSize: 1 << 22, MaxThreads: 1}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DoOp(0, func(op Op) error { _, err := op.PNew([]byte("recovered")); return err }); err != nil {
		t.Fatal(err)
	}
	sys.Sync(0)
	sys.Abandon()
	sys.Device().Crash(0)
	sys2, got, err := Recover(sys.Device(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Abandon()
	if len(got) != 1 {
		t.Fatalf("recovered %d payloads, want 1", len(got))
	}
	p := got[0]
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "view of the arena") {
			t.Fatalf("in-place Set of a view: recovered %v, want the view assertion", r)
		}
	}()
	_ = sys2.DoOp(0, func(op Op) error {
		p.epoch = op.Epoch() // forged: no recovered payload is this new
		_, err := op.Set(p, []byte("x"))
		return err
	})
}
