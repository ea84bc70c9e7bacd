package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"montage/internal/payload"
	"montage/internal/pmem"
	"montage/internal/ralloc"
)

// refBlock is one block a recovery case puts in the arena by hand.
type refBlock struct {
	uid   uint64
	epoch uint64
	typ   payload.Type
	tag   uint16
	data  string
	torn  bool // one data byte flipped after encoding: must not decode
	freed bool // returned to the allocator before the crash; the bytes stay

	addr pmem.Addr
}

// refRecover is the reference the one-pass pipeline is checked against:
// the map-per-block algorithm core.Recover used before it, over the
// blocks the case wrote. It returns the indexes of the survivors and of
// the blocks whose headers recovery must have invalidated, and the
// largest uid in the arena.
func refRecover(blocks []refBlock, clock uint64) (survive, invalid map[int]bool, maxUID uint64) {
	var cutoff uint64
	if clock > 2 {
		cutoff = clock - 2
	}
	winner := map[uint64]int{}
	for i, b := range blocks {
		if b.torn {
			continue
		}
		if b.uid > maxUID {
			maxUID = b.uid
		}
		if b.epoch > cutoff {
			continue
		}
		w, ok := winner[b.uid]
		if !ok || b.epoch > blocks[w].epoch || (b.epoch == blocks[w].epoch && b.typ == payload.Delete) {
			winner[b.uid] = i
		}
	}
	survive, invalid = map[int]bool{}, map[int]bool{}
	for _, i := range winner {
		if blocks[i].typ != payload.Delete {
			survive[i] = true
		}
	}
	for i, b := range blocks {
		if !b.torn && !survive[i] {
			invalid[i] = true
		}
	}
	return survive, invalid, maxUID
}

// buildArena writes the case's blocks and durable clock into a fresh
// device, as a crashed system would have left them, and returns the
// device and how many block slots the carved superblocks hold.
func buildArena(t *testing.T, blocks []refBlock, clock uint64) (*pmem.Device, int) {
	t.Helper()
	dev := pmem.NewDevice(1<<22, 8, nil)
	h, err := ralloc.New(dev, 8, ralloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		b := &blocks[i]
		if b.addr, err = h.Alloc(0, len(b.data)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, payload.EncodedSize(len(b.data)))
		payload.Encode(buf, payload.Header{Epoch: b.epoch, UID: b.uid, Typ: b.typ, Tag: b.tag}, []byte(b.data))
		if b.torn {
			buf[len(buf)-1] ^= 0xFF
		}
		if err := dev.WriteDurable(b.addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	slots := int(h.Live()) + h.FreeCount()
	for _, b := range blocks {
		if b.freed {
			h.Free(0, b.addr)
		}
	}
	var c [8]byte
	binary.LittleEndian.PutUint64(c[:], clock)
	if err := dev.WriteDurable(ralloc.EpochClockAddr, c[:]); err != nil {
		t.Fatal(err)
	}
	dev.Crash(pmem.CrashDropAll)
	return dev, slots
}

// describe renders survivors in uid order, one per line.
func describe(ps []*PBlk) string {
	lines := make([]string, len(ps))
	for i, p := range ps {
		lines[i] = fmt.Sprintf("uid %d epoch %d %v tag %d %q", p.uid, p.epoch, p.typ, p.tag, p.data)
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

func TestRecoverAgainstReference(t *testing.T) {
	long := string(bytes.Repeat([]byte("x"), 300)) // a second size class, checked below
	const clock = 10                               // cutoff 8
	cases := []struct {
		name   string
		blocks []refBlock
	}{
		{"versions of one uid across epochs", []refBlock{
			{uid: 1, epoch: 3, typ: payload.Alloc, tag: 7, data: "v3"},
			{uid: 1, epoch: 8, typ: payload.Update, tag: 7, data: "v8"},
			{uid: 1, epoch: 5, typ: payload.Update, tag: 7, data: long},
			{uid: 2, epoch: 4, typ: payload.Alloc, data: "other"},
		}},
		{"same-epoch update and delete, either order", []refBlock{
			{uid: 1, epoch: 6, typ: payload.Update, data: "loses"},
			{uid: 1, epoch: 6, typ: payload.Delete},
			{uid: 2, epoch: 6, typ: payload.Delete},
			{uid: 2, epoch: 6, typ: payload.Update, data: "loses too"},
			{uid: 3, epoch: 6, typ: payload.Alloc, data: "stays"},
		}},
		{"anti-payload older and newer than its target", []refBlock{
			{uid: 1, epoch: 4, typ: payload.Alloc, data: "deleted at 7"},
			{uid: 1, epoch: 7, typ: payload.Delete},
			{uid: 2, epoch: 3, typ: payload.Delete},
			{uid: 2, epoch: 5, typ: payload.Update, data: "rewritten after the delete"},
		}},
		{"blocks above the cutoff", []refBlock{
			{uid: 1, epoch: 8, typ: payload.Alloc, data: "at the cutoff"},
			{uid: 1, epoch: 9, typ: payload.Update, data: "too new"},
			{uid: 2, epoch: 2, typ: payload.Alloc, data: "delete too new"},
			{uid: 2, epoch: 10, typ: payload.Delete},
			{uid: 9, epoch: 9, typ: payload.Alloc, data: "only its uid counts"},
		}},
		{"torn, orphan anti-payload, freed but decodable", []refBlock{
			{uid: 1, epoch: 5, typ: payload.Update, data: "torn newest", torn: true},
			{uid: 1, epoch: 4, typ: payload.Alloc, data: "intact older"},
			{uid: 2, epoch: 6, typ: payload.Delete},
			{uid: 3, epoch: 3, typ: payload.Alloc, data: "superseded and freed", freed: true},
			{uid: 3, epoch: 6, typ: payload.Update, data: long},
			{uid: 4, epoch: 2, typ: payload.Alloc, tag: 3, data: string(bytes.Repeat([]byte("y"), 40))}, // the 80-byte class, no multiple of 64
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				blocks := append([]refBlock(nil), tc.blocks...)
				dev, slots := buildArena(t, blocks, clock)
				survive, invalid, maxUID := refRecover(blocks, clock)
				var want []*PBlk
				for i := range survive {
					b := blocks[i]
					want = append(want, &PBlk{uid: b.uid, epoch: b.epoch, typ: b.typ, tag: b.tag, data: []byte(b.data)})
				}

				cfg := Config{ArenaSize: 1 << 22, MaxThreads: 8}
				sys, got, err := Recover(dev, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				bs := sys.Heap().BlockSize
				for _, b := range blocks {
					for _, o := range blocks {
						if b.data == long && o.data != long && bs(o.addr) == bs(b.addr) {
							t.Fatalf("test setup: %d and %d data bytes share a %d-byte class", len(o.data), len(long), bs(b.addr))
						}
					}
				}
				sys.Abandon()
				if describe(got) != describe(want) {
					t.Fatalf("survivors\n got %s\nwant %s", describe(got), describe(want))
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].addr >= got[i].addr {
						t.Fatalf("survivors out of address order at %d", i)
					}
				}
				for i, b := range blocks {
					buf := make([]byte, payload.EncodedSize(len(b.data)))
					if err := dev.Read(0, b.addr, buf); err != nil {
						t.Fatal(err)
					}
					_, _, decodes := payload.Decode(buf)
					zeroed := binary.LittleEndian.Uint64(buf) == 0
					if decodes != survive[i] || zeroed != invalid[i] {
						t.Errorf("block %d (uid %d epoch %d %v): decodes %v zeroed %v, want %v %v",
							i, b.uid, b.epoch, b.typ, decodes, zeroed, survive[i], invalid[i])
					}
				}
				if live, free := int(sys.Heap().Live()), sys.Heap().FreeCount(); live != len(want) || free != slots-len(want) {
					t.Errorf("heap: %d live %d free, want %d and %d", live, free, len(want), slots-len(want))
				}
				if uid := sys.uid.Load(); uid != maxUID {
					t.Errorf("next uid resumes above %d, want %d", uid, maxUID)
				}

				// Recovering what recovery left must change nothing.
				dev.Crash(pmem.CrashDropAll)
				sys2, again, err := Recover(dev, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				sys2.Abandon()
				if describe(again) != describe(want) {
					t.Fatalf("second recovery\n got %s\nwant %s", describe(again), describe(want))
				}
				if blocks := sys2.rec.Snapshot().Runtime.RecoveredBlocks; int(blocks) != len(want) {
					t.Errorf("second recovery decoded %d blocks, want only the %d survivors", blocks, len(want))
				}
			})
		}
	}
}
