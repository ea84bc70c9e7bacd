package pmem

import (
	"testing"

	"montage/internal/simclock"
)

// BenchmarkWriteBack measures the steady-state hot path the write-combining
// pipeline targets: an epoch's worth of repeated updates to a small working
// set of blocks, committed by one fence — exactly what a Montage epoch does
// with a skewed workload. Each iteration stages 64 write-backs spread over 8
// blocks (8 updates per block) and fences once.
func BenchmarkWriteBack(b *testing.B) {
	d := NewDevice(1<<20, 1, nil)
	const (
		blocks  = 8
		rewrite = 8
		blockSz = 256
	)
	data := make([]byte, blockSz)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(blocks * rewrite * blockSz))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rewrite; r++ {
			data[0] = byte(r) // each rewrite carries fresh bytes
			for blk := 0; blk < blocks; blk++ {
				addr := Addr(4096 + blk*blockSz)
				if err := d.WriteBack(0, addr, data); err != nil {
					b.Fatal(err)
				}
			}
		}
		d.Fence(0)
	}
}

// BenchmarkWriteBackUnique is the no-locality control: every write-back in
// an iteration hits a distinct block, so combining never fires and the
// benchmark isolates the cost of staging + commit itself.
func BenchmarkWriteBackUnique(b *testing.B) {
	d := NewDevice(1<<20, 1, nil)
	const (
		writes  = 64
		blockSz = 256
	)
	data := make([]byte, blockSz)
	b.SetBytes(int64(writes * blockSz))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < writes; w++ {
			addr := Addr(4096 + w*blockSz)
			if err := d.WriteBack(0, addr, data); err != nil {
				b.Fatal(err)
			}
		}
		d.Fence(0)
	}
}

// BenchmarkDrain measures the epoch daemon's boundary drain with writes
// spread across every worker thread, committed in one serial pass.
func BenchmarkDrain(b *testing.B) {
	const (
		threads = 8
		perThr  = 64
		blockSz = 256
	)
	d := NewDevice(1<<24, threads, nil)
	data := make([]byte, blockSz)
	b.SetBytes(int64(threads * perThr * blockSz))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tid := 0; tid < threads; tid++ {
			for w := 0; w < perThr; w++ {
				addr := Addr(4096 + (tid*perThr+w)*blockSz)
				if err := d.WriteBack(tid, addr, data); err != nil {
					b.Fatal(err)
				}
			}
		}
		d.Drain(simclock.DaemonTID)
	}
}

// bulkBlocks is the size of the one large batch the post-bulk benchmark
// and test put behind them (a 100 k-key preload's worth).
const bulkBlocks = 100000

// fenceBulk stages and fences one bulkBlocks-entry batch on thread 0.
func fenceBulk(tb testing.TB, d *Device) {
	var word [8]byte
	for i := 0; i < bulkBlocks; i++ {
		if err := d.WriteBack(0, Addr(4096+64*i), word[:]); err != nil {
			tb.Fatal(err)
		}
	}
	d.Fence(0)
}

// oneBlockCycle is what an epoch advance does to persist its clock: one
// 8-byte write-back and a fence.
func oneBlockCycle(tb testing.TB, d *Device) {
	var word [8]byte
	if err := d.WriteBack(0, 64, word[:]); err != nil {
		tb.Fatal(err)
	}
	d.Fence(0)
}

// BenchmarkFenceAfterBulk measures the one-block WriteBack+Fence cycle
// on a fresh device and on one whose staging index once held a bulk
// batch; the two must cost the same (TestFenceCostForgetsBulkBatch).
func BenchmarkFenceAfterBulk(b *testing.B) {
	for _, bulk := range []bool{false, true} {
		name := "fresh"
		if bulk {
			name = "after-bulk"
		}
		b.Run(name, func(b *testing.B) {
			d := NewDevice(8<<20, 1, nil)
			if bulk {
				fenceBulk(b, d)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oneBlockCycle(b, d)
			}
		})
	}
}
