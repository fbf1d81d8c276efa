package ambit

// Integration tests for the sharded execution core: parallel dispatch must be
// a pure host-side optimization — bit-identical data and statistics versus
// the frozen serial reference at any worker count — and partial failures must
// account the work every bank completed.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// execWorkload drives one System through a representative mix of direct ops,
// a batch, and channel traffic, returning every vector's final content.
func execWorkload(t *testing.T, sys *System) [][]uint64 {
	t.Helper()
	rowBits := int64(sys.RowSizeBits())
	bits := 16 * rowBits // 16 rows, wrapping the 8-bank default twice
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	c, d := sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(42))
	wa, wb := make([]uint64, a.WordCount()), make([]uint64, b.WordCount())
	for i := range wa {
		wa[i], wb[i] = rng.Uint64(), rng.Uint64()
	}
	if err := a.Write(wa, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(wb, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := sys.And(c, a, b); err != nil {
		t.Fatal(err)
	}
	if err := sys.Xor(d, a, b); err != nil {
		t.Fatal(err)
	}
	if err := sys.Not(d, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Or(c, c, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Copy(d, a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Popcount(c); err != nil {
		t.Fatal(err)
	}
	batch := sys.NewBatch()
	if err := batch.Nand(d, a, c); err != nil {
		t.Fatal(err)
	}
	if err := batch.Xnor(c, a, d); err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(); err != nil {
		t.Fatal(err)
	}
	var out [][]uint64
	for _, v := range []*Bitvector{a, b, c, d} {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, words)
	}
	return out
}

// TestParallelExecutionDeterministic runs the same workload on the default
// worker pool and on 4- and 16-worker pools, and requires bit-identical data
// and bit-identical statistics to the frozen serial reference — the
// execution core's central guarantee.
func TestParallelExecutionDeterministic(t *testing.T) {
	checkSerialRef(t, "exec", 0, 4, 16)
}

// TestParallelExecutionRaceStress hammers one System from many goroutines —
// ops on disjoint vectors, ops sharing sources, stats snapshots, and peeks —
// under a widened worker pool.  Run with -race this is the data-race gate for
// the execMu/statsMu/bank-shard split.
func TestParallelExecutionRaceStress(t *testing.T) {
	sys, err := New(WithExecWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rowBits := int64(sys.RowSizeBits())
	bits := 8 * rowBits
	shared := sys.MustAlloc(bits)
	if err := sys.Fill(shared, true); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		dst, src := sys.MustAlloc(bits), sys.MustAlloc(bits)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				var err error
				switch (g + iter) % 4 {
				case 0:
					err = sys.And(dst, src, shared)
				case 1:
					err = sys.Or(dst, dst, shared) // overlapping: dst aliases a source
				case 2:
					err = sys.Not(dst, src)
				default:
					err = sys.Xor(dst, src, shared)
				}
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
				if iter%3 == 0 {
					_ = sys.Stats()
					if _, err := dst.Read(Backdoor()); err != nil {
						t.Errorf("goroutine %d: Peek: %v", g, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := sys.Stats()
	if st.TotalBulkOps() != goroutines*10+0 {
		// +0: Fill is a Copy-class op, not a BulkOp.
		t.Fatalf("TotalBulkOps = %d, want %d", st.TotalBulkOps(), goroutines*10)
	}
	if st.RowOps != int64(goroutines*10*8) {
		t.Fatalf("RowOps = %d, want %d", st.RowOps, goroutines*10*8)
	}
}

// armUncorrectable sets up a system whose And over six-row vectors fails at
// row index 2 with ErrUncorrectable: an all-ones TRA fault armed on row 2's
// subarray defeats the first TMR replica with more disagreeing bits than the
// retry threshold, and a zero retry budget surfaces the failure immediately.
func armUncorrectable(t *testing.T) (*System, *Bitvector, *Bitvector, *Bitvector) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Reliability = Reliability{ECC: true, MaxRetries: 0}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rowBits := int64(sys.RowSizeBits())
	bits := 6 * rowBits
	a, b, d := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	if err := sys.Fill(a, true); err != nil {
		t.Fatal(err)
	}
	if err := sys.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	mask := make([]uint64, sys.RowSizeBits()/64)
	for i := range mask {
		mask[i] = ^uint64(0)
	}
	addr := d.Row(2)
	sys.Device().Bank(addr.Bank).Subarray(addr.Subarray).InjectTRAFault(mask)
	return sys, a, b, d
}

// TestPartialFailureAccountingParallel checks the per-bank prefix semantics: row 2's bank fails, the other five banks complete, and
// the merge reports the failing row with the other rows' work accounted.
func TestPartialFailureAccountingParallel(t *testing.T) {
	sys, a, b, d := armUncorrectable(t)
	sys.ResetStats()
	err := sys.And(d, a, b)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("And error = %v, want ErrUncorrectable", err)
	}
	st := sys.Stats()
	// Six single-row bank groups; only row 2's group fails.
	if st.RowOps != 5 {
		t.Errorf("RowOps = %d, want 5 (other banks complete)", st.RowOps)
	}
	if st.ElapsedNS <= 0 {
		t.Errorf("ElapsedNS = %v, want > 0", st.ElapsedNS)
	}
	if st.UncorrectableRows != 1 {
		t.Errorf("UncorrectableRows = %d, want 1", st.UncorrectableRows)
	}
	if st.TotalBulkOps() != 0 {
		t.Errorf("TotalBulkOps = %d, want 0 (op failed)", st.TotalBulkOps())
	}
	// The five completed rows must actually hold the AND result.
	got, perr := d.Read(Backdoor())
	if perr != nil {
		t.Fatal(perr)
	}
	wpr := sys.RowSizeBits() / 64
	for r := 0; r < 6; r++ {
		if r == 2 {
			continue
		}
		for i := r * wpr; i < (r+1)*wpr; i++ {
			if got[i] != ^uint64(0) {
				t.Fatalf("row %d word %d = %#x, want all-ones", r, i-r*wpr, got[i])
			}
		}
	}
}
