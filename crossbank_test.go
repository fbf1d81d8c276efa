package ambit

// Cross-bank copies.  A Copy between vectors allocated at different base
// slots pairs rows in different banks, so every row goes through RowClone-PSM
// over the internal bus and opens a row in two banks.  A direct Copy runs
// them under the exclusive lock, bank group after bank group; in a Batch the
// copy is an epoch barrier between the per-bank streams.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// crossBankVectors allocates n 12-row vectors at base slot base and seeds
// them from rng.  Row r of a base-0 vector lives in bank r%banks and row r of
// a base-1 vector in bank (r+1)%banks, so pairs across the two bases never
// share a bank: every copy between them is a PSM copy.
func crossBankVectors(t *testing.T, sys *System, rng *rand.Rand, base, n int) []*Bitvector {
	t.Helper()
	vs := make([]*Bitvector, n)
	for i := range vs {
		v, err := sys.AllocAt(12*int64(sys.RowSizeBits()), base)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]uint64, v.WordCount())
		for j := range w {
			w[j] = rng.Uint64()
		}
		if err := v.Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	return vs
}

// readAll returns every vector's contents.
func readAll(t *testing.T, vs ...*Bitvector) [][]uint64 {
	t.Helper()
	out := make([][]uint64, len(vs))
	for i, v := range vs {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = words
	}
	return out
}

// crossBankCopyWorkload is a direct Copy whose every row pair spans two
// banks.
func crossBankCopyWorkload(t *testing.T, sys *System) refResult {
	rng := rand.New(rand.NewSource(5))
	src := crossBankVectors(t, sys, rng, 1, 1)[0]
	dst := crossBankVectors(t, sys, rng, 0, 1)[0]
	if err := sys.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	return refResult{data: readAll(t, src, dst)}
}

// crossBankBatchWorkload is a batch whose cross-bank Copy depends on an
// earlier write of its source in other banks (RAW), is followed by an op
// reading its destination (RAW) and by an overwrite of its source (WAR).
func crossBankBatchWorkload(t *testing.T, sys *System) refResult {
	rng := rand.New(rand.NewSource(6))
	src := crossBankVectors(t, sys, rng, 1, 1)[0]
	vs := crossBankVectors(t, sys, rng, 0, 3)
	dst, x, y := vs[0], vs[1], vs[2]
	b := sys.NewBatch()
	for _, rec := range []func() error{
		func() error { return b.Not(src, src) },
		func() error { return b.Copy(dst, src) },
		func() error { return b.And(x, dst, y) },
		func() error { return b.Fill(src, false) },
	} {
		if err := rec(); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := b.Popcount(x)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	pop, err := pc.Value()
	if err != nil {
		t.Fatal(err)
	}
	return refResult{data: readAll(t, src, dst, x, y), pop: pop, report: &rep}
}

// crossBankSeeds regenerates the initial words crossBankVectors draws from a
// rand source with the given seed: n vectors of the given word count, in
// allocation order.
func crossBankSeeds(seed int64, n, words int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, words)
		for j := range out[i] {
			out[i][j] = rng.Uint64()
		}
	}
	return out
}

// TestCrossBankCopy covers PSM copies at the System and the Batch level: a
// direct Copy, and a batch whose cross-bank Copy reads a source the other
// banks' streams write before it (Not) and after it (Fill) and feeds an And,
// at 1 and 4 workers, traced and untraced.  Results must match a word-level
// software model and the frozen serial reference.  Without the batch's epoch
// barrier the copy rows would run inside their destination banks' streams
// and read their sources in other banks before or after those banks' Not.
func TestCrossBankCopy(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, traced := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d traced=%v", workers, traced)
			newSys := func() *System {
				opts := []Option{WithExecWorkers(workers)}
				if traced {
					opts = append(opts, WithTracer(NewTracer(nopTraceSink{})))
				}
				sys, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}

			sys := newSys()
			words := 12 * sys.RowSizeBits() / 64
			init := crossBankSeeds(5, 2, words) // src, dst
			if got := crossBankCopyWorkload(t, sys).data; !reflect.DeepEqual(got, [][]uint64{init[0], init[0]}) {
				t.Errorf("%s: direct cross-bank Copy diverged from the software model", label)
			}

			init = crossBankSeeds(6, 4, words) // src, dst, x, y
			src, dst, x, y := make([]uint64, words), make([]uint64, words), make([]uint64, words), init[3]
			var pop int64
			for i := range x {
				dst[i] = ^init[0][i]
				x[i] = dst[i] & y[i]
				pop += int64(bits.OnesCount64(x[i]))
			}
			got := crossBankBatchWorkload(t, newSys())
			if !reflect.DeepEqual(got.data, [][]uint64{src, dst, x, y}) {
				t.Errorf("%s: cross-bank batch diverged from the software model", label)
			}
			if got.pop != pop {
				t.Errorf("%s: cross-bank batch popcount %d, software model %d", label, got.pop, pop)
			}
		}
	}
	checkSerialRef(t, "copy/cross-bank", 1, 4)
	checkSerialRef(t, "batch/copy-cross-bank", 1, 4)
}
