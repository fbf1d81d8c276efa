package ambit

// Differential for batch-level fusion: Batch.Run runs a program as one
// recording-order stream per bank, coalescing same-opcode bulk items into
// fused passes.  These tests prove that route bit- and Stats-identical to
// stepwise execution by running a dependency-heavy program — chained bulk
// ops, a compiled-function call, a copy, a fill, and a popcount — against
// the frozen stepwise recording-order reference (testdata/serial_ref.json),
// plain, traced, faulted and under ECC.

import (
	"math/rand"
	"testing"
)

type batchOutcome struct {
	data   [][]uint64
	pop    int64
	report BatchReport
	stats  Stats
}

// fusedBatchProgram drives sys through a program whose every op kind the
// batch stream handles, with real data dependencies between items in the
// same bank stream (c feeds c, d feeds d), and returns the complete
// observable outcome.
func fusedBatchProgram(t *testing.T, sys *System) batchOutcome {
	t.Helper()
	rowBits := int64(sys.RowSizeBits())
	bits := 12 * rowBits // wraps the 8-bank default, so banks carry multi-item streams
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	c, d := sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(17))
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
	andor, err := sys.Compile("andor", Or(And(Var(0), Var(1)), Var(2)))
	if err != nil {
		t.Fatal(err)
	}

	batch := sys.NewBatch()
	if err := batch.And(c, a, b); err != nil {
		t.Fatal(err)
	}
	if err := batch.And(d, a, b); err != nil { // same opcode, coalesces with the previous item per bank
		t.Fatal(err)
	}
	if err := batch.Xor(d, d, a); err != nil { // RAW on d within each bank stream
		t.Fatal(err)
	}
	if err := batch.Or(c, c, d); err != nil { // joins both chains
		t.Fatal(err)
	}
	if err := batch.Not(d, d); err != nil {
		t.Fatal(err)
	}
	if err := batch.Call(andor, []*Bitvector{d}, a, b, d); err != nil {
		t.Fatal(err)
	}
	if err := batch.Copy(d, c); err != nil { // WAR then RAW on d
		t.Fatal(err)
	}
	if err := batch.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	if err := batch.Xnor(c, c, b); err != nil { // reads the filled b
		t.Fatal(err)
	}
	pc, err := batch.Popcount(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	pop, err := pc.Value()
	if err != nil {
		t.Fatal(err)
	}
	var out batchOutcome
	for _, v := range []*Bitvector{a, b, c, d} {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out.data = append(out.data, words)
	}
	out.pop, out.report, out.stats = pop, rep, sys.Stats()
	return out
}

// TestBatchFusionDifferential: the fused per-bank pass, traced or not, must
// be indistinguishable — contents, popcount, BatchReport, Stats, trace — from
// the frozen stepwise recording-order reference.
func TestBatchFusionDifferential(t *testing.T) {
	checkSerialRef(t, "batch/fused", 0, 1, 4)
}

// TestBatchFusionFaultedFallsBack: with a fault model armed every bulk run
// falls back to stepwise trains (fused evaluation elides the per-train RNG
// draws) inside the bank streams, which must still reproduce the serial
// reference at any worker count.  ECC batches run stepwise TMR trains in the
// streams the same way.
func TestBatchFusionFaultedFallsBack(t *testing.T) {
	want := checkSerialRef(t, "batch/faulted", 0, 1, 4)
	if want.Stats.InjectedFaults == 0 {
		t.Fatal("workload drew no faults; the fallback differential is vacuous")
	}
	want = checkSerialRef(t, "batch/ecc", 1, 4)
	if want.Stats.CorrectedBits == 0 {
		t.Fatal("ECC batch corrected nothing; the differential is vacuous")
	}
}
