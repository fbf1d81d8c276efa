package ambit

// Differential for batch-level fusion: Batch.Run collapses an eligible
// program (fault-free, no ECC, bank-local copies; traced or not) into one
// fused per-bank pass.  These tests prove that route bit- and
// Stats-identical to stepwise execution by running the same
// dependency-heavy program — chained bulk ops, a compiled-function call, a
// copy, a fill, and a popcount — on both: the fused path (plain and traced
// Systems) against the stepwise path in recording order (the forceSerial
// test hook, which disqualifies fusion but must not perturb results or
// statistics).

import (
	"math/rand"
	"reflect"
	"testing"
)

type batchOutcome struct {
	data   [][]uint64
	pop    int64
	report BatchReport
	stats  Stats
}

// runFusedBatchWorkload drives one freshly-built System through a program
// whose every op kind the fused executor handles, with real data
// dependencies between items in the same bank stream (c feeds c, d feeds
// d), and returns the complete observable outcome.  serial pins the
// forceSerial reference path.
func runFusedBatchWorkload(t *testing.T, workers int, serial bool, opts ...Option) batchOutcome {
	t.Helper()
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		sys.eng.SetWorkers(workers)
	}
	sys.forceSerial = serial
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
// be indistinguishable — contents, popcount, BatchReport, Stats — from the
// stepwise recording-order engine, which the forceSerial hook forces.
func TestBatchFusionDifferential(t *testing.T) {
	want := runFusedBatchWorkload(t, 0, true) // stepwise reference
	for _, traced := range []bool{false, true} {
		for _, workers := range []int{0, 1, 4} {
			var opts []Option
			if traced {
				opts = append(opts, WithTracer(NewTracer(nopTraceSink{})))
			}
			got := runFusedBatchWorkload(t, workers, false, opts...)
			if !reflect.DeepEqual(got.data, want.data) {
				t.Errorf("traced=%v workers=%d: fused contents diverged from stepwise reference", traced, workers)
			}
			if got.pop != want.pop {
				t.Errorf("traced=%v workers=%d: fused popcount = %d, stepwise %d", traced, workers, got.pop, want.pop)
			}
			if got.report != want.report {
				t.Errorf("traced=%v workers=%d: fused report = %+v, stepwise %+v", traced, workers, got.report, want.report)
			}
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("traced=%v workers=%d: fused stats diverged:\n got %+v\nwant %+v", traced, workers, got.stats, want.stats)
			}
		}
	}
}

// TestBatchFusionFaultedFallsBack: with a fault model armed the batch must
// take the stepwise path (fused evaluation elides the per-train RNG draws),
// and that path must remain serial/parallel deterministic.
func TestBatchFusionFaultedFallsBack(t *testing.T) {
	fc := FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 11}
	want := runFusedBatchWorkload(t, 0, false, WithFaultModel(fc))
	if want.stats.InjectedFaults == 0 {
		t.Fatal("workload drew no faults; the fallback differential is vacuous")
	}
	for _, workers := range []int{1, 4} {
		got := runFusedBatchWorkload(t, workers, false, WithFaultModel(fc))
		if !reflect.DeepEqual(got.data, want.data) {
			t.Errorf("workers=%d: faulted batch contents nondeterministic", workers)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("workers=%d: faulted batch stats nondeterministic", workers)
		}
	}
}
