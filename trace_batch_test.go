package ambit

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ambit/internal/dram"
)

// captureBatchTrace runs one multi-bank traced Batch — a copy, an or-chain,
// an and, a popcount and a compiled function over 3-row vectors, so every
// op spans banks 0-2 — on a fresh default system (DDR3-1600, split decoder)
// with a JSONL sink, and returns the raw trace bytes, the Stats and the
// popcount, with the given worker count.
func captureBatchTrace(t *testing.T, workers int) ([]byte, Stats, int64) {
	t.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.DRAM.Timing = dram.DDR3_1600()
	cfg.SplitDecoder = true
	cfg.ExecWorkers = workers
	cfg.Tracer = NewTracer(NewJSONLSink(&buf))
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bt, pc := recordTracedBatch(t, sys)
	if _, err := bt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	pop, err := pc.Value()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys.Stats(), pop
}

// recordTracedBatch allocates and seeds the traced-batch program's vectors on
// sys and records the program; the caller runs it.
func recordTracedBatch(t *testing.T, sys *System) (*Batch, *PopcountResult) {
	t.Helper()
	bits := 3 * int64(sys.RowSizeBits())
	a, b, c, d, e := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	for i, v := range []*Bitvector{a, b} {
		w := make([]uint64, v.WordCount())
		for j := range w {
			w[j] = uint64(j+1) * 0x9E3779B97F4A7C15 >> uint(i)
		}
		if err := v.Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	mix, err := sys.Compile("mix", Or(And(Var(0), Var(1)), Xor(Var(1), Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	bt := sys.NewBatch()
	for _, rec := range []func() error{
		func() error { return bt.Copy(c, a) },
		func() error { return bt.Or(d, a, b) },
		func() error { return bt.Or(d, d, c) },
		func() error { return bt.Or(d, d, b) },
		func() error { return bt.And(e, d, a) },
		func() error { return bt.Call(mix, []*Bitvector{c}, a, b, e) },
	} {
		if err := rec(); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := bt.Popcount(c)
	if err != nil {
		t.Fatal(err)
	}
	return bt, pc
}

// TestTracedBatchMatchesSerialTrace: a traced Batch keeps batch fusion, and
// its JSONL trace is byte-identical — events, order, sequence numbers — to
// the same program run stepwise in recording order, with identical Stats and
// results, at every worker count.  The serial trace is pinned by
// testdata/trace_batch.json (rewrite with -update after an intentional
// emission change), its Stats and popcount by testdata/serial_ref.json.
func TestTracedBatchMatchesSerialTrace(t *testing.T) {
	path := filepath.Join("testdata", "trace_batch.json")
	if *updateGolden {
		raw, _, _ := captureBatchTrace(t, 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestTracedBatchMatchesSerialTrace -update` to create)", err)
	}
	want := serialRef(t, "batch/trace")
	for _, workers := range []int{1, 2, 8} {
		fused, fusedStats, fusedPop := captureBatchTrace(t, workers)
		if !bytes.Equal(fused, golden) {
			t.Errorf("workers=%d: fused batch trace differs from serial golden %s\nfused:\n%s\ngolden:\n%s", workers, path, fused, golden)
		}
		if !reflect.DeepEqual(fusedStats, want.Stats) {
			t.Errorf("workers=%d: stats diverged:\nfused:  %+v\nserial: %+v", workers, fusedStats, want.Stats)
		}
		if fusedPop != want.Popcount {
			t.Errorf("workers=%d: popcount %d, serial %d", workers, fusedPop, want.Popcount)
		}
	}
}
