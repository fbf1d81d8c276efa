package ambit

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

// captureTraceParallel runs one single-row op exactly like captureTrace but
// with the execution core pinned to 8 workers, returning the raw JSONL bytes.
func captureTraceParallel(t *testing.T, op controller.Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.DRAM.Timing = dram.DDR3_1600()
	cfg.SplitDecoder = true
	cfg.ExecWorkers = 8
	cfg.Tracer = NewTracer(NewJSONLSink(&buf))
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rowBits := int64(sys.RowSizeBits())
	a, b, d := sys.MustAlloc(rowBits), sys.MustAlloc(rowBits), sys.MustAlloc(rowBits)
	if err := sys.Apply(op, d, a, b); err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenTracesParallel is the parallel half of the golden-trace gate
// (satellite 3): every Figure-8 op class executed through the parallel path
// with 8 workers must produce a JSONL trace byte-for-byte identical to the
// serial goldens in testdata/ — same events, same order, same sequence
// numbers, same bytes.
func TestGoldenTracesParallel(t *testing.T) {
	cases := []struct {
		op   controller.Op
		name string
	}{
		{controller.OpAnd, "and"},
		{controller.OpNot, "not"},
		{controller.OpXor, "xor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := captureTraceParallel(t, tc.op)
			path := filepath.Join("testdata", "trace_"+tc.name+".json")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestGoldenTraces -update` first)", err)
			}
			if !bytes.Equal(raw, golden) {
				t.Errorf("parallel trace differs from serial golden %s\nparallel:\n%s\ngolden:\n%s",
					path, raw, golden)
			}
		})
	}
}

// TestParallelTraceMatchesSerialTrace is the tentpole's core guarantee on a
// real multi-row workload (obsWorkload: bulk ops, copies, fills, popcounts
// over vectors spread across banks): the merged trace is byte-identical to
// the serial path's and the Stats agree exactly, at 1, 2 and 8 workers.  The
// serial trace digest and Stats are frozen in testdata/serial_ref.json.
func TestParallelTraceMatchesSerialTrace(t *testing.T) {
	checkSerialRef(t, "obs", 1, 2, 8)
}

// TestWithTraceSampling checks the option end to end: 1-in-n span sampling
// keeps the first span of every stride, never touches command events, and
// leaves Stats untouched.
func TestWithTraceSampling(t *testing.T) {
	sink := NewLastNSink(1 << 14)
	sys, err := New(WithTracer(NewTracer(sink)), WithTraceSampling(4))
	if err != nil {
		t.Fatal(err)
	}
	rowBits := int64(sys.RowSizeBits())
	x, y, d := sys.MustAlloc(rowBits), sys.MustAlloc(rowBits), sys.MustAlloc(rowBits)
	const ops = 10
	for i := 0; i < ops; i++ {
		if err := sys.And(d, x, y); err != nil {
			t.Fatal(err)
		}
	}
	var spans, cmds int
	for _, e := range sink.Events() {
		if e.Kind == KindSpan {
			spans++
		} else {
			cmds++
		}
	}
	if spans != 3 { // spans 0, 4, 8 of 10
		t.Errorf("sampled spans = %d, want 3 (1-in-4 of %d)", spans, ops)
	}
	if want := ops * 4; cmds != want { // and is 4 AAPs per row
		t.Errorf("command events = %d, want %d (commands are never sampled)", cmds, want)
	}
	if got := sys.Stats().BulkOps[controller.OpAnd]; got != ops {
		t.Errorf("BulkOps[and] = %d, want %d", got, ops)
	}

	if _, err := New(WithTraceSampling(-1)); err == nil {
		t.Error("negative TraceSampling accepted")
	}
}

// andRows8Runner builds a system under the given configuration and returns a
// closure that times `iters` iterations of sys.Apply(and) on an 8-row
// workload (one row per bank on the default geometry), in ns/op.
func andRows8Runner(t *testing.T, opts ...Option) func(iters int) float64 {
	t.Helper()
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	bits := 8 * int64(sys.RowSizeBits())
	x, y, d := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	return func(iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := sys.Apply(controller.OpAnd, d, x, y); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
}

// TestTracedParallelOverheadGate is the CI gate for the tentpole's
// performance criteria on the and-rows8 workload (8 rows = all 8 banks):
//
//  1. traced parallel must stay within 1.25x of untraced parallel — tracing
//     rides along, it does not serialize;
//  2. traced parallel must keep a >= 3x speedup over a traced one-worker
//     System (only checked with >= 4 usable CPUs; the bound needs real
//     parallelism).
//
// Benchmarks are noisy — and on a busy machine throughput drifts over the
// test's own lifetime — so both variants run on long-lived systems and are
// timed in short alternating rounds (each pair of rounds sees the same
// machine conditions), each variant taking its best round.  The gate only
// runs when explicitly requested via AMBIT_OVERHEAD_GATE=1.
func TestTracedParallelOverheadGate(t *testing.T) {
	if os.Getenv("AMBIT_OVERHEAD_GATE") == "" {
		t.Skip("set AMBIT_OVERHEAD_GATE=1 to run the traced-parallel overhead gate")
	}
	tracer := func() Option { return WithTracer(NewTracer(nopTraceSink{})) }

	const warmup, iters, rounds = 500, 2000, 6
	runUntraced := andRows8Runner(t)
	runTraced := andRows8Runner(t, tracer())
	runUntraced(warmup)
	runTraced(warmup)
	untraced, traced := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		if ns := runUntraced(iters); ns < untraced {
			untraced = ns
		}
		if ns := runTraced(iters); ns < traced {
			traced = ns
		}
	}
	ratio := traced / untraced
	t.Logf("untraced parallel = %.0f ns/op, traced parallel = %.0f ns/op, ratio = %.3f",
		untraced, traced, ratio)
	if ratio > 1.25 {
		t.Errorf("traced parallel is %.2fx untraced parallel (budget 1.25x)", ratio)
	}

	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs: skipping the >=3x traced speedup check (needs >= 4)", runtime.NumCPU())
	}
	sysOne, err := New(tracer(), WithExecWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	bits := 8 * int64(sysOne.RowSizeBits())
	x, y, d := sysOne.MustAlloc(bits), sysOne.MustAlloc(bits), sysOne.MustAlloc(bits)
	runOne := func(iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := sysOne.Apply(controller.OpAnd, d, x, y); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	runOne(warmup)
	tracedOne := math.Inf(1)
	for i := 0; i < rounds; i++ {
		if ns := runOne(iters); ns < tracedOne {
			tracedOne = ns
		}
	}
	speedup := tracedOne / traced
	t.Logf("traced one-worker = %.0f ns/op, traced parallel = %.0f ns/op, speedup = %.2fx",
		tracedOne, traced, speedup)
	if speedup < 3 {
		t.Errorf("traced parallel speedup over traced one-worker = %.2fx, want >= 3x", speedup)
	}
}
