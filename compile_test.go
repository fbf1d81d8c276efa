package ambit

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ambit/internal/compile"
	"ambit/internal/dram"
)

// compileTestSystem builds a small multi-bank system so compiled functions
// exercise the parallel per-bank scheduling path.
func compileTestSystem(t testing.TB, opts ...Option) *System {
	t.Helper()
	small := WithDRAM(DRAMConfig{
		Geometry: dram.Geometry{Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 64},
		Timing:   dram.DDR3_1600(),
	})
	sys, err := New(append([]Option{small}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// randomFuncExpr generates a random expression DAG with occasional sharing
// (mirrors the internal compile package's generator, over the public surface).
func randomFuncExpr(rng *rand.Rand, depth, nvars int) *Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(8) == 0 {
			return Lit(rng.Intn(2) == 1)
		}
		return Var(rng.Intn(nvars))
	}
	sub := func() *Expr { return randomFuncExpr(rng, depth-1, nvars) }
	switch rng.Intn(6) {
	case 0:
		return Not(sub())
	case 1:
		return And(sub(), sub())
	case 2:
		return Or(sub(), sub())
	case 3:
		return Xor(sub(), sub())
	case 4:
		return Maj(sub(), sub(), sub())
	}
	s := sub()
	return Or(And(s, sub()), s)
}

// TestFuncDifferential is the end-to-end property test: >= 1000 random
// expression DAGs are compiled and executed through the full System stack in
// four modes — {parallel, serial} x {untraced, traced} — over randomized
// multi-row operands, and every output word must match the pure-Go reference
// evaluator.  The serial and parallel paths must also agree on simulated
// time, operation for operation.
func TestFuncDifferential(t *testing.T) {
	type mode struct {
		name string
		sys  *System
	}
	coh := WithCoherenceNSPerRow(2)
	one := WithExecWorkers(1)
	modes := []mode{
		{"parallel", compileTestSystem(t, coh)},
		{"one-worker", compileTestSystem(t, coh, one)},
		{"parallel-traced", compileTestSystem(t, coh, WithTracer(NewTracer(nopTraceSink{})))},
		{"one-worker-traced", compileTestSystem(t, coh, one, WithTracer(NewTracer(nopTraceSink{})))},
	}

	rng := rand.New(rand.NewSource(42))
	bits := 2 * int64(modes[0].sys.RowSizeBits()) // two rows: spans two banks
	words := int(bits / 64)

	const target = 1000
	compiled := 0
	for trial := 0; compiled < target; trial++ {
		nOut := 1 + rng.Intn(2)
		exprs := make([]*Expr, nOut)
		for j := range exprs {
			exprs[j] = randomFuncExpr(rng, 3, 4)
		}
		// Compile once per mode (each System has its own cache).
		fs := make([]*Func, len(modes))
		spilled := false
		for m := range modes {
			f, err := modes[m].sys.Compile("rand", exprs...)
			if err != nil {
				var se *SpillError
				if !errors.As(err, &se) {
					t.Fatalf("trial %d: %v", trial, err)
				}
				spilled = true
				break
			}
			fs[m] = f
		}
		if spilled {
			continue
		}
		compiled++

		nIn := fs[0].NumInputs()
		inputs := make([][]uint64, nIn)
		for i := range inputs {
			row := make([]uint64, words)
			for w := range row {
				row[w] = rng.Uint64()
			}
			inputs[i] = row
		}
		for m, md := range modes {
			srcs := make([]*Bitvector, nIn)
			for i := range srcs {
				srcs[i] = md.sys.MustAlloc(bits)
				if err := srcs[i].Write(inputs[i], Backdoor()); err != nil {
					t.Fatal(err)
				}
			}
			dsts := make([]*Bitvector, nOut)
			for j := range dsts {
				dsts[j] = md.sys.MustAlloc(bits)
			}
			if err := fs[m].RunMulti(dsts, srcs...); err != nil {
				t.Fatalf("trial %d mode %s: %v\ntrain:\n%s", trial, md.name, err, fs[m].Listing())
			}
			for w := 0; w < words; w++ {
				vars := make([]uint64, nIn)
				for i := range vars {
					vars[i] = inputs[i][w]
				}
				want := compile.EvalAll(exprs, vars)
				for j := range dsts {
					got, err := dsts[j].Read(Backdoor())
					if err != nil {
						t.Fatal(err)
					}
					if got[w] != want[j] {
						t.Fatalf("trial %d mode %s out %d word %d: got %016x, reference %016x\nexpr: %v\ntrain:\n%s",
							trial, md.name, j, w, got[w], want[j], exprs[j], fs[m].Listing())
					}
				}
			}
			// Inputs must survive.
			for i := range srcs {
				got, err := srcs[i].Read(Backdoor())
				if err != nil {
					t.Fatal(err)
				}
				for w := range got {
					if got[w] != inputs[i][w] {
						t.Fatalf("trial %d mode %s: input %d corrupted at word %d", trial, md.name, i, w)
					}
				}
			}
			for _, v := range append(dsts, srcs...) {
				if err := md.sys.Free(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Determinism: one worker and the full pool agree on the
		// simulated clock.
		if s, p := modes[1].sys.ElapsedNS(), modes[0].sys.ElapsedNS(); s != p {
			t.Fatalf("trial %d: one-worker clock %v != parallel clock %v", trial, s, p)
		}
	}
	st := modes[0].sys.Stats()
	if st.FuncOps != int64(compiled) {
		t.Errorf("FuncOps = %d, want %d", st.FuncOps, compiled)
	}
	if st.RowOps == 0 || st.CoherenceNS == 0 {
		t.Errorf("func executions left RowOps=%d CoherenceNS=%v", st.RowOps, st.CoherenceNS)
	}
}

// TestFuncCompileCache checks that structurally identical Compile calls share
// one compiled train (the template-cache guarantee), regardless of name or
// expression-tree identity.
func TestFuncCompileCache(t *testing.T) {
	sys := compileTestSystem(t)
	f1, err := sys.Compile("a", Or(And(Var(0), Var(1)), Not(Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	// A distinct Expr tree of the same structure.
	f2, err := sys.Compile("b", Or(And(Var(0), Var(1)), Not(Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	if f1.c != f2.c {
		t.Error("structurally identical functions did not share a compiled train")
	}
	f3, err := sys.Compile("c", Or(And(Var(0), Var(1)), Not(Var(3))))
	if err != nil {
		t.Fatal(err)
	}
	if f3.c == f1.c {
		t.Error("distinct functions share a compiled train")
	}
	// A Func is bound to its System.
	other := compileTestSystem(t)
	d := other.MustAlloc(int64(other.RowSizeBits()))
	srcs := make([]*Bitvector, f1.NumInputs())
	for i := range srcs {
		srcs[i] = other.MustAlloc(int64(other.RowSizeBits()))
	}
	if err := f1.Run(d, srcs...); !errors.Is(err, ErrForeignSystem) {
		t.Errorf("cross-system Run error = %v, want ErrForeignSystem", err)
	}
}

// TestFuncAliasRules pins the in-place contract: aliasing is legal exactly
// when the train's reads of the aliased input all precede the output's first
// write.
func TestFuncAliasRules(t *testing.T) {
	sys := compileTestSystem(t)
	bits := int64(sys.RowSizeBits())

	// And reads both inputs before the TRA that stores the output, so
	// dst == src is legal in-place.
	and2, err := sys.Compile("and2", And(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	wa := make([]uint64, a.WordCount())
	wb := make([]uint64, b.WordCount())
	rng := rand.New(rand.NewSource(5))
	for i := range wa {
		wa[i], wb[i] = rng.Uint64(), rng.Uint64()
	}
	if err := a.Write(wa, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(wb, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := and2.Run(a, a, b); err != nil {
		t.Fatalf("legal in-place And rejected: %v", err)
	}
	got, err := a.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != wa[i]&wb[i] {
			t.Fatalf("in-place And word %d: %016x != %016x & %016x", i, got[i], wa[i], wb[i])
		}
	}

	// The 8-bit adder stores its low sum bits long before it last reads the
	// high operand bits: aliasing sum[0] onto a late-read input must fail.
	add8, err := sys.CompileAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]*Bitvector, add8.NumInputs())
	for i := range srcs {
		srcs[i] = sys.MustAlloc(bits)
	}
	dsts := make([]*Bitvector, add8.NumOutputs())
	for j := range dsts {
		dsts[j] = sys.MustAlloc(bits)
	}
	dsts[0] = srcs[15] // sum bit 0 aliases b's top bit
	if err := add8.RunMulti(dsts, srcs...); !errors.Is(err, ErrAliasedOperands) {
		t.Errorf("hazardous alias error = %v, want ErrAliasedOperands", err)
	}

	// Two outputs on one bitvector are always rejected.
	dsts[0] = dsts[1]
	if err := add8.RunMulti(dsts, srcs...); !errors.Is(err, ErrAliasedOperands) {
		t.Errorf("duplicate outputs error = %v, want ErrAliasedOperands", err)
	}

	// Arity mismatch.
	if err := and2.Run(a, b); err == nil || !strings.Contains(err.Error(), "want 2") {
		t.Errorf("arity error = %v, want operand-count report", err)
	}
}

// TestBatchCall checks compiled functions as batch citizens: data
// dependencies between chained calls are honored, independent calls share
// the batch, and the report/stats reflect the executions.
func TestBatchCall(t *testing.T) {
	sys := compileTestSystem(t)
	bits := 2 * int64(sys.RowSizeBits())
	words := int(bits / 64)

	and2, err := sys.Compile("and2", And(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}
	or2, err := sys.Compile("or2", Or(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	load := func() (*Bitvector, []uint64) {
		v := sys.MustAlloc(bits)
		w := make([]uint64, words)
		for i := range w {
			w[i] = rng.Uint64()
		}
		if err := v.Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
		return v, w
	}
	x, wx := load()
	y, wy := load()
	z, wz := load()
	tmp, out := sys.MustAlloc(bits), sys.MustAlloc(bits)

	batch := sys.NewBatch()
	if err := batch.Call(and2, []*Bitvector{tmp}, x, y); err != nil {
		t.Fatal(err)
	}
	if err := batch.Call(or2, []*Bitvector{out}, tmp, z); err != nil {
		t.Fatal(err)
	}
	rep, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 2 || rep.Waves != 2 {
		t.Errorf("report %+v, want 2 ops in 2 waves (chained calls conflict)", rep)
	}
	got, err := out.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := (wx[i] & wy[i]) | wz[i]; got[i] != want {
			t.Fatalf("word %d: %016x, want %016x", i, got[i], want)
		}
	}
	if st := sys.Stats(); st.FuncOps != 2 {
		t.Errorf("FuncOps = %d, want 2", st.FuncOps)
	}

	// Recording an aliased call fails at record time.
	b2 := sys.NewBatch()
	add2, err := sys.CompileAdder(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Call(add2, []*Bitvector{x, x, tmp}, x, y, z, out); !errors.Is(err, ErrAliasedOperands) {
		t.Errorf("batch alias error = %v, want ErrAliasedOperands", err)
	}
}

// TestPopcountVertical checks the in-DRAM carry-save popcount: per-lane
// counts across n vectors against native Go counting, plus the scaffolding
// accounting (temporaries freed, only count bits surviving).
func TestPopcountVertical(t *testing.T) {
	sys := compileTestSystem(t)
	bits := int64(sys.RowSizeBits())
	words := int(bits / 64)
	rng := rand.New(rand.NewSource(13))

	const n = 7
	vs := make([]*Bitvector, n)
	data := make([][]uint64, n)
	for i := range vs {
		vs[i] = sys.MustAlloc(bits)
		data[i] = make([]uint64, words)
		for w := range data[i] {
			data[i][w] = rng.Uint64()
		}
		if err := vs[i].Write(data[i], Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := sys.FreeRows()

	outs, err := sys.PopcountVertical(vs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 { // ceil(log2(8)) bits count 0..7
		t.Fatalf("got %d count bits, want 3", len(outs))
	}
	outWords := make([][]uint64, len(outs))
	for j, o := range outs {
		if outWords[j], err = o.Read(Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	for l := int64(0); l < bits; l++ {
		w, bit := l/64, uint(l%64)
		want := 0
		for i := 0; i < n; i++ {
			if data[i][w]>>bit&1 == 1 {
				want++
			}
		}
		got := 0
		for j := range outWords {
			if outWords[j][w]>>bit&1 == 1 {
				got |= 1 << j
			}
		}
		if got != want {
			t.Fatalf("lane %d: counted %d in-DRAM, want %d", l, got, want)
		}
	}
	// Only the count bits remain allocated; every temporary was freed.
	rowsPer := vs[0].Rows()
	if free := sys.FreeRows(); free != freeBefore-len(outs)*rowsPer {
		t.Errorf("free rows %d after popcount, want %d (outputs only)", free, freeBefore-len(outs)*rowsPer)
	}
	// 7 inputs compress through exactly 4 full adders.
	if st := sys.Stats(); st.FuncOps != 4 {
		t.Errorf("FuncOps = %d, want 4 carry-save adders", st.FuncOps)
	}
	for _, o := range outs {
		if err := sys.Free(o); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuncRunAllocsPerRow guards the fused fast path: once warm, a compiled
// function allocates nothing per row — a 64-row Run allocates exactly as
// often as an 8-row Run — for a three-gate function and for CompileLess(4),
// whose net-effect program needs several scratch slots per bank.
func TestFuncRunAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	sys, err := New(WithDRAM(DRAMConfig{
		Geometry: dram.Geometry{Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 256, RowSizeBytes: 64},
		Timing:   dram.DDR3_1600(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	mix, err := sys.Compile("mix", Or(And(Var(0), Var(1)), Xor(Var(1), Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	less, err := sys.CompileLess(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Func{mix, less} {
		allocsAt := func(rows int) float64 {
			bits := int64(rows * sys.RowSizeBits())
			d := sys.MustAlloc(bits)
			srcs := make([]*Bitvector, f.NumInputs())
			for i := range srcs {
				srcs[i] = sys.MustAlloc(bits)
			}
			run := func() {
				if err := f.Run(d, srcs...); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				run() // warm the engine, bank timelines and scratch
			}
			return testing.AllocsPerRun(100, run)
		}
		if small, large := allocsAt(8), allocsAt(64); small != large {
			t.Errorf("%s: %v allocs at 8 rows, %v at 64 rows, want equal (0/row)", f.Name(), small, large)
		}
	}
}

// BenchmarkFuncRun measures the compiled-function hot path end to end
// (parallel scheduling, untraced); allocs/op stays flat as rows grow.
// mix-rows64 runs a three-gate function on the small test geometry;
// less4-rows128 runs CompileLess(4) over 128 rows of the default 8 KiB
// geometry, the range predicate of the bitmap-index workloads.
func BenchmarkFuncRun(b *testing.B) {
	cases := []struct {
		name    string
		rows    int
		sys     func() *System
		compile func(*System) (*Func, error)
	}{
		{"mix-rows64", 64, func() *System { return compileTestSystem(b) }, func(s *System) (*Func, error) {
			return s.Compile("mix", Or(And(Var(0), Var(1)), Xor(Var(1), Var(2))))
		}},
		{"less4-rows128", 128, func() *System {
			s, err := New()
			if err != nil {
				b.Fatal(err)
			}
			return s
		}, func(s *System) (*Func, error) { return s.CompileLess(4) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sys := tc.sys()
			f, err := tc.compile(sys)
			if err != nil {
				b.Fatal(err)
			}
			bits := int64(tc.rows * sys.RowSizeBits())
			d := sys.MustAlloc(bits)
			srcs := make([]*Bitvector, f.NumInputs())
			rng := rand.New(rand.NewSource(1))
			for i := range srcs {
				srcs[i] = sys.MustAlloc(bits)
				w := make([]uint64, srcs[i].WordCount())
				for k := range w {
					w[k] = rng.Uint64()
				}
				if err := srcs[i].Write(w, Backdoor()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Run(d, srcs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
