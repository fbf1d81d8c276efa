package ambit

// Steady-state allocation budgets for the hot paths the word-parallel
// rework targets: once pools are warm, a direct bulk op, a Popcount, and a
// zero-copy view access must not allocate at all.  These are hard
// regressions gates — a single stray per-op allocation reintroduces GC
// pressure on exactly the paths ambitbench measures in GB/s.

import (
	"math/rand"
	"testing"
)

// allocsSystem builds a System with three seeded 8-row vectors and warms
// every pool (worker goroutines, runner/train/row-buffer pools) so the
// measured window sees only steady-state behavior.
func allocsSystem(t *testing.T) (*System, *Bitvector, *Bitvector, *Bitvector) {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	bits := 8 * int64(sys.RowSizeBits())
	a, b, c := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(5))
	w := make([]uint64, a.WordCount())
	for i := range w {
		w[i] = rng.Uint64()
	}
	if err := a.Write(w, Backdoor()); err != nil {
		t.Fatal(err)
	}
	for i := range w {
		w[i] = rng.Uint64()
	}
	if err := b.Write(w, Backdoor()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sys.And(c, a, b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Xor(c, a, b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Not(c, c); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Popcount(c); err != nil {
			t.Fatal(err)
		}
	}
	return sys, a, b, c
}

// TestDirectOpSteadyStateAllocs: the direct-op path (parallel dispatch
// through the shared execution core, fused word-parallel kernels) is
// allocation-free once warm.
func TestDirectOpSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	sys, a, b, c := allocsSystem(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"And", func() error { return sys.And(c, a, b) }},
		{"Xor", func() error { return sys.Xor(c, a, b) }},
		{"Not", func() error { return sys.Not(c, a) }},
		{"Popcount", func() error { _, err := sys.Popcount(c); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, func() {
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s steady state: %v allocs/op, want 0", tc.name, n)
			}
		})
	}
}

// TestViewAccessSteadyStateAllocs: after the first Words() call
// materializes the cached row views, repeated view access — Words and the
// lock-holding ViewWords form — is allocation-free.
func TestViewAccessSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	_, _, _, c := allocsSystem(t)
	if _, err := c.Words(); err != nil { // materialize + cache the views
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Words(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Words steady state: %v allocs/op, want 0", n)
	}
	var sink uint64
	visit := func(views [][]uint64) error {
		for _, row := range views {
			sink += row[0]
		}
		return nil
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.ViewWords(visit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ViewWords steady state: %v allocs/op, want 0", n)
	}
	_ = sink
}

// TestTracedFuncRunSteadyStateAllocs: a traced Func.Run — events captured
// per bank into the tracer's ShardSet and replayed from the compiled train,
// the path every WithTelemetryAddr System takes — allocates nothing per row
// once warm: a 64-row run allocates exactly as often as an 8-row run, so
// only the per-call span bookkeeping remains.
func TestTracedFuncRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	sys, err := New(WithTracer(NewTracer(nopTraceSink{})))
	if err != nil {
		t.Fatal(err)
	}
	f, err := sys.Compile("mix", Or(And(Var(0), Var(1)), Xor(Var(1), Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(rows int) float64 {
		bits := int64(rows * sys.RowSizeBits())
		d := sys.MustAlloc(bits)
		srcs := []*Bitvector{sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)}
		run := func() {
			if err := f.Run(d, srcs...); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			run() // warm the shard buffers, pools and interned strings
		}
		return testing.AllocsPerRun(100, run)
	}
	small, large := allocsAt(8), allocsAt(64)
	if perRow := (large - small) / (64 - 8); perRow != 0 {
		t.Errorf("traced Func.Run: %v allocs at 8 rows, %v at 64 rows (%.3f/row), want 0/row", small, large, perRow)
	}
}
