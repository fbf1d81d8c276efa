package compile

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

var update = flag.Bool("update", false, "rewrite golden listings in testdata")

func testController(t *testing.T) *controller.Controller {
	t.Helper()
	return testControllerRows(t, 64)
}

// testControllerRows is testController with rowBytes-byte rows.
func testControllerRows(t *testing.T, rowBytes int) *controller.Controller {
	t.Helper()
	g := dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 64, RowSizeBytes: rowBytes}
	d, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
	if err != nil {
		t.Fatal(err)
	}
	return controller.New(d)
}

// nilInjector is a fault injector that never faults.  Installing it makes
// FusedEligible false, forcing ExecuteTrain onto the step-by-step path — the
// external equivalent of the controller package's noFuse hook.
type nilInjector struct{}

func (nilInjector) TRAFaultMask(dram.FaultContext, int) []uint64 { return nil }
func (nilInjector) DCCFaultMask(dram.FaultContext, int) []uint64 { return nil }

// runCompiled executes c's train with the given input rows on ctl, returning
// the output rows.  Inputs occupy D(0..), outputs D(nIn..).
func runCompiled(t *testing.T, ctl *controller.Controller, c *Compiled, inputs [][]uint64) ([][]uint64, float64) {
	t.Helper()
	dev := ctl.Device()
	rows := make([]dram.RowAddr, c.NumInputs+c.NumOutputs)
	for i := range rows {
		rows[i] = dram.D(i)
	}
	for i, in := range inputs {
		if err := dev.PokeRow(dram.PhysAddr{Row: rows[i]}, in); err != nil {
			t.Fatal(err)
		}
	}
	lat, err := ctl.ExecuteTrain(c.Train, 0, 0, rows)
	if err != nil {
		t.Fatalf("%s: %v", c.Train.Name(), err)
	}
	outs := make([][]uint64, c.NumOutputs)
	for j := range outs {
		got, err := dev.PeekRow(dram.PhysAddr{Row: rows[c.NumInputs+j]})
		if err != nil {
			t.Fatal(err)
		}
		outs[j] = got
	}
	return outs, lat
}

// compiledDiffRowBytes are the row sizes of the compiled-train differential:
// one evaluation block of the fused evaluator, whole blocks, and a partial
// last block.
var compiledDiffRowBytes = []int{64, 8 << 10, 8000}

// sameState fails unless the fused and stepwise controllers agree on every
// cell of their subarray — all data rows, T0–T3, DCC0 and DCC1 — and on
// controller and device stats.
func sameState(t *testing.T, label string, fused, stepwise *controller.Controller) {
	t.Helper()
	if fused.Stats() != stepwise.Stats() {
		t.Fatalf("%s: controller stats diverge:\n fused %+v\n  step %+v", label, fused.Stats(), stepwise.Stats())
	}
	if fused.Device().Stats() != stepwise.Device().Stats() {
		t.Fatalf("%s: device stats diverge:\n fused %+v\n  step %+v", label, fused.Device().Stats(), stepwise.Device().Stats())
	}
	saF, saS := fused.Device().Bank(0).Subarray(0), stepwise.Device().Bank(0).Subarray(0)
	wls := []dram.Wordline{
		{Kind: dram.WLT, Index: 0}, {Kind: dram.WLT, Index: 1}, {Kind: dram.WLT, Index: 2}, {Kind: dram.WLT, Index: 3},
		{Kind: dram.WLDCCData, Index: 0}, {Kind: dram.WLDCCData, Index: 1},
	}
	for i := 0; i < fused.Device().Geometry().DataRows(); i++ {
		wls = append(wls, dram.Wordline{Kind: dram.WLData, Index: i})
	}
	for _, wl := range wls {
		got, want := saF.PeekWordline(wl), saS.PeekWordline(wl)
		for w := range got {
			if got[w] != want[w] {
				t.Fatalf("%s: %v word %d: fused %016x, stepwise %016x", label, wl, w, got[w], want[w])
			}
		}
	}
}

// TestCompiledTrainsMatchEval is the differential property test: compiled
// trains — Less(4), Equal(3), the full adder, and random expression DAGs —
// are executed in-DRAM on both the fused and the step-by-step path at several
// row sizes.  Every output word must match the pure-Go reference evaluator,
// source rows must survive unchanged, and after every train the two paths
// must agree on latency, stats, and the full subarray state.
func TestCompiledTrainsMatchEval(t *testing.T) {
	sum, carry := FullAdder(Var(0), Var(1), Var(2))
	named := []struct {
		name  string
		exprs []*Expr
	}{
		{"lt4", []*Expr{Less(4)}},
		{"eq3", []*Expr{Equal(3)}},
		{"fulladder", []*Expr{sum, carry}},
	}
	for _, rowBytes := range compiledDiffRowBytes {
		t.Run(fmt.Sprintf("row%dB", rowBytes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1701))
			fused := testControllerRows(t, rowBytes)
			stepwise := testControllerRows(t, rowBytes)
			stepwise.Device().SetFaultInjector(nilInjector{})
			words := fused.Device().Geometry().WordsPerRow()

			check := func(label string, exprs []*Expr, c *Compiled) {
				t.Helper()
				inputs := make([][]uint64, c.NumInputs)
				for i := range inputs {
					inputs[i] = randRow(rng, words)
				}
				gotF, latF := runCompiled(t, fused, c, inputs)
				gotS, latS := runCompiled(t, stepwise, c, inputs)
				if latF != latS {
					t.Errorf("%s: fused latency %v != stepwise %v", label, latF, latS)
				}
				vars := make([]uint64, c.NumInputs)
				for w := 0; w < words; w++ {
					for i := range vars {
						vars[i] = inputs[i][w]
					}
					want := EvalAll(exprs, vars)
					for j := range exprs {
						if gotF[j][w] != want[j] {
							t.Fatalf("%s out %d word %d: fused %016x, reference %016x\nexpr: %v\ntrain:\n%s",
								label, j, w, gotF[j][w], want[j], exprs[j], c.Listing())
						}
						if gotS[j][w] != want[j] {
							t.Fatalf("%s out %d word %d: stepwise %016x, reference %016x\nexpr: %v\ntrain:\n%s",
								label, j, w, gotS[j][w], want[j], exprs[j], c.Listing())
						}
					}
				}
				// Source rows must be intact after both paths.
				for i, in := range inputs {
					got, err := fused.Device().PeekRow(dram.PhysAddr{Row: dram.D(i)})
					if err != nil {
						t.Fatal(err)
					}
					for w := range got {
						if got[w] != in[w] {
							t.Fatalf("%s: input row %d corrupted (word %d: %016x != %016x)",
								label, i, w, got[w], in[w])
						}
					}
				}
				sameState(t, label, fused, stepwise)
			}

			for _, nf := range named {
				c, err := CompileFn(nf.name, nf.exprs...)
				if err != nil {
					t.Fatal(err)
				}
				check(nf.name, nf.exprs, c)
			}
			compiled, spilled := 0, 0
			for trial := 0; compiled < 250; trial++ {
				nOut := 1 + rng.Intn(3)
				exprs := make([]*Expr, nOut)
				for j := range exprs {
					exprs[j] = randomExpr(rng, 3, 5)
				}
				c, err := CompileFn("rand", exprs...)
				if err != nil {
					if _, ok := err.(*SpillError); !ok {
						t.Fatalf("trial %d: %v (exprs %v)", trial, err, exprs)
					}
					spilled++
					continue
				}
				compiled++
				check(fmt.Sprintf("trial %d", trial), exprs, c)
			}
			t.Logf("%d functions compiled, %d spilled", compiled, spilled)
			want := int64(compiled + len(named))
			if st := fused.Stats(); st.Trains != want {
				t.Errorf("fused controller counted %d trains, want %d", st.Trains, want)
			}
			if st := stepwise.Stats(); st.Trains != want {
				t.Errorf("stepwise controller counted %d trains, want %d", st.Trains, want)
			}
		})
	}
}

func randRow(rng *rand.Rand, words int) []uint64 {
	r := make([]uint64, words)
	for i := range r {
		r[i] = rng.Uint64()
	}
	return r
}

// TestRippleAdd8InDRAM runs the compiled 8-bit adder over random operand
// bytes in the vertical (bit-serial) layout and checks 9-bit sums lane by
// lane against native Go addition.
func TestRippleAdd8InDRAM(t *testing.T) {
	const width = 8
	c, err := CompileFn("add8", RippleAdd(width)...)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs != 2*width || c.NumOutputs != width+1 {
		t.Fatalf("add8 layout: %d inputs, %d outputs", c.NumInputs, c.NumOutputs)
	}
	ctl := testController(t)
	words := ctl.Device().Geometry().WordsPerRow()
	rng := rand.New(rand.NewSource(99))

	lanes := words * 64
	a := make([]uint16, lanes)
	b := make([]uint16, lanes)
	for l := range a {
		a[l] = uint16(rng.Intn(256))
		b[l] = uint16(rng.Intn(256))
	}
	// Vertical layout: input row i holds bit i of a (rows 0..7) or of b
	// (rows 8..15) for every lane.
	inputs := make([][]uint64, 2*width)
	for i := range inputs {
		row := make([]uint64, words)
		for l := 0; l < lanes; l++ {
			var bit uint16
			if i < width {
				bit = (a[l] >> uint(i)) & 1
			} else {
				bit = (b[l] >> uint(i-width)) & 1
			}
			if bit != 0 {
				row[l/64] |= 1 << uint(l%64)
			}
		}
		inputs[i] = row
	}
	outs, _ := runCompiled(t, ctl, c, inputs)
	for l := 0; l < lanes; l++ {
		var got uint16
		for j := 0; j <= width; j++ {
			if outs[j][l/64]>>(uint(l%64))&1 == 1 {
				got |= 1 << uint(j)
			}
		}
		if want := a[l] + b[l]; got != want {
			t.Fatalf("lane %d: %d + %d = %d in-DRAM, want %d", l, a[l], b[l], got, want)
		}
	}
}

// TestGoldenListings pins the compiled command trains of the full adder and
// the 8-bit ripple-carry adder.  Run with -update to rewrite.
func TestGoldenListings(t *testing.T) {
	cases := []struct {
		file  string
		exprs []*Expr
	}{
		{"fulladder.txt", func() []*Expr {
			s, co := FullAdder(Var(0), Var(1), Var(2))
			return []*Expr{s, co}
		}()},
		{"add8.txt", RippleAdd(8)},
	}
	for _, tc := range cases {
		c, err := CompileFn(tc.file[:len(tc.file)-4], tc.exprs...)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		got := c.Listing()
		path := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", tc.file, err)
		}
		if got != string(want) {
			t.Errorf("%s: compiled train drifted from golden listing:\n--- got ---\n%s\n--- want ---\n%s",
				tc.file, got, want)
		}
	}
}

// TestArithHelpers checks Equal and Less end to end on exhaustive 4-bit
// operand pairs packed into the truth-table pattern words.
func TestArithHelpers(t *testing.T) {
	const width = 4
	eq, err := CompileFn("eq4", Equal(width))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := CompileFn("lt4", Less(width))
	if err != nil {
		t.Fatal(err)
	}
	ctl := testController(t)
	words := ctl.Device().Geometry().WordsPerRow()

	// 256 lanes enumerate every (a,b) pair; lane l has a = l&15, b = l>>4.
	inputs := make([][]uint64, 2*width)
	for i := range inputs {
		row := make([]uint64, words)
		for l := 0; l < 256; l++ {
			ab := uint(l)
			var bit uint
			if i < width {
				bit = (ab >> uint(i)) & 1
			} else {
				bit = (ab >> uint(4+i-width)) & 1
			}
			if bit != 0 {
				row[l/64] |= 1 << uint(l%64)
			}
		}
		inputs[i] = row
	}
	eqOut, _ := runCompiled(t, ctl, eq, inputs)
	ltOut, _ := runCompiled(t, ctl, lt, inputs)
	for l := 0; l < 256; l++ {
		a, b := l&15, l>>4
		gotEq := eqOut[0][l/64]>>(uint(l%64))&1 == 1
		gotLt := ltOut[0][l/64]>>(uint(l%64))&1 == 1
		if gotEq != (a == b) {
			t.Fatalf("eq4 lane %d: %d == %d reported %v", l, a, b, gotEq)
		}
		if gotLt != (a < b) {
			t.Fatalf("lt4 lane %d: %d < %d reported %v", l, a, b, gotLt)
		}
	}
}
