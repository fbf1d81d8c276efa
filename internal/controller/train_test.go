package controller

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// andTrain is a hand-built Figure-8 style train: $2 = $0 & $1.
func andTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("and", 3, []TrainStep{
		{Kind: StepAAP, Op1: 0, A2: dram.B(0), Op2: -1, Comment: "T0 = a"},
		{Kind: StepAAP, Op1: 1, A2: dram.B(1), Op2: -1, Comment: "T1 = b"},
		{Kind: StepAAP, A1: dram.C(0), Op1: -1, A2: dram.B(2), Op2: -1, Comment: "T2 = 0"},
		{Kind: StepAAP, A1: dram.B(12), Op1: -1, Op2: 2, Comment: "out = T0 & T1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// notTrain is the dual-contact negation train: $1 = !$0.
func notTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("not", 2, []TrainStep{
		{Kind: StepAAP, Op1: 0, A2: dram.B(5), Op2: -1, Comment: "DCC0 = !a"},
		{Kind: StepAAP, A1: dram.B(4), Op1: -1, Op2: 1, Comment: "out = DCC0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrainValidation(t *testing.T) {
	ok := []TrainStep{{Kind: StepAAP, Op1: 0, A2: dram.B(0), Op2: -1}}
	cases := []struct {
		name     string
		operands int
		steps    []TrainStep
		wantErr  string
	}{
		{"no operands", 0, ok, "at least one operand"},
		{"empty", 1, nil, "empty step sequence"},
		{"op1 range", 1, []TrainStep{{Kind: StepAAP, Op1: 1, A2: dram.B(0), Op2: -1}}, "out of range"},
		{"op2 range", 1, []TrainStep{{Kind: StepAAP, Op1: 0, Op2: 3}}, "out of range"},
		{"fixed data row", 1, []TrainStep{{Kind: StepAAP, A1: dram.D(5), Op1: -1, A2: dram.B(0), Op2: -1}}, "data rows must be operand slots"},
		{"write control row", 1, []TrainStep{{Kind: StepAAP, Op1: 0, A2: dram.C(1), Op2: -1}}, "cannot write control row"},
		{"B index range", 1, []TrainStep{{Kind: StepAP, A1: dram.B(16), Op1: -1, Op2: -1}}, "out of range"},
	}
	for _, c := range cases {
		_, err := NewTrain(c.name, c.operands, c.steps)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestTrainCensus(t *testing.T) {
	tr := andTrain(t)
	if tr.AAPs() != 4 || tr.APs() != 0 {
		t.Errorf("and census: %d AAPs %d APs, want 4/0", tr.AAPs(), tr.APs())
	}
	// Steps 1-3 have exactly one B-group side; the TRA step's B12 vs $2 also
	// splits: all four AAPs are split-decoder eligible.
	if tr.splitAAPs != 4 {
		t.Errorf("and splitAAPs = %d, want 4", tr.splitAAPs)
	}
	// ACTIVATEs: four single-wordline sensings/copies plus one triple.
	if tr.acts != [3]int64{7, 0, 1} {
		t.Errorf("and acts = %v, want [7 0 1]", tr.acts)
	}
	if tr.pres != 4 {
		t.Errorf("and pres = %d, want 4", tr.pres)
	}
	if tr.FirstWriteStep(2) != 3 || tr.LastReadStep(0) != 0 || tr.FirstWriteStep(0) != -1 {
		t.Errorf("and operand access: firstWrite[2]=%d lastRead[0]=%d firstWrite[0]=%d",
			tr.FirstWriteStep(2), tr.LastReadStep(0), tr.FirstWriteStep(0))
	}

	// Two-wordline sensing (B8 raises ~DCC0 and T0) is census-legal but not
	// fusable.
	two, err := NewTrain("two", 1, []TrainStep{
		{Kind: StepAAP, A1: dram.B(8), Op1: -1, Op2: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if two.net != nil {
		t.Error("two-wordline sensing train has a net-effect program")
	}
	if tr.net == nil {
		t.Error("and train has no net-effect program")
	}
}

// TestNetProgramFolding pins the net-effect compilation of small trains: a
// TRA with a constant input folds to AND (with two, to its third input), a
// NOT feeding it folds into ANDNOT, NOT NOT cancels, dead nodes are dropped,
// and a cell keeping its initial value is not stored.
func TestNetProgramFolding(t *testing.T) {
	andNot, err := NewTrain("andnot", 3, []TrainStep{
		{Kind: StepAAP, Op1: 1, A2: dram.B(5), Op2: -1, Comment: "DCC0 = !b"},
		{Kind: StepAAP, Op1: 0, A2: dram.B(1), Op2: -1, Comment: "T1 = a"},
		{Kind: StepAAP, A1: dram.C(0), Op1: -1, A2: dram.B(2), Op2: -1, Comment: "T2 = 0"},
		{Kind: StepAAP, A1: dram.B(14), Op1: -1, Op2: 2, Comment: "out = T1 & DCC0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	notNot, err := NewTrain("notnot", 1, []TrainStep{
		{Kind: StepAAP, Op1: 0, A2: dram.B(5), Op2: -1, Comment: "DCC0 = !a"},
		{Kind: StepAAP, A1: dram.B(5), Op1: -1, A2: dram.B(3), Op2: -1, Comment: "T3 = !DCC0"},
		{Kind: StepAAP, A1: dram.B(0), Op1: -1, A2: dram.B(0), Op2: -1, Comment: "T0 = T0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tr     *Train
		ops    []netOp
		stores []int32 // stored cells
	}{
		// T0..T2 and out all hold a & b.
		{andTrain(t), []netOp{netLoad, netLoad, netAnd}, []int32{0, 1, 2, numFixedCells + 2}},
		// DCC0's !b is overwritten by the TRA and dropped.
		{andNot, []netOp{netLoad, netLoad, netAndNot}, []int32{1, 2, 4, numFixedCells + 2}},
		// T3 = a is read in place; T0 keeps its value and is not stored.
		{notNot, []netOp{netLoad, netNot}, []int32{3, 4}},
		// MAJ(0, 1, a) is a; the constant 0 is dead.
		{constTrain(t), []netOp{netConst, netLoad}, []int32{0, 1, 2, 5, numFixedCells + 1}},
	}
	for _, c := range cases {
		var ops []netOp
		for _, n := range c.tr.net.nodes {
			ops = append(ops, n.op)
		}
		var stores []int32
		for _, st := range c.tr.net.stores {
			stores = append(stores, st.cell)
		}
		if !reflect.DeepEqual(ops, c.ops) || !reflect.DeepEqual(stores, c.stores) {
			t.Errorf("%s: program ops %v stores %v, want ops %v stores %v", c.tr.Name(), ops, stores, c.ops, c.stores)
		}
	}
	if n := notNot.net.nodes[0]; n.op != netLoad || n.slot >= 0 {
		t.Errorf("notnot: T3's load %+v should be read in place", n)
	}
}

// trainDiffRowBytes are the row sizes the fused/stepwise train differential
// runs at: one evaluation block, whole blocks, and a partial last block.
var trainDiffRowBytes = []int{64, 8 << 10, 8000}

// trainTwins is a fused controller and its noFuse (stepwise) twin whose
// bank 0 / subarray 0 starts from identical random contents in every data
// row, T0–T3, DCC0 and DCC1.
type trainTwins struct {
	fused, step *Controller
	geom        dram.Geometry
}

func newTrainTwins(t *testing.T, rowBytes int, rng *rand.Rand) trainTwins {
	t.Helper()
	g := dram.Geometry{Banks: 2, SubarraysPerBank: 2, RowsPerSubarray: 32, RowSizeBytes: rowBytes}
	tw := trainTwins{geom: g}
	for _, c := range []**Controller{&tw.fused, &tw.step} {
		d, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
		if err != nil {
			t.Fatal(err)
		}
		*c = New(d)
	}
	tw.step.noFuse = true
	// Every single-wordline row of the subarray: the data rows, T0–T3
	// (B0–B3), DCC0 (B4) and DCC1 (B6).
	addrs := []dram.RowAddr{dram.B(0), dram.B(1), dram.B(2), dram.B(3), dram.B(4), dram.B(6)}
	for i := 0; i < g.DataRows(); i++ {
		addrs = append(addrs, dram.D(i))
	}
	for _, a := range addrs {
		row := randRow(rng, g.WordsPerRow())
		pokeRow(t, tw.fused, 0, 0, a, row)
		pokeRow(t, tw.step, 0, 0, a, row)
	}
	return tw
}

// run executes tr on both twins and demands identical latencies (equal to
// TrainLatencyNS), controller and device stats, and every cell of the
// subarray: all data rows, T0–T3, DCC0 and DCC1.
func (tw trainTwins) run(t *testing.T, tr *Train, rows []dram.RowAddr) {
	t.Helper()
	latF, err := tw.fused.ExecuteTrain(tr, 0, 0, rows)
	if err != nil {
		t.Fatalf("%s fused: %v", tr.Name(), err)
	}
	latS, err := tw.step.ExecuteTrain(tr, 0, 0, rows)
	if err != nil {
		t.Fatalf("%s stepwise: %v", tr.Name(), err)
	}
	if latF != latS {
		t.Errorf("%s: latency %v != %v", tr.Name(), latF, latS)
	}
	if want := tw.fused.TrainLatencyNS(tr); latF != want {
		t.Errorf("%s: executed latency %v != TrainLatencyNS %v", tr.Name(), latF, want)
	}
	if tw.fused.Stats() != tw.step.Stats() {
		t.Errorf("%s: controller stats diverge:\n fused %+v\n  step %+v", tr.Name(), tw.fused.Stats(), tw.step.Stats())
	}
	if tw.fused.Device().Stats() != tw.step.Device().Stats() {
		t.Errorf("%s: device stats diverge:\n fused %+v\n  step %+v", tr.Name(), tw.fused.Device().Stats(), tw.step.Device().Stats())
	}
	saF, saS := tw.fused.Device().Bank(0).Subarray(0), tw.step.Device().Bank(0).Subarray(0)
	wls := append([]dram.Wordline(nil), fixedCellWL[:]...)
	for i := 0; i < tw.geom.DataRows(); i++ {
		wls = append(wls, dram.Wordline{Kind: dram.WLData, Index: i})
	}
	for _, wl := range wls {
		if got, want := saF.PeekWordline(wl), saS.PeekWordline(wl); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v diverges between fused and stepwise execution", tr.Name(), wl)
		}
	}
}

// rotateTrain rotates values through the designated rows: every T row's
// final value is another T row's initial value, DCC0's is an operand's, and
// the operand gets DCC0's initial complement.  Its stores are only correct
// if the evaluator materialises a load before another store overwrites the
// cell behind it.
func rotateTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("rotate", 2, []TrainStep{
		{Kind: StepAAP, A1: dram.B(0), Op1: -1, A2: dram.B(6), Op2: -1, Comment: "DCC1 = T0"},
		{Kind: StepAAP, A1: dram.B(1), Op1: -1, A2: dram.B(0), Op2: -1, Comment: "T0 = T1"},
		{Kind: StepAAP, A1: dram.B(2), Op1: -1, A2: dram.B(1), Op2: -1, Comment: "T1 = T2"},
		{Kind: StepAAP, A1: dram.B(3), Op1: -1, A2: dram.B(2), Op2: -1, Comment: "T2 = T3"},
		{Kind: StepAAP, A1: dram.B(6), Op1: -1, A2: dram.B(3), Op2: -1, Comment: "T3 = DCC1"},
		{Kind: StepAAP, A1: dram.B(5), Op1: -1, Op2: 0, Comment: "a = !DCC0"},
		{Kind: StepAAP, Op1: 1, A2: dram.B(4), Op2: -1, Comment: "DCC0 = b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// constTrain stores constants and a majority that folds away:
// MAJ(0, 1, a) = a lands in T0–T2, and out and DCC1 (through its
// n-wordline) end all ones.
func constTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("const", 2, []TrainStep{
		{Kind: StepAAP, A1: dram.C(0), Op1: -1, A2: dram.B(0), Op2: -1, Comment: "T0 = 0"},
		{Kind: StepAAP, A1: dram.C(1), Op1: -1, A2: dram.B(1), Op2: -1, Comment: "T1 = 1"},
		{Kind: StepAAP, Op1: 0, A2: dram.B(2), Op2: -1, Comment: "T2 = a"},
		{Kind: StepAP, A1: dram.B(12), Op1: -1, Op2: -1, Comment: "T0 = T1 = T2 = MAJ(0, 1, a)"},
		{Kind: StepAAP, A1: dram.C(1), Op1: -1, Op2: 1, Comment: "out = 1"},
		{Kind: StepAAP, A1: dram.C(0), Op1: -1, A2: dram.B(7), Op2: -1, Comment: "DCC1 = !0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// clobberTrain writes its output before its last read of input b:
// out = a, then out = b & out.  Aliasing out with b is therefore not
// modelled by the net-effect program and must run stepwise.
func clobberTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("clobber", 3, []TrainStep{
		{Kind: StepAAP, Op1: 0, Op2: 2, Comment: "out = a"},
		{Kind: StepAAP, Op1: 1, A2: dram.B(0), Op2: -1, Comment: "T0 = b"},
		{Kind: StepAAP, Op1: 2, A2: dram.B(1), Op2: -1, Comment: "T1 = out"},
		{Kind: StepAAP, A1: dram.C(0), Op1: -1, A2: dram.B(2), Op2: -1, Comment: "T2 = 0"},
		{Kind: StepAAP, A1: dram.B(12), Op1: -1, Op2: 2, Comment: "out = T0 & T1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// forkTrain writes both polarities of its input: $1 = !$0, $2 = $0.  With
// $1 bound in place over $0 (legal: $0's last read precedes the first write
// of $1), the store of $2 reads $0's row after the store of $1 rewrote it,
// so it is only correct if the evaluator materialises that load first.
func forkTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("fork", 3, []TrainStep{
		{Kind: StepAAP, Op1: 0, A2: dram.B(5), Op2: -1, Comment: "DCC0 = !a"},
		{Kind: StepAAP, Op1: 0, Op2: 2, Comment: "out2 = a"},
		{Kind: StepAAP, A1: dram.B(4), Op1: -1, Op2: 1, Comment: "out1 = DCC0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrainFusedMatchesStepwise executes hand-built trains on twin
// controllers — fused and noFuse — at several row sizes and demands
// identical cells (operand rows and every designated row), latencies,
// controller stats, and device stats after every train.  The trains cover
// plain gates, values rotated through the T rows, and aliased operand rows:
// duplicate inputs, an in-place output, and an alias the net-effect program
// cannot model (which must take the stepwise path).
func TestTrainFusedMatchesStepwise(t *testing.T) {
	d := dram.D
	runs := []struct {
		tr    func(*testing.T) *Train
		rows  []dram.RowAddr
		exact bool // the net-effect program models this operand binding
	}{
		// First, while every designated row still holds distinct random
		// contents (a TRA leaves three of them equal).
		{rotateTrain, []dram.RowAddr{d(5), d(6)}, true},
		{andTrain, []dram.RowAddr{d(0), d(1), d(2)}, true},
		{notTrain, []dram.RowAddr{d(3), d(4)}, true},
		{andTrain, []dram.RowAddr{d(7), d(7), d(8)}, true},     // duplicate inputs
		{andTrain, []dram.RowAddr{d(9), d(10), d(9)}, true},    // in place after last read
		{notTrain, []dram.RowAddr{d(11), d(11)}, true},         // in place: out = !out
		{forkTrain, []dram.RowAddr{d(12), d(12), d(13)}, true}, // in place, then a copy of the old row
		{constTrain, []dram.RowAddr{d(1), d(2)}, true},
		{clobberTrain, []dram.RowAddr{d(0), d(1), d(2)}, true}, // distinct rows
		{clobberTrain, []dram.RowAddr{d(3), d(4), d(4)}, false},
		{clobberTrain, []dram.RowAddr{d(5), d(5), d(6)}, true},
	}
	for _, rowBytes := range trainDiffRowBytes {
		tw := newTrainTwins(t, rowBytes, rand.New(rand.NewSource(int64(rowBytes))))
		for i, r := range runs {
			tr := r.tr(t)
			if got := tr.netExact(r.rows); got != r.exact {
				t.Errorf("run %d (%s on %v): netExact = %v, want %v", i, tr.Name(), r.rows, got, r.exact)
			}
			tw.run(t, tr, r.rows)
		}
		if got := tw.fused.Stats().Trains; got != int64(len(runs)) {
			t.Errorf("%d-byte rows: Trains counter = %d, want %d", rowBytes, got, len(runs))
		}
	}
}

// TestTrainFusedFunctional checks fused trains against word-level ground
// truth, each on a fresh controller: $2 = $0 & $1 (with T0–T2 left holding
// the result), $1 = !$0, and the rotation's final state.
func TestTrainFusedFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := testGeom().WordsPerRow()
	t0, t1, t2, t3, dcc0, dcc1 := dram.B(0), dram.B(1), dram.B(2), dram.B(3), dram.B(4), dram.B(6)
	d0, d1, d2 := dram.D(0), dram.D(1), dram.D(2)
	and := func(x, y dram.RowAddr) func(map[dram.RowAddr][]uint64, int) uint64 {
		return func(in map[dram.RowAddr][]uint64, w int) uint64 { return in[x][w] & in[y][w] }
	}
	is := func(x dram.RowAddr) func(map[dram.RowAddr][]uint64, int) uint64 {
		return func(in map[dram.RowAddr][]uint64, w int) uint64 { return in[x][w] }
	}
	not := func(x dram.RowAddr) func(map[dram.RowAddr][]uint64, int) uint64 {
		return func(in map[dram.RowAddr][]uint64, w int) uint64 { return ^in[x][w] }
	}
	for _, r := range []struct {
		tr   *Train
		rows []dram.RowAddr
		want map[dram.RowAddr]func(map[dram.RowAddr][]uint64, int) uint64
	}{
		{andTrain(t), []dram.RowAddr{d0, d1, d2}, map[dram.RowAddr]func(map[dram.RowAddr][]uint64, int) uint64{
			d2: and(d0, d1), t0: and(d0, d1), t1: and(d0, d1), t2: and(d0, d1), d0: is(d0), t3: is(t3)}},
		{notTrain(t), []dram.RowAddr{d0, d1}, map[dram.RowAddr]func(map[dram.RowAddr][]uint64, int) uint64{
			d1: not(d0), dcc0: not(d0), d0: is(d0)}},
		{rotateTrain(t), []dram.RowAddr{d0, d1}, map[dram.RowAddr]func(map[dram.RowAddr][]uint64, int) uint64{
			dcc1: is(t0), t0: is(t1), t1: is(t2), t2: is(t3), t3: is(t0), d0: not(dcc0), dcc0: is(d1), d1: is(d1)}},
	} {
		c := testController(t)
		in := map[dram.RowAddr][]uint64{}
		for _, a := range []dram.RowAddr{t0, t1, t2, t3, dcc0, dcc1, d0, d1, d2} {
			in[a] = randRow(rng, words)
			pokeRow(t, c, 0, 0, a, in[a])
		}
		if _, err := c.ExecuteTrain(r.tr, 0, 0, r.rows); err != nil {
			t.Fatal(err)
		}
		for a, f := range r.want {
			got := peekRow(t, c, 0, 0, a)
			for w := range got {
				if got[w] != f(in, w) {
					t.Fatalf("%s: %v word %d: %016x, want %016x", r.tr.Name(), a, w, got[w], f(in, w))
				}
			}
		}
	}
}

// TestTrainTracedEventsMatchStepwise holds the train equivalent of the
// traced-fused guarantee: the fused evaluator's replayed event stream is
// byte-identical to what step-by-step execution emits.
func TestTrainTracedEventsMatchStepwise(t *testing.T) {
	pricer := func(kind StepKind, a1, a2 dram.RowAddr) float64 {
		e := 2.0 + float64(len(a1.String()))
		if kind == StepAAP {
			e += 0.5 * float64(len(a2.String()))
		}
		return e
	}
	rng := rand.New(rand.NewSource(23))
	words := testGeom().WordsPerRow()
	fusedSink, stepSink := obs.NewLastN(64), obs.NewLastN(64)
	fused, step := testController(t), testController(t)
	fused.SetTracer(obs.NewTracer(fusedSink), pricer)
	step.SetTracer(obs.NewTracer(stepSink), pricer)
	step.noFuse = true

	tr := andTrain(t)
	rows := []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)}
	for _, addr := range rows {
		row := randRow(rng, words)
		pokeRow(t, fused, 0, 0, addr, row)
		pokeRow(t, step, 0, 0, addr, row)
	}
	if _, err := fused.ExecuteTrain(tr, 0, 0, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := step.ExecuteTrain(tr, 0, 0, rows); err != nil {
		t.Fatal(err)
	}
	got, want := fusedSink.Events(), stepSink.Events()
	if len(got) != tr.Len() {
		t.Fatalf("fused path emitted %d events, want %d", len(got), tr.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced train events diverge:\n got %+v\nwant %+v", got, want)
	}
	if fused.Stats() != step.Stats() {
		t.Errorf("controller stats diverge under tracing:\n fused %+v\n  step %+v", fused.Stats(), step.Stats())
	}
}

// TestScheduleTrain checks the bank-timeline reservation: back-to-back
// scheduled trains on one bank serialize, and the completion times line up
// with TrainLatencyNS.
func TestScheduleTrain(t *testing.T) {
	c := testController(t)
	tr := andTrain(t)
	rows := []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)}
	lat := c.TrainLatencyNS(tr)
	end1, err := c.ScheduleTrain(tr, 0, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end1 != lat {
		t.Errorf("first train completes at %v, want %v", end1, lat)
	}
	// Requesting an earlier start must still queue behind the first train.
	end2, err := c.ScheduleTrain(tr, 0, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end2 != 2*lat {
		t.Errorf("second train completes at %v, want %v", end2, 2*lat)
	}
	// A different bank's timeline is independent.
	end3, err := c.ScheduleTrain(tr, 1, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end3 != lat {
		t.Errorf("other-bank train completes at %v, want %v", end3, lat)
	}
}
