package ambit

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

// smallSystem returns a System over a compact device so tests stay fast.
func smallSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DRAM.Geometry = dram.Geometry{
		Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 128,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

func TestNewSystemDefault(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if s.RowSizeBits() != 8192*8 {
		t.Errorf("RowSizeBits = %d", s.RowSizeBits())
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Geometry.Banks = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("bad geometry accepted")
	}
	cfg = DefaultConfig()
	cfg.Energy.ActivateNJ = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Error("bad energy model accepted")
	}
}

func TestAllocShapesAndColocation(t *testing.T) {
	s := smallSystem(t)
	bits := int64(s.RowSizeBits() * 5) // 5 rows
	a := s.MustAlloc(bits)
	b := s.MustAlloc(bits)
	if a.Rows() != 5 || b.Rows() != 5 {
		t.Fatalf("rows = %d/%d, want 5", a.Rows(), b.Rows())
	}
	if !a.SameShape(b) {
		t.Fatal("two same-size allocations not co-located")
	}
	// Corresponding rows must share bank+subarray but be distinct rows.
	for r := 0; r < 5; r++ {
		pa, pb := a.Row(r), b.Row(r)
		if pa.Bank != pb.Bank || pa.Subarray != pb.Subarray {
			t.Fatalf("row %d not co-located: %v vs %v", r, pa, pb)
		}
		if pa.Row == pb.Row {
			t.Fatalf("row %d aliased: %v", r, pa)
		}
	}
	// Rows of one vector spread across banks (parallelism).
	banks := map[int]bool{}
	for r := 0; r < 5; r++ {
		banks[a.Row(r).Bank] = true
	}
	if len(banks) < 2 {
		t.Error("allocation does not spread across banks")
	}
}

func TestAllocRoundsUpAndValidates(t *testing.T) {
	s := smallSystem(t)
	v := s.MustAlloc(1)
	if v.Rows() != 1 {
		t.Errorf("1-bit alloc rows = %d", v.Rows())
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
	if _, err := s.Alloc(0); err == nil {
		t.Error("Alloc(0) accepted")
	}
	if _, err := s.Alloc(-5); err == nil {
		t.Error("Alloc(-5) accepted")
	}
}

func TestAllocExhaustion(t *testing.T) {
	s := smallSystem(t)
	free := s.FreeRows()
	if free <= 0 {
		t.Fatal("no free rows")
	}
	if _, err := s.Alloc(int64(s.RowSizeBits()) * int64(free+1)); err == nil {
		t.Error("over-allocation accepted")
	}
}

func TestLoadPeekRoundTrip(t *testing.T) {
	s := smallSystem(t)
	rng := rand.New(rand.NewSource(1))
	v := s.MustAlloc(int64(s.RowSizeBits() * 3))
	data := randWords(rng, v.WordCount())
	if err := v.Write(data, Backdoor()); err != nil {
		t.Fatal(err)
	}
	got, err := v.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], data[i])
		}
	}
	// Load with short data zero-fills the tail.
	if err := v.Write(data[:3], Backdoor()); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Read(Backdoor())
	for i := 3; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("tail word %d = %#x, want 0", i, got[i])
		}
	}
	if err := v.Write(make([]uint64, v.WordCount()+1), Backdoor()); err == nil {
		t.Error("oversized Load accepted")
	}
}

func TestWriteReadChargesChannel(t *testing.T) {
	s := smallSystem(t)
	rng := rand.New(rand.NewSource(2))
	v := s.MustAlloc(int64(s.RowSizeBits()))
	data := randWords(rng, v.WordCount())
	if err := v.Write(data); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ChannelBytes == 0 || s.Stats().ElapsedNS == 0 {
		t.Error("Write charged nothing")
	}
	got, err := v.Read()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
	if err := v.Write(make([]uint64, v.WordCount()+1)); err == nil {
		t.Error("oversized Write accepted")
	}
}

func TestAllBulkOpsFunctional(t *testing.T) {
	ops := []struct {
		name string
		do   func(s *System, d, a, b *Bitvector) error
		eval func(a, b uint64) uint64
	}{
		{"and", func(s *System, d, a, b *Bitvector) error { return s.And(d, a, b) }, func(a, b uint64) uint64 { return a & b }},
		{"or", func(s *System, d, a, b *Bitvector) error { return s.Or(d, a, b) }, func(a, b uint64) uint64 { return a | b }},
		{"xor", func(s *System, d, a, b *Bitvector) error { return s.Xor(d, a, b) }, func(a, b uint64) uint64 { return a ^ b }},
		{"nand", func(s *System, d, a, b *Bitvector) error { return s.Nand(d, a, b) }, func(a, b uint64) uint64 { return ^(a & b) }},
		{"nor", func(s *System, d, a, b *Bitvector) error { return s.Nor(d, a, b) }, func(a, b uint64) uint64 { return ^(a | b) }},
		{"xnor", func(s *System, d, a, b *Bitvector) error { return s.Xnor(d, a, b) }, func(a, b uint64) uint64 { return ^(a ^ b) }},
		{"not", func(s *System, d, a, b *Bitvector) error { return s.Not(d, a) }, func(a, b uint64) uint64 { return ^a }},
	}
	for _, tc := range ops {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := smallSystem(t)
			rng := rand.New(rand.NewSource(3))
			bits := int64(s.RowSizeBits() * 6) // multiple rows, crosses all banks
			a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
			da, db := randWords(rng, a.WordCount()), randWords(rng, b.WordCount())
			if err := a.Write(da, Backdoor()); err != nil {
				t.Fatal(err)
			}
			if err := b.Write(db, Backdoor()); err != nil {
				t.Fatal(err)
			}
			if err := tc.do(s, d, a, b); err != nil {
				t.Fatal(err)
			}
			got, err := d.Read(Backdoor())
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if want := tc.eval(da[i], db[i]); got[i] != want {
					t.Fatalf("%s word %d = %#x, want %#x", tc.name, i, got[i], want)
				}
			}
			if s.Stats().ElapsedNS <= 0 {
				t.Error("no time charged")
			}
		})
	}
}

func TestOpAliasingDestination(t *testing.T) {
	// dst == src must work: the controller operates on copies in the
	// designated rows (Section 3.3).
	s := smallSystem(t)
	rng := rand.New(rand.NewSource(4))
	bits := int64(s.RowSizeBits())
	a, b := s.MustAlloc(bits), s.MustAlloc(bits)
	da, db := randWords(rng, a.WordCount()), randWords(rng, b.WordCount())
	if err := a.Write(da, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(db, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := s.And(a, a, b); err != nil { // a = a & b
		t.Fatal(err)
	}
	got, _ := a.Read(Backdoor())
	for i := range got {
		if got[i] != da[i]&db[i] {
			t.Fatalf("aliased and word %d wrong", i)
		}
	}
}

func TestOpShapeMismatchRejected(t *testing.T) {
	s := smallSystem(t)
	a := s.MustAlloc(int64(s.RowSizeBits()))
	b := s.MustAlloc(int64(s.RowSizeBits() * 2))
	d := s.MustAlloc(int64(s.RowSizeBits()))
	if err := s.And(d, a, b); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("size-mismatched operands: err = %v, want ErrShapeMismatch", err)
	}
	if err := s.And(d, a, nil); !errors.Is(err, ErrNilOperand) {
		t.Errorf("nil operand: err = %v, want ErrNilOperand", err)
	}
	s2 := smallSystem(t)
	foreign := s2.MustAlloc(int64(s.RowSizeBits()))
	if err := s.And(d, a, foreign); !errors.Is(err, ErrForeignSystem) {
		t.Errorf("foreign-system operand: err = %v, want ErrForeignSystem", err)
	}
}

func TestOpsProperty(t *testing.T) {
	// Property check through the full public API path.
	cfg := DefaultConfig()
	cfg.DRAM.Geometry = dram.Geometry{Banks: 2, SubarraysPerBank: 1, RowsPerSubarray: 32, RowSizeBytes: 64}
	f := func(x, y uint64, opIdx uint8) bool {
		op := controller.Ops[int(opIdx)%len(controller.Ops)]
		s, err := NewSystem(cfg)
		if err != nil {
			return false
		}
		bits := int64(s.RowSizeBits())
		a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
		fill := func(v *Bitvector, val uint64) bool {
			w := make([]uint64, v.WordCount())
			for i := range w {
				w[i] = val
			}
			return v.Write(w, Backdoor()) == nil
		}
		if !fill(a, x) || !fill(b, y) {
			return false
		}
		if err := s.Apply(op, d, a, b); err != nil {
			return false
		}
		got, err := d.Read(Backdoor())
		if err != nil {
			return false
		}
		return got[0] == op.Eval(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyAndFill(t *testing.T) {
	s := smallSystem(t)
	rng := rand.New(rand.NewSource(5))
	bits := int64(s.RowSizeBits() * 3)
	a, b := s.MustAlloc(bits), s.MustAlloc(bits)
	data := randWords(rng, a.WordCount())
	if err := a.Write(data, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := s.Copy(b, a); err != nil {
		t.Fatal(err)
	}
	got, _ := b.Read(Backdoor())
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("copy word %d mismatch", i)
		}
	}
	if err := s.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	got, _ = b.Read(Backdoor())
	for i := range got {
		if got[i] != ^uint64(0) {
			t.Fatalf("fill(1) word %d = %#x", i, got[i])
		}
	}
	if err := s.Fill(b, false); err != nil {
		t.Fatal(err)
	}
	got, _ = b.Read(Backdoor())
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("fill(0) word %d = %#x", i, got[i])
		}
	}
	if s.Stats().Copies == 0 {
		t.Error("copies not counted")
	}
}

func TestPopcount(t *testing.T) {
	s := smallSystem(t)
	v := s.MustAlloc(int64(s.RowSizeBits()))
	w := make([]uint64, v.WordCount())
	w[0] = 0b1011
	w[3] = ^uint64(0)
	if err := v.Write(w, Backdoor()); err != nil {
		t.Fatal(err)
	}
	n, err := s.Popcount(v)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3+64 {
		t.Errorf("Popcount = %d, want 67", n)
	}
	free, err := v.PopcountFree()
	if err != nil {
		t.Fatal(err)
	}
	if free != n {
		t.Errorf("PopcountFree = %d != %d", free, n)
	}
	if s.Stats().ChannelBytes == 0 {
		t.Error("Popcount did not charge channel traffic")
	}
}

func TestBitAccessors(t *testing.T) {
	s := smallSystem(t)
	v := s.MustAlloc(200)
	if err := v.SetBit(199, true); err != nil {
		t.Fatal(err)
	}
	got, err := v.Bit(199)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("bit 199 not set")
	}
	if err := v.SetBit(199, false); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Bit(199)
	if got {
		t.Error("bit 199 not cleared")
	}
	if _, err := v.Bit(200); err == nil {
		t.Error("out-of-range Bit accepted")
	}
	if err := v.SetBit(-1, true); err == nil {
		t.Error("out-of-range SetBit accepted")
	}
}

func TestTimingBankParallelism(t *testing.T) {
	// An op spanning R rows spread over B banks takes ceil(R/B) command
	// trains of latency, not R.
	s := smallSystem(t)
	banks := s.Device().Geometry().Banks
	bits := int64(s.RowSizeBits() * banks) // exactly one row per bank
	a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
	if err := s.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	oneRow := s.Controller().OpLatencyNS(controller.OpAnd)
	if got := s.Stats().ElapsedNS; got != oneRow {
		t.Errorf("one-row-per-bank and took %g ns, want %g (parallel banks)", got, oneRow)
	}
}

func TestTimingSerializesWithinBank(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Geometry = dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 64, RowSizeBytes: 64}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bits := int64(s.RowSizeBits() * 3)
	a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
	if err := s.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	oneRow := s.Controller().OpLatencyNS(controller.OpAnd)
	if got := s.Stats().ElapsedNS; got != 3*oneRow {
		t.Errorf("3 rows on one bank took %g ns, want %g", got, 3*oneRow)
	}
}

func TestCoherenceCharge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Geometry = dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 64, RowSizeBytes: 64}
	cfg.CoherenceNSPerRow = 100
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bits := int64(s.RowSizeBits())
	a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
	if err := s.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CoherenceNS; got != 200 { // 2 source rows
		t.Errorf("CoherenceNS = %g, want 200", got)
	}
	want := 200 + s.Controller().OpLatencyNS(controller.OpAnd)
	if got := s.Stats().ElapsedNS; got != want {
		t.Errorf("ElapsedNS = %g, want %g", got, want)
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := smallSystem(t)
	bits := int64(s.RowSizeBits())
	a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
	if s.EnergyNJ() != 0 {
		t.Error("energy before any op")
	}
	if err := s.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	e1 := s.EnergyNJ()
	if e1 <= 0 {
		t.Error("no energy after op")
	}
	if _, err := s.Popcount(d); err != nil {
		t.Fatal(err)
	}
	if s.EnergyNJ() <= e1 {
		t.Error("channel traffic added no energy")
	}
}

func TestResetStats(t *testing.T) {
	s := smallSystem(t)
	bits := int64(s.RowSizeBits())
	a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
	if err := s.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if s.Stats().ElapsedNS != 0 || s.Stats().TotalBulkOps() != 0 {
		t.Error("ResetStats incomplete")
	}
	if s.EnergyNJ() != 0 {
		t.Error("energy not reset")
	}
	// Timing restarts cleanly: a fresh op costs exactly one train.
	if err := s.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	oneRow := s.Controller().OpLatencyNS(controller.OpAnd)
	if got := s.Stats().ElapsedNS; got != oneRow {
		t.Errorf("post-reset op took %g ns, want %g", got, oneRow)
	}
}

func TestStatsString(t *testing.T) {
	s := smallSystem(t)
	bits := int64(s.RowSizeBits())
	a, b, d := s.MustAlloc(bits), s.MustAlloc(bits), s.MustAlloc(bits)
	if err := s.Xor(d, a, b); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().String(); got == "" {
		t.Error("empty stats string")
	}
	if s.Stats().TotalBulkOps() != 1 {
		t.Error("bulk op not counted")
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := smallSystem(t)
	before := s.FreeRows()
	v := s.MustAlloc(int64(s.RowSizeBits() * 3))
	if s.FreeRows() != before-3 {
		t.Fatalf("FreeRows after alloc = %d, want %d", s.FreeRows(), before-3)
	}
	firstRow := v.Row(0)
	if err := s.Free(v); err != nil {
		t.Fatal(err)
	}
	if s.FreeRows() != before {
		t.Fatalf("FreeRows after free = %d, want %d", s.FreeRows(), before)
	}
	// Reallocation reuses the freed rows and stays co-located with a
	// fresh sibling of the same size.
	w := s.MustAlloc(int64(s.RowSizeBits() * 3))
	if w.Row(0) != firstRow {
		t.Errorf("freed row not reused: %v vs %v", w.Row(0), firstRow)
	}
	x := s.MustAlloc(int64(s.RowSizeBits() * 3))
	if !w.SameShape(x) {
		t.Error("recycled allocation broke co-location")
	}
	d := s.MustAlloc(int64(s.RowSizeBits() * 3))
	if err := s.And(d, w, x); err != nil {
		t.Fatalf("op on recycled rows: %v", err)
	}
}

func TestFreeValidation(t *testing.T) {
	s := smallSystem(t)
	v := s.MustAlloc(int64(s.RowSizeBits()))
	if err := s.Free(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(v); !errors.Is(err, ErrFreed) {
		t.Errorf("double free: err = %v, want ErrFreed", err)
	}
	if err := s.Free(nil); !errors.Is(err, ErrNilOperand) {
		t.Errorf("nil free: err = %v, want ErrNilOperand", err)
	}
	other := smallSystem(t)
	foreign := other.MustAlloc(int64(other.RowSizeBits()))
	if err := s.Free(foreign); !errors.Is(err, ErrForeignSystem) {
		t.Errorf("foreign free: err = %v, want ErrForeignSystem", err)
	}
	if _, err := v.Read(Backdoor()); !errors.Is(err, ErrFreed) {
		t.Errorf("Peek after Free: err = %v, want ErrFreed", err)
	}
}

func TestAllocExhaustionThenFreeRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Geometry = dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 20, RowSizeBytes: 64}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := s.MustAlloc(int64(s.RowSizeBits() * s.FreeRows()))
	if _, err := s.Alloc(1); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if err := s.Free(all); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}
