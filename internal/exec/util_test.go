package exec

import (
	"math"
	"sync"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestUtilRecordBins checks interval-to-bin folding: splitting across bin
// boundaries, exact busy fractions, and padding to a common timeline length.
func TestUtilRecordBins(t *testing.T) {
	u := NewUtil(3, 100)

	u.Record(0, 0, 50)    // half of bin 0
	u.Record(0, 150, 350) // half of bin 1, all of bin 2, half of bin 3
	u.Record(1, 90, 110)  // straddles bins 0/1: 10 ns each
	u.Record(2, 400, 400) // zero-length: ignored
	u.Record(2, 200, 100) // inverted: ignored
	u.Record(-1, 0, 100)  // bad bank: ignored
	u.Record(3, 0, 100)   // bad bank: ignored
	u.Record(2, -50, 50)  // negative start: ignored

	snap := u.Snapshot()
	if snap.BinNS != 100 || snap.EndNS != 350 {
		t.Fatalf("BinNS=%v EndNS=%v, want 100, 350", snap.BinNS, snap.EndNS)
	}
	if len(snap.Banks) != 3 {
		t.Fatalf("got %d banks, want 3", len(snap.Banks))
	}
	want := [][]float64{
		{0.5, 0.5, 1.0, 0.5},
		{0.1, 0.1, 0, 0},
		{0, 0, 0, 0},
	}
	for bank, fr := range want {
		got := snap.Banks[bank].BusyFraction
		if len(got) != len(fr) {
			t.Fatalf("bank %d timeline length %d, want %d (padded)", bank, len(got), len(fr))
		}
		for i := range fr {
			if !approx(got[i], fr[i]) {
				t.Errorf("bank %d bin %d: %v, want %v", bank, i, got[i], fr[i])
			}
		}
	}
	if !approx(snap.Banks[0].TotalBusyNS, 250) {
		t.Errorf("bank 0 TotalBusyNS = %v, want 250", snap.Banks[0].TotalBusyNS)
	}
	if !approx(snap.Banks[1].TotalBusyNS, 20) {
		t.Errorf("bank 1 TotalBusyNS = %v, want 20", snap.Banks[1].TotalBusyNS)
	}
}

// TestUtilNilAndDefaults covers the nil receiver (telemetry disabled) and the
// default bin width.
func TestUtilNilAndDefaults(t *testing.T) {
	var u *Util
	u.Record(0, 0, 100) // must not panic
	d := NewUtil(1, 0)
	if d.binNS != DefaultUtilBinNS {
		t.Errorf("binNS = %v, want DefaultUtilBinNS", d.binNS)
	}
}

// TestUtilFractionClamped checks that a bin never reports > 1 even when
// disjoint sub-intervals fill it exactly.
func TestUtilFractionClamped(t *testing.T) {
	u := NewUtil(1, 100)
	for i := 0; i < 10; i++ {
		u.Record(0, float64(i*10), float64(i*10+10))
	}
	snap := u.Snapshot()
	if f := snap.Banks[0].BusyFraction[0]; f != 1 {
		t.Errorf("full bin fraction = %v, want exactly 1", f)
	}
}

// TestUtilConcurrentRecord drives Record from many goroutines (one per bank,
// the parallel engine's shape) under -race and checks totals.
func TestUtilConcurrentRecord(t *testing.T) {
	const banks, per = 8, 100
	u := NewUtil(banks, 1000)
	var wg sync.WaitGroup
	for b := 0; b < banks; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				u.Record(b, float64(i*20), float64(i*20+10))
			}
		}(b)
	}
	wg.Wait()
	snap := u.Snapshot()
	for b := 0; b < banks; b++ {
		if !approx(snap.Banks[b].TotalBusyNS, per*10) {
			t.Errorf("bank %d total %v, want %v", b, snap.Banks[b].TotalBusyNS, per*10)
		}
	}
}

// refUtil is the unbounded reference collector: every bin since time zero,
// in a plain slice per bank.  The bounded ring must agree with it exactly on
// everything it retains.
type refUtil struct {
	binNS float64
	bins  [][]float64
	endNS float64
}

func (r *refUtil) record(bank int, startNS, endNS float64) {
	r.endNS = math.Max(r.endNS, endNS)
	first, last := int(startNS/r.binNS), int(endNS/r.binNS)
	for len(r.bins[bank]) <= last {
		r.bins[bank] = append(r.bins[bank], 0)
	}
	for b := first; b <= last; b++ {
		lo, hi := math.Max(float64(b)*r.binNS, startNS), math.Min(float64(b+1)*r.binNS, endNS)
		if hi > lo {
			r.bins[bank][b] += hi - lo
		}
	}
}

func (r *refUtil) total(bank int) float64 {
	var t float64
	for _, v := range r.bins[bank] {
		t += v
	}
	return t
}

func (r *refUtil) tail(windowNS float64) float64 {
	startNS := math.Max(r.endNS-windowNS, 0)
	first, last := int(startNS/r.binNS), int(r.endNS/r.binNS)
	var busy float64
	for _, bins := range r.bins {
		for b := first; b <= last && b < len(bins); b++ {
			lo, hi := math.Max(float64(b)*r.binNS, startNS), math.Min(float64(b+1)*r.binNS, r.endNS)
			if hi > lo {
				busy += bins[b] * (hi - lo) / r.binNS
			}
		}
	}
	return math.Min(busy/((r.endNS-startNS)*float64(len(r.bins))), 1)
}

// TestUtilRetentionBounded records 10^6 µs of simulated time — 15 times the
// retention window — on two banks, with gaps, bin-straddling intervals and
// slightly late records, and checks that each bank keeps exactly
// UtilRetainBins bins while TotalBusyNS, TailBusyFraction, TagBusyNS and
// every retained bin equal the unbounded reference bit for bit.
func TestUtilRetentionBounded(t *testing.T) {
	const banks, binNS = 2, 1000.0
	u := NewUtil(banks, binNS)
	ref := &refUtil{binNS: binNS, bins: make([][]float64, banks)}
	var tagTotal float64
	now := [banks]float64{}
	for i := 0; now[0] < 1e9; i++ {
		bank := i % banks
		start := now[bank] + float64(i%7)*37.5
		end := start + 98 + float64(i%5)*49
		if i%1000 == 999 {
			end += 3 * binNS // a long train crossing several bins
		}
		u.RecordTagged("t", bank, start, end)
		ref.record(bank, start, end)
		tagTotal += end - start
		if i%97 == 0 && start > 500 {
			// A late record into the bank's recent past.
			u.Record(bank, start-400, start-300)
			ref.record(bank, start-400, start-300)
		}
		now[bank] = end
	}
	snap := u.Snapshot()
	for bank := 0; bank < banks; bank++ {
		k := &u.banks[bank]
		if len(k.ring) != UtilRetainBins || cap(k.ring) != UtilRetainBins {
			t.Errorf("bank %d retains %d bins (cap %d), want %d", bank, len(k.ring), cap(k.ring), UtilRetainBins)
		}
		if got, want := snap.Banks[bank].TotalBusyNS, ref.total(bank); got != want {
			t.Errorf("bank %d TotalBusyNS = %v, reference %v", bank, got, want)
		}
		if got := len(snap.Banks[bank].BusyFraction); got != UtilRetainBins {
			t.Errorf("bank %d snapshot has %d bins, want %d", bank, got, UtilRetainBins)
		}
	}
	first := int(snap.StartNS / binNS)
	if want := max(len(ref.bins[0]), len(ref.bins[1])) - UtilRetainBins; first != want {
		t.Errorf("StartNS = %v (bin %d), want bin %d", snap.StartNS, first, want)
	}
	for bank := 0; bank < banks; bank++ {
		for i, f := range snap.Banks[bank].BusyFraction {
			b := first + i
			want := 0.0
			if b < len(ref.bins[bank]) {
				want = math.Min(ref.bins[bank][b]/binNS, 1)
			}
			if f != want {
				t.Fatalf("bank %d bin %d = %v, reference %v", bank, b, f, want)
			}
		}
	}
	for _, w := range []float64{1e3, 1e6, 5e7} {
		if got, want := u.TailBusyFraction(w), ref.tail(w); got != want {
			t.Errorf("TailBusyFraction(%v) = %v, reference %v", w, got, want)
		}
	}
	if got := u.TagBusyNS("t"); got != tagTotal {
		t.Errorf("TagBusyNS = %v, want %v", got, tagTotal)
	}
}

// TestUtilTailWindowCutToRetention: a saturation window longer than the
// retained timeline averages over the retained bins only.
func TestUtilTailWindowCutToRetention(t *testing.T) {
	const binNS = 1.0
	u := NewUtil(1, binNS)
	end := float64(2 * UtilRetainBins)
	u.Record(0, 0, end)
	if f := u.TailBusyFraction(10 * end); f != 1 {
		t.Errorf("fully busy bank over an over-long window: %v, want 1", f)
	}
	if snap := u.Snapshot(); snap.Banks[0].TotalBusyNS != end {
		t.Errorf("TotalBusyNS = %v, want %v", snap.Banks[0].TotalBusyNS, end)
	}
}

// TestUtilRecordSteadyStateAllocs: once a bank's ring is full, records that
// extend the timeline allocate nothing; before that, growth by doubling
// keeps the amortised cost below one allocation per round of eight records
// (AllocsPerRun rounds the mean down), where growing each bank's timeline to
// exactly the length it needs would allocate on every record.
func TestUtilRecordSteadyStateAllocs(t *testing.T) {
	u := NewUtil(8, 0)
	var now float64
	record := func() {
		for bank := 0; bank < 8; bank++ {
			u.RecordTagged("ns", bank, now, now+163)
		}
		now += 1000
	}
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Errorf("growing timeline: %v allocs per record round, want amortised 0", n)
	}
	for now < 2*UtilRetainBins*DefaultUtilBinNS {
		record()
	}
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Errorf("full ring: %v allocs per record round, want 0", n)
	}
}
