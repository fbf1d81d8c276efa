package ambit

// Scenario conformance suite: measured-silicon fault profiles driven through
// the full stack.  The central guarantee under test is that an armed fault
// model is no reason to serialize — per-(bank, subarray) fault streams make
// faulted runs bit-identical to the frozen serial reference
// (testdata/serial_ref.json) at any worker count.

import (
	"math/rand"
	"testing"

	"ambit/internal/dram"
)

// vendorProfile returns the vendorA-85C builtin with its base rates raised
// so short workloads actually draw faults (the shipped rates are
// realistically sparse).
func vendorProfile(t *testing.T) *FaultProfile {
	t.Helper()
	p, ok := FaultProfileByName("vendorA-85C")
	if !ok {
		t.Fatal("builtin vendorA-85C missing")
	}
	p.Base.TRABitRate = 2e-3
	p.Base.TRARowRate = 5e-3
	p.Base.DCCBitRate = 1e-3
	return p
}

// faultedWorkload drives a representative mix — direct ops, a many-row
// majority, a batch, fills, and a popcount — and returns every vector's
// final contents.
func faultedWorkload(t *testing.T, sys *System) [][]uint64 {
	t.Helper()
	rowBits := int64(sys.RowSizeBits())
	bits := 12 * rowBits
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	c, d, e := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(271828))
	wa, wb, wc := make([]uint64, a.WordCount()), make([]uint64, b.WordCount()), make([]uint64, c.WordCount())
	for i := range wa {
		wa[i], wb[i], wc[i] = rng.Uint64(), rng.Uint64(), rng.Uint64()
	}
	for _, vw := range []struct {
		v *Bitvector
		w []uint64
	}{{a, wa}, {b, wb}, {c, wc}} {
		if err := vw.v.Write(vw.w, Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	if err := sys.Xor(e, a, c); err != nil {
		t.Fatal(err)
	}
	if err := sys.Not(e, e); err != nil {
		t.Fatal(err)
	}
	if sys.MajWidth() > 0 {
		if err := sys.Maj(d, a, b, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Or(e, e, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Copy(d, a); err != nil {
		t.Fatal(err)
	}
	batch := sys.NewBatch()
	if err := batch.Nand(e, a, d); err != nil {
		t.Fatal(err)
	}
	if err := batch.Xnor(d, b, e); err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Popcount(d); err != nil {
		t.Fatal(err)
	}
	var out [][]uint64
	for _, v := range []*Bitvector{a, b, c, d, e} {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, words)
	}
	return out
}

// TestFaultedParallelMatchesSerial is the headline differential: with a
// measured-silicon profile armed (temperature scaling, pattern bias, weak
// subarrays, quarantine), every run must produce bit-identical vectors and
// identical statistics to the frozen serial reference at 1, 2, and 8
// workers.  The pre-profile design forced faulted runs serial; this test is
// the license for removing that fallback.
func TestFaultedParallelMatchesSerial(t *testing.T) {
	want := checkSerialRef(t, "faulted/profile", 1, 2, 8)
	if want.Stats.InjectedFaults == 0 {
		t.Fatal("workload drew no faults; the differential is vacuous")
	}
}

// TestFaultedPlainConfigParallelMatchesSerial covers the plain FaultConfig
// route (WithFaultModel, no profile): same differential, including under
// ECC, whose retries themselves consume fault-stream draws.
func TestFaultedPlainConfigParallelMatchesSerial(t *testing.T) {
	for _, name := range []string{"plain", "plain+ecc"} {
		t.Run(name, func(t *testing.T) {
			want := checkSerialRef(t, "faulted/"+name, 1, 2, 8)
			if want.Stats.InjectedFaults == 0 {
				t.Fatal("workload drew no faults; the differential is vacuous")
			}
		})
	}
}

// TestProfileStatsSurface: an armed profile surfaces its name and its
// injection counters through System.Stats and the Stats string.
func TestProfileStatsSurface(t *testing.T) {
	sys, err := New(WithFaultProfile(vendorProfile(t)))
	if err != nil {
		t.Fatal(err)
	}
	_ = faultedWorkload(t, sys)
	st := sys.Stats()
	if st.FaultProfile != "vendorA-85C" {
		t.Errorf("Stats.FaultProfile = %q, want vendorA-85C", st.FaultProfile)
	}
	if st.InjectedFaults == 0 {
		t.Error("no injected faults recorded under raised vendorA rates")
	}
}

// TestQuarantineAllocatorProperty: under a randomized alloc/free load, the
// allocator never places a row in a subarray the profile quarantines, while
// co-location (all rows of one vector share base-slot striping) and the free
// count stay consistent.
func TestQuarantineAllocatorProperty(t *testing.T) {
	p := vendorProfile(t) // quarantines (2,1) and (3,1)
	sys, err := New(WithFaultProfile(p))
	if err != nil {
		t.Fatal(err)
	}
	quarantined := func(a dram.PhysAddr) bool {
		return p.Quarantined(a.Bank, a.Subarray)
	}
	rowBits := int64(sys.RowSizeBits())
	rng := rand.New(rand.NewSource(314159))
	freeBefore := sys.FreeRows()
	var live []*Bitvector
	liveRows := 0
	for iter := 0; iter < 300; iter++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			rows := 1 + rng.Intn(6)
			v, err := sys.Alloc(int64(rows) * rowBits)
			if err != nil {
				// Exhaustion is legal under load; free something and go on.
				if len(live) == 0 {
					t.Fatalf("iter %d: alloc failed with nothing live: %v", iter, err)
				}
			} else {
				live = append(live, v)
				liveRows += rows
				for r := 0; r < v.Rows(); r++ {
					if a := v.Row(r); quarantined(a) {
						t.Fatalf("iter %d: row %d placed in quarantined (bank %d, sub %d)", iter, r, a.Bank, a.Subarray)
					}
				}
				continue
			}
		}
		i := rng.Intn(len(live))
		liveRows -= live[i].Rows()
		if err := sys.Free(live[i]); err != nil {
			t.Fatalf("iter %d: free: %v", iter, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if got := sys.FreeRows(); got != freeBefore-liveRows {
		t.Fatalf("FreeRows = %d after the run, want %d (%d still live)", got, freeBefore-liveRows, liveRows)
	}
	// The quarantined slots must also be absent from the capacity number
	// itself: a clean system on the same geometry has strictly more rows.
	clean, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if clean.FreeRows() <= freeBefore {
		t.Fatalf("quarantine did not shrink capacity: clean %d vs profiled %d", clean.FreeRows(), freeBefore)
	}
}
