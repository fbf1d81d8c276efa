package controller

import (
	"ambit/internal/dram"
	"ambit/internal/obs"
)

// Fused command-train evaluation.
//
// A Figure-8 train is a fixed dataflow: every intermediate value it stages
// through the B-group rows is either overwritten later in the same train or
// fully determined by the operands, so the train's end state is a closed-form
// function of Di and Dj.  When nothing can observe the intermediate steps —
// the subarray is precharged and no fault hook is armed; a trace sees them
// only as command events, which traced callers replay from the template
// (emitFusedTrain) — the evaluator below applies that end state in one pass
// per row instead of materializing every AAP's
// charge-share/latch/restore, cutting the simulated row traffic roughly in
// half for and/or and by ~4x for xor/xnor.  Commands are still charged
// exactly: the compiled template carries the train's full command census
// (ACTIVATEs by wordline count, PRECHARGEs, AAP/AP split), so device stats,
// controller stats, latency, and therefore energy are bit-identical to the
// step-by-step path.  TestFusedMatchesStepwise diffs the complete subarray
// state between the two paths to hold the equivalence.
//
// The kernels are word-parallel: each op is a tight loop over 64-bit words
// carrying as few write streams as possible (reslicing everything to len(k)
// lets the compiler drop the bounds checks), with rows that merely duplicate
// a computed value filled by whole-row copies — at simulated row-buffer
// sizes every stream is cache-resident, so bulk memmove beats additional
// scalar store streams.  ExecuteOpRowsFused extends the same kernels across
// every row of a bank group, amortizing validation, the latency lookup, the
// device stats commit, and the controller stats lock over all rows.

// fusedApply applies op's net train effect to one subarray's rows.  The
// caller has validated the operands (D-group rows in range) and checked
// FusedEligible; the boolean reports whether op has a fused kernel.
//
// All compute loops read x[i]/y[i] before writing anything at the same
// index, so operand aliasing (dk == di, dk == dj, di == dj) is safe word by
// word — the property the alias-matrix differential test pins down.
func fusedApply(sa *dram.Subarray, op Op, dk, di, dj dram.RowAddr) bool {
	k := sa.CellData(dram.Wordline{Kind: dram.WLData, Index: dk.Index})
	x := sa.CellData(dram.Wordline{Kind: dram.WLData, Index: di.Index})[:len(k)]
	cell := func(kind dram.WordlineKind, idx int) []uint64 {
		return sa.CellData(dram.Wordline{Kind: kind, Index: idx})
	}

	switch op {
	case OpNot:
		d0 := cell(dram.WLDCCData, 0)[:len(k)]
		for i := range k {
			v := ^x[i]
			d0[i] = v
			k[i] = v
		}

	case OpAnd, OpOr:
		y := sa.CellData(dram.Wordline{Kind: dram.WLData, Index: dj.Index})[:len(k)]
		if op == OpAnd {
			for i := range k {
				k[i] = x[i] & y[i]
			}
		} else {
			for i := range k {
				k[i] = x[i] | y[i]
			}
		}
		copy(cell(dram.WLT, 0), k)
		copy(cell(dram.WLT, 1), k)
		copy(cell(dram.WLT, 2), k)

	case OpNand, OpNor:
		// As and/or, plus the AAP(B12, B5) + AAP(B4, Dk) tail: DCC0
		// captures the majority's negation and Dk copies it back out.  The
		// majority lands in T0 first (T0 never aliases a data row), so the
		// negated store into Dk is alias-safe even when dk == di or dj.
		y := sa.CellData(dram.Wordline{Kind: dram.WLData, Index: dj.Index})[:len(k)]
		t0 := cell(dram.WLT, 0)[:len(k)]
		if op == OpNand {
			for i := range k {
				m := x[i] & y[i]
				t0[i] = m
				k[i] = ^m
			}
		} else {
			for i := range k {
				m := x[i] | y[i]
				t0[i] = m
				k[i] = ^m
			}
		}
		copy(cell(dram.WLT, 1), t0)
		copy(cell(dram.WLT, 2), t0)
		copy(cell(dram.WLDCCData, 0), k)

	case OpXor, OpXnor:
		y := sa.CellData(dram.Wordline{Kind: dram.WLData, Index: dj.Index})[:len(k)]
		d0 := cell(dram.WLDCCData, 0)[:len(k)]
		d1 := cell(dram.WLDCCData, 1)[:len(k)]
		// Staged as single-store loops — each reads two streams and writes
		// one, which the compiler unrolls far better than one loop carrying
		// three store streams.  DCC rows never alias D-group rows, so the
		// loops that write d0/d1 leave x/y intact, and the loop that writes
		// k (which may alias x or y) reads only d0/d1.
		if op == OpXor {
			// AP(B14): DCC0 = T1 = T2 = !Di & Dj;
			// AP(B15): DCC1 = T0 = T3 = Di & !Dj;
			// final TRA: T0 = T1 = T2 = Dk = Di ^ Dj.
			for i := range d0 {
				d0[i] = x[i] ^ y[i] // staging: Di ^ Dj
			}
			for i := range d1 {
				d1[i] = d0[i] & x[i] // Di & !Dj
			}
			for i := range d0 {
				d0[i] ^= d1[i] // !Di & Dj
			}
			for i := range k {
				k[i] = d0[i] | d1[i] // Di ^ Dj
			}
		} else {
			// Control rows flipped: the intermediate majorities are ORs
			// and the final TRA is an AND.
			for i := range d0 {
				d0[i] = x[i] ^ y[i] // staging: Di ^ Dj
			}
			for i := range d1 {
				d1[i] = ^(d0[i] &^ x[i]) // Di | !Dj
			}
			for i := range d0 {
				d0[i] = ^(d0[i] & x[i]) // !Di | Dj
			}
			for i := range k {
				k[i] = d0[i] & d1[i] // !(Di ^ Dj)
			}
		}
		copy(cell(dram.WLT, 3), d1)
		copy(cell(dram.WLT, 0), k)
		copy(cell(dram.WLT, 1), k)
		copy(cell(dram.WLT, 2), k)

	default:
		return false
	}
	return true
}

// chargeFused commits the command census, latency, and controller counters
// of n fused trains of op in one device commit and one stats lock, and
// returns the per-train latency.  Committing n trains at once is exact: the
// device census is integer sums, and the template latency is an exact
// multiple of 2^-2 ns under the paper's timings, so the n repeated BusyNS
// adds below accumulate bit-identically to n single-train commits in any
// interleaving.
func (c *Controller) chargeFused(op Op, n int64) float64 {
	ct := &compiledTrains[op]
	t := c.dev.Timing()
	lat := ct.latency(c.SplitDecoder, t.AAPSplit(), t.AAPNaive(), t.AP())
	var st dram.Stats
	st.Precharges = ct.pres * n
	for i, a := range ct.acts {
		st.Activates[i] = a * n
	}
	c.dev.CommitStats(st)
	c.mu.Lock()
	c.stats.AAPs += ct.aaps * n
	c.stats.APs += ct.aps * n
	for i := int64(0); i < n; i++ {
		c.stats.BusyNS += lat
	}
	c.stats.OpCounts[op] += n
	c.mu.Unlock()
	return lat
}

// executeOpFused applies op's net train effect when eligible.  The boolean
// reports whether the fused path handled the train; on false the caller must
// fall back to step-by-step execution (which also owns error reporting for
// out-of-range operands, keeping error text identical).
func (c *Controller) executeOpFused(op Op, bank, sub int, dk, di, dj dram.RowAddr) (float64, bool) {
	g := c.dev.Geometry()
	if bank < 0 || bank >= g.Banks || sub < 0 || sub >= g.SubarraysPerBank {
		return 0, false
	}
	if dk.Validate(g) != nil || di.Validate(g) != nil {
		return 0, false
	}
	if !op.Unary() && dj.Validate(g) != nil {
		return 0, false
	}
	sa := c.dev.Bank(bank).Subarray(sub)
	if !sa.FusedEligible() {
		return 0, false
	}
	if !fusedApply(sa, op, dk, di, dj) {
		return 0, false
	}
	return c.chargeFused(op, 1), true
}

// RowTrain names one row-level train of a multi-row fused dispatch: the
// subarray and the D-group operand rows of a single Figure-8 train on the
// dispatching bank.
type RowTrain struct {
	Sub        int
	DK, DI, DJ dram.RowAddr
}

// ExecuteOpRowsFused applies op's net train effect to every train in one
// word-parallel pass, charging the aggregate command census with a single
// device commit and a single controller-stats lock.  It returns the
// per-train latency (identical for every train — the template is static)
// and whether the fused path ran.
//
// The dispatch is all-or-nothing: every train is validated up front (bank
// and subarray in range, D-group operands, FusedEligible — fused evaluation
// leaves subarrays precharged, so eligibility checked before the pass holds
// across it) and on any ineligibility the call returns false having changed
// nothing, leaving the caller to fall back to per-row execution, which also
// owns error reporting.  The caller must hold the bank's execution shard.
// The pass emits no command events, so with tracing on it declines; traced
// callers use ExecuteOpRowsFusedTraced.
func (c *Controller) ExecuteOpRowsFused(op Op, bank int, trains []RowTrain) (float64, bool) {
	if c.tr.Enabled() {
		return 0, false
	}
	return c.executeOpRowsFused(op, bank, trains)
}

// ExecuteOpRowsFusedTraced is ExecuteOpRowsFused for a traced caller that
// captures the bank's events into ss (obs.BeginShards): after the fused pass
// it replays each train's command events (emitFusedTrain), tagging train i
// with merge key keys[i] via ss.SetRow, so ss.MergeAndEmit yields exactly the
// events the trains would have emitted one ExecuteOp at a time.  Nothing is
// executed or emitted when it returns false.
func (c *Controller) ExecuteOpRowsFusedTraced(op Op, bank int, trains []RowTrain, ss *obs.ShardSet, keys []int) (float64, bool) {
	lat, ok := c.executeOpRowsFused(op, bank, trains)
	if !ok {
		return 0, false
	}
	for i := range trains {
		t := &trains[i]
		ss.SetRow(bank, keys[i])
		c.emitFusedTrain(op, bank, t.Sub, t.DK, t.DI, t.DJ)
	}
	return lat, true
}

// executeOpRowsFused is the shared body of the two multi-row entry points.
func (c *Controller) executeOpRowsFused(op Op, bank int, trains []RowTrain) (float64, bool) {
	if c.noFuse || len(trains) == 0 {
		return 0, false
	}
	switch op {
	case OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor:
	default:
		return 0, false
	}
	g := c.dev.Geometry()
	if bank < 0 || bank >= g.Banks {
		return 0, false
	}
	bk := c.dev.Bank(bank)
	unary := op.Unary()
	for i := range trains {
		t := &trains[i]
		if t.Sub < 0 || t.Sub >= g.SubarraysPerBank {
			return 0, false
		}
		if t.DK.Group != dram.GroupD || t.DI.Group != dram.GroupD {
			return 0, false
		}
		if t.DK.Validate(g) != nil || t.DI.Validate(g) != nil {
			return 0, false
		}
		if !unary {
			if t.DJ.Group != dram.GroupD || t.DJ.Validate(g) != nil {
				return 0, false
			}
		}
		if !bk.Subarray(t.Sub).FusedEligible() {
			return 0, false
		}
	}
	for i := range trains {
		t := &trains[i]
		fusedApply(bk.Subarray(t.Sub), op, t.DK, t.DI, t.DJ)
	}
	return c.chargeFused(op, int64(len(trains))), true
}
