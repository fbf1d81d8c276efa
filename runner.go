package ambit

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/ecc"
	"ambit/internal/exec"
	"ambit/internal/obs"
)

// One executor.  Every row-level execution runs as per-bank, in-order
// streams through internal/exec: a direct operation is one plan over its
// rows (runOp with a pooled opRunner), a Batch one plan per epoch over its
// flattened program (batchStream, batch.go).  Both bodies call the same
// per-primitive row functions below — bulkRow, fusedBulk, copyRow, fillRow,
// funcRow, majRow, popcountRow — so each primitive's row semantics exist
// once.  Under one bank's stream those rows run in ascending order on one
// goroutine, which is what makes the fault model's per-(bank, subarray) RNG
// streams, the tracer's per-bank capture shards and the ECC replica rows
// deterministic at any worker count.
//
// opRunner is the direct operation's exec.GroupRunner.  Closures capture,
// captures allocate, and the direct-op hot path must not, so one runner is
// checked out of a pool per operation and carries the operands and the
// schedule start time.  Group-granular dispatch is also what enables the
// multi-row fused fast path: a bulk group with ECC off batches all of its
// rows into one fused word-parallel pass (fusedBulk), with the row-at-a-time
// body kept as the exact-semantics fallback (ECC, armed fault models,
// ineligible operands).
//
// Scratch slices (operand address buffers, train lists, row buffers) come
// from pools and are claimed per group, never shared across the concurrently
// running groups of one plan.

// runnerKind selects the per-row body an opRunner executes.
type runnerKind uint8

const (
	runBulk runnerKind = iota
	runCopy
	runFill
	runFunc
	runMaj
)

// opRunner executes one direct operation's bank groups.  Fields are
// populated by the dispatching operation and cleared on release.
type opRunner struct {
	s     *System
	kind  runnerKind
	op    controller.Op
	dst   *Bitvector
	a, b  *Bitvector
	srcs  []*Bitvector // maj sources / func inputs
	dsts  []*Bitvector // func outputs
	f     *Func
	fill  bool
	ecc   bool
	start float64
	ss    *obs.ShardSet
	tag   Tag
}

var opRunnerPool = sync.Pool{New: func() any { return new(opRunner) }}

// getOpRunner checks a runner out of the pool for one operation.
func getOpRunner(s *System, kind runnerKind, tag Tag) *opRunner {
	r := opRunnerPool.Get().(*opRunner)
	r.s, r.kind, r.tag = s, kind, tag
	return r
}

// putOpRunner clears the runner's references and returns it to the pool.
func putOpRunner(r *opRunner) {
	*r = opRunner{}
	opRunnerPool.Put(r)
}

// runOp is the dispatch skeleton every direct row-level operation shares.  It
// snapshots the clock and charges the coherence flush under statsMu, plans
// the rows (addrs, the destination rows) by bank, locks those banks, opens
// per-bank trace capture, runs the runner's groups through the execution
// core, merges the trace, and commits the clock and the op's counters.  The
// caller holds execMu for reading, or exclusively with serial set: a
// cross-bank copy reads banks other than its group's, so its groups run one
// after another on this goroutine.  runOp releases run.
//
// A failing row stops only its own bank (per-bank prefix semantics); the
// rows every bank completed are charged and counted, but the op itself is
// not.
func (s *System) runOp(run *opRunner, addrs []dram.PhysAddr, coherenceRows int64, serial bool) error {
	observing := s.observing()
	var devBefore dram.Stats
	s.statsMu.Lock()
	if observing {
		devBefore = s.dev.Stats()
	}
	opStart := s.stats.ElapsedNS
	run.start = opStart + s.coherenceNS(coherenceRows)
	s.statsMu.Unlock()

	plan := s.eng.PlanAddrs(addrs)
	banks := plan.Banks()
	s.eng.LockBanks(banks)
	run.ss = s.cfg.Tracer.BeginShards(banks)
	var res exec.Result
	if serial {
		res = s.eng.RunPlanSerial(plan, run)
	} else {
		res = s.eng.RunPlan(plan, run)
	}
	run.ss.MergeAndEmit()
	s.eng.UnlockBanks(banks)
	plan.Release()

	end := max(res.EndNS, run.start) // every row failed: the flush still happened
	s.statsMu.Lock()
	if end > s.stats.ElapsedNS {
		s.stats.ElapsedNS = end
	}
	switch run.kind {
	case runCopy, runFill:
		s.stats.Copies += int64(res.Completed)
	default:
		s.stats.RowOps += int64(res.Completed)
	}
	if res.Err == nil {
		switch run.kind {
		case runBulk:
			s.stats.BulkOps[run.op]++
		case runFunc:
			s.stats.FuncOps++
		case runMaj:
			s.stats.MajOps++
		}
	} else if errors.Is(res.Err, ErrUncorrectable) {
		s.stats.UncorrectableRows++
		if m := s.cfg.Metrics; m != nil {
			m.Add("uncorrectable_rows", 1)
		}
		s.addLabeledNS(run.tag, "uncorrectable_rows", 1)
	}
	s.statsMu.Unlock()

	var err error
	if res.Err != nil {
		err = run.wrapErr(res)
	} else if observing {
		s.observeOp(run.tag, run.name(), -1, len(addrs), opStart, end-opStart, devBefore)
	}
	putOpRunner(run)
	return err
}

// name is the op's span and metric label.
func (r *opRunner) name() string {
	switch r.kind {
	case runBulk:
		return r.op.String()
	case runCopy:
		return "copy"
	case runFill:
		return "fill"
	case runFunc:
		return "func:" + r.f.name
	default:
		return "maj"
	}
}

// wrapErr renders a failed run's error the way each direct call reports it.
func (r *opRunner) wrapErr(res exec.Result) error {
	switch r.kind {
	case runBulk:
		return fmt.Errorf("ambit: %v row %d: %w", r.op, res.ErrRow, res.Err)
	case runCopy:
		return fmt.Errorf("ambit: Copy row %d: %w", res.ErrRow, res.Err)
	case runFill:
		return fmt.Errorf("ambit: Fill: %w", res.Err)
	case runFunc:
		return fmt.Errorf("ambit: func %s row %d: %w", r.f.name, res.ErrRow, res.Err)
	default:
		return fmt.Errorf("ambit: Maj row %d: %w", res.ErrRow, res.Err)
	}
}

// RunGroup executes one bank group with the prefix/merge semantics
// internal/exec documents: rows in ascending order, stop at the first
// failing row, EndNS = max completion time of completed rows.  Every row
// reserves the bank's timeline from the op's start.
func (r *opRunner) RunGroup(bank int, rows []int) exec.GroupResult {
	s := r.s
	res := exec.GroupResult{ErrRow: -1}
	bk := s.dev.Bank(bank)
	if r.kind == runBulk && !r.ecc {
		tp := getTrains()
		for _, row := range rows {
			*tp = append(*tp, bulkTrain(r.op, r.dst, r.a, r.b, row))
		}
		if lat, ok := s.fusedBulk(r.op, bank, tp, r.ss, rows); ok {
			for range rows {
				done := bk.Reserve(r.start, lat)
				s.utilRecord(r.tag, bank, done, lat)
				res.EndNS = max(res.EndNS, done)
			}
			res.Completed = len(rows)
			return res
		}
	}
	var bp *[]dram.RowAddr
	switch r.kind {
	case runFunc:
		bp = getRowAddrs(r.f.c.NumInputs + r.f.c.NumOutputs)
	case runMaj:
		bp = getRowAddrs(len(r.srcs))
	}
	for _, row := range rows {
		r.ss.SetRow(bank, row)
		var lat float64
		var err error
		switch r.kind {
		case runBulk:
			var rr controller.RowResult
			rr, err = s.bulkRow(r.op, r.ecc, r.dst, r.a, r.b, row)
			if r.ecc {
				s.statsMu.Lock()
				s.accountReliabilityLocked(r.tag, r.dst.rows[row], rr)
				s.statsMu.Unlock()
			}
			lat = rr.LatencyNS
		case runCopy:
			lat, err = s.copyRow(r.a.rows[row], r.dst.rows[row])
		case runFill:
			lat, err = s.fillRow(r.dst.rows[row], r.fill)
		case runFunc:
			lat, err = s.funcRow(r.f, r.dsts, r.srcs, row, *bp)
		default:
			lat, err = s.majRow(r.dst, r.srcs, row, *bp)
		}
		if err != nil {
			res.Err, res.ErrRow = err, row
			break
		}
		done := bk.Reserve(r.start, lat)
		s.utilRecord(r.tag, bank, done, lat)
		res.Completed++
		res.EndNS = max(res.EndNS, done)
	}
	if bp != nil {
		rowAddrPool.Put(bp)
	}
	return res
}

// trainPool recycles the per-group RowTrain scratch of the multi-row fused
// dispatch.
var trainPool = sync.Pool{New: func() any { return new([]controller.RowTrain) }}

// getTrains claims an empty train list; fusedBulk returns it.
func getTrains() *[]controller.RowTrain {
	tp := trainPool.Get().(*[]controller.RowTrain)
	*tp = (*tp)[:0]
	return tp
}

// rowAddrPool recycles the per-group operand-address scratch of maj and
// compiled-func rows.
var rowAddrPool = sync.Pool{New: func() any { return new([]dram.RowAddr) }}

// getRowAddrs claims an operand-address buffer of length n.
func getRowAddrs(n int) *[]dram.RowAddr {
	bp := rowAddrPool.Get().(*[]dram.RowAddr)
	if cap(*bp) < n {
		*bp = make([]dram.RowAddr, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// rowBufPool recycles full-row word buffers for popcount rows.
var rowBufPool = sync.Pool{New: func() any { return new([]uint64) }}

// bulkTrain is row r of dst = op(a[, b]) as one fused-evaluation train.
func bulkTrain(op controller.Op, dst, a, b *Bitvector, r int) controller.RowTrain {
	da := dst.rows[r]
	t := controller.RowTrain{Sub: da.Subarray, DK: da.Row, DI: a.rows[r].Row}
	if !op.Unary() {
		t.DJ = b.rows[r].Row
	}
	return t
}

// fusedBulk evaluates a run of same-opcode trains on one bank in a single
// word-parallel pass and returns the per-train latency.  When traced, each
// train's command events are replayed into the bank's capture shard under
// the matching entry of keys.  ok is false when the fused dispatch rejects
// the run (raised amplifiers, an armed fault injector); nothing has executed
// then, and the caller runs the trains stepwise.  The train list goes back
// to its pool.
func (s *System) fusedBulk(op controller.Op, bank int, tp *[]controller.RowTrain, ss *obs.ShardSet, keys []int) (lat float64, ok bool) {
	if ss != nil {
		lat, ok = s.ctrl.ExecuteOpRowsFusedTraced(op, bank, *tp, ss, keys)
	} else {
		lat, ok = s.ctrl.ExecuteOpRowsFused(op, bank, *tp)
	}
	trainPool.Put(tp)
	return lat, ok
}

// bulkRow executes row r of dst = op(a[, b]) as one stepwise command train,
// or, with tmr, under the TMR execute-verify-retry policy (DESIGN.md
// "Reliability model"), using the two reserved per-subarray scratch rows as
// replica space and internal/ecc's majority vote as the decoder.
func (s *System) bulkRow(op controller.Op, tmr bool, dst, a, b *Bitvector, r int) (controller.RowResult, error) {
	da, aRow := dst.rows[r], a.rows[r].Row
	var bRow dram.RowAddr
	if !op.Unary() {
		bRow = b.rows[r].Row
	}
	if tmr {
		s1, s2 := s.scratchRows()
		return s.ctrl.ExecuteOpReliable(op, da.Bank, da.Subarray, da.Row, aRow, bRow, s1, s2, s.cfg.Reliability, ecc.VoteRows)
	}
	lat, err := s.ctrl.ExecuteOp(op, da.Bank, da.Subarray, da.Row, aRow, bRow)
	return controller.RowResult{LatencyNS: lat}, err
}

// copyRow copies one row with RowClone: FPM within a subarray, PSM across
// subarrays or banks.
func (s *System) copyRow(src, dst dram.PhysAddr) (float64, error) {
	_, lat, err := s.rc.Copy(src, dst)
	return lat, err
}

// fillRow initializes one row from the all-zeros or all-ones control row.
func (s *System) fillRow(addr dram.PhysAddr, bit bool) (float64, error) {
	if bit {
		return s.rc.InitOne(addr.Bank, addr.Subarray, addr.Row)
	}
	return s.rc.InitZero(addr.Bank, addr.Subarray, addr.Row)
}

// funcRow executes row r of a compiled function's train; buf holds
// NumInputs+NumOutputs operand addresses of scratch.
func (s *System) funcRow(f *Func, dsts, srcs []*Bitvector, r int, buf []dram.RowAddr) (float64, error) {
	for i, src := range srcs {
		buf[i] = src.rows[r].Row
	}
	for j, d := range dsts {
		buf[f.c.NumInputs+j] = d.rows[r].Row
	}
	da := dsts[0].rows[r]
	return s.ctrl.ExecuteTrain(f.c.Train, da.Bank, da.Subarray, buf)
}

// majRow executes row r of dst = MAJ(srcs...) as one many-row activation;
// buf holds len(srcs) addresses of scratch.
func (s *System) majRow(dst *Bitvector, srcs []*Bitvector, r int, buf []dram.RowAddr) (float64, error) {
	for i, a := range srcs {
		buf[i] = a.rows[r].Row
	}
	da := dst.rows[r]
	return s.ctrl.ExecuteMaj(da.Bank, da.Subarray, da.Row, buf, s.majScratchBase, s.majW)
}

// popcountRow streams one row into buf and counts its set bits.
func (s *System) popcountRow(addr dram.PhysAddr, buf []uint64) (int64, error) {
	if err := s.dev.ReadRowInto(addr, buf); err != nil {
		return 0, err
	}
	var n int64
	for _, w := range buf {
		n += int64(bits.OnesCount64(w))
	}
	return n, nil
}
