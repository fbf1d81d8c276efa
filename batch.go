package ambit

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/exec"
	"ambit/internal/obs"
	"ambit/internal/program"
)

// batchKind enumerates the primitive kinds a Batch records.
type batchKind uint8

const (
	batchBulk batchKind = iota
	batchCopy
	batchFill
	batchPopcount
	batchFunc
)

// batchOp is one recorded operation.  dst/a/b mirror the direct-call operand
// roles: bulk ops use all three (b nil for unary), Copy uses dst/a
// (destination/source), Fill uses dst, Popcount uses a.  Compiled-function
// calls use fn/dsts/srcs instead.
type batchOp struct {
	kind    batchKind
	op      controller.Op
	dst     *Bitvector
	a, b    *Bitvector
	fillBit bool
	result  *PopcountResult

	fn   *Func
	dsts []*Bitvector
	srcs []*Bitvector

	// rowLats is filled by the functional phase: the command-train
	// latency of each row-level operation, consumed by the deterministic
	// timing phase.
	rowLats []float64
	// rowRel holds each row's reliability outcome when the TMR policy is
	// enabled (nil otherwise); the timing phase folds it into the stats
	// and quarantine scores so bank streams never touch s.stats.
	rowRel []controller.RowResult
}

// metricName is the opcode label used for metrics and spans — matching the
// labels the direct-call path uses, so observations from both routes merge.
func (o *batchOp) metricName() string {
	switch o.kind {
	case batchBulk:
		return o.op.String()
	case batchCopy:
		return "copy"
	case batchFill:
		return "fill"
	case batchFunc:
		return "func:" + o.fn.name
	default:
		return "popcount"
	}
}

// streamRows returns the rows that place the op's row-level items in bank
// streams: the destination rows, or the source rows of a Popcount.
func (o *batchOp) streamRows() []dram.PhysAddr {
	switch o.kind {
	case batchPopcount:
		return o.a.rows
	case batchFunc:
		return o.dsts[0].rows
	}
	return o.dst.rows
}

// rows returns how many rows the op touches (for span reporting).
func (o *batchOp) rows() int { return len(o.streamRows()) }

// name renders the op for error messages.
func (o *batchOp) name() string {
	switch o.kind {
	case batchBulk:
		return o.op.String()
	case batchCopy:
		return "Copy"
	case batchFill:
		return "Fill"
	case batchFunc:
		return "Call(" + o.fn.name + ")"
	default:
		return "Popcount"
	}
}

// operands returns the op's operand list by role — including nil entries, so
// validation can reject them.
func (o *batchOp) operands() []*Bitvector {
	switch o.kind {
	case batchBulk:
		if o.op.Unary() {
			return []*Bitvector{o.dst, o.a}
		}
		return []*Bitvector{o.dst, o.a, o.b}
	case batchCopy:
		return []*Bitvector{o.dst, o.a}
	case batchFill:
		return []*Bitvector{o.dst}
	case batchFunc:
		return append(append([]*Bitvector(nil), o.dsts...), o.srcs...)
	default:
		return []*Bitvector{o.a}
	}
}

// coherenceRows returns how many cached rows must be flushed or invalidated
// before the op may touch DRAM (DESIGN.md "Coherence model"): bulk ops flush
// their source rows (destination invalidation hides behind the B-group
// staging), Copy flushes sources and invalidates destinations, Fill
// invalidates destinations, and Popcount is an ordinary cached read.
func (o *batchOp) coherenceRows() int64 {
	switch o.kind {
	case batchBulk:
		return int64(len(o.dst.rows)) * int64(o.op.InputRows())
	case batchCopy:
		return 2 * int64(len(o.dst.rows))
	case batchFill:
		return int64(len(o.dst.rows))
	case batchFunc:
		return int64(len(o.dsts[0].rows)) * int64(o.fn.c.NumInputs)
	default:
		return 0
	}
}

// PopcountResult is the pending result of a Batch.Popcount; its value
// becomes available once the batch has run.
type PopcountResult struct {
	n    int64
	done bool
}

// Value returns the popcount, or an error if the owning batch has not
// successfully run yet.
func (p *PopcountResult) Value() (int64, error) {
	if !p.done {
		return 0, fmt.Errorf("ambit: PopcountResult: batch has not run")
	}
	return p.n, nil
}

// BatchReport summarizes one Batch.Run.
type BatchReport struct {
	// Ops is the number of operations the batch executed.
	Ops int
	// Waves is the dependency depth of the program: the length of its
	// longest chain of conflicting operations.  Waves == 1 means every
	// operation was independent.
	Waves int
	// MakespanNS is the simulated time from batch start to the completion
	// of its last operation.  Independent operations on different banks
	// overlap, so the makespan of a well-spread batch is far below the
	// sum of its operations' individual latencies.
	MakespanNS float64
}

// Batch records a program of bulk operations for pipelined dispatch.
//
// Operations are recorded by the same-named methods (And, Xor, Copy, ...)
// and validated immediately, but nothing executes until Run.  Run executes
// the program as one in-order stream per bank on the System's worker pool
// (WithExecWorkers bounds it), and schedules the command trains against
// per-bank timelines using a dependency graph built from the operations'
// operand row sets (internal/program): two operations that touch disjoint
// banks overlap fully in simulated time, instead of serializing on the
// System's global clock the way direct calls do.  This is the "program of
// bbop primitives" execution model of the follow-up work "In-DRAM Bulk
// Bitwise Execution Engine" (arXiv 1905.09822).
//
// A Batch is not safe for concurrent recording; record from one goroutine,
// then Run (Run itself synchronizes with all other System activity).  A
// Batch can run only once.
type Batch struct {
	sys *System
	ops []*batchOp
	ran bool
}

// NewBatch creates an empty batch on the system.
func (s *System) NewBatch() *Batch { return &Batch{sys: s} }

// Len returns the number of operations recorded so far.
func (b *Batch) Len() int { return len(b.ops) }

// record validates and appends one operation.
func (b *Batch) record(op *batchOp) error {
	s := b.sys
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if b.ran {
		return fmt.Errorf("ambit: Batch: cannot record %s after Run", op.name())
	}
	if op.kind == batchFunc {
		// The compiled-function validator covers liveness, arity, shape,
		// and the train-order aliasing rules in one place.
		if err := s.checkFuncOperands(op.fn, op.dsts, op.srcs); err != nil {
			return err
		}
		b.ops = append(b.ops, op)
		return nil
	}
	if err := s.checkOperands("Batch."+op.name(), op.operands()...); err != nil {
		return err
	}
	switch op.kind {
	case batchBulk:
		if !op.dst.sameShape(op.a) || (!op.op.Unary() && !op.dst.sameShape(op.b)) {
			return fmt.Errorf("ambit: Batch.%v: %w (size mismatch or foreign allocation); cooperating bitvectors must be allocated with the same size and base slot on one System (Section 5.4.2)", op.op, ErrShapeMismatch)
		}
	case batchCopy:
		if len(op.dst.rows) != len(op.a.rows) {
			return fmt.Errorf("ambit: Batch.Copy: %w (%d vs %d rows)", ErrShapeMismatch, len(op.dst.rows), len(op.a.rows))
		}
	}
	b.ops = append(b.ops, op)
	return nil
}

// bulk records dst = op(a[, b]).
func (b *Batch) bulk(op controller.Op, dst, a, bv *Bitvector) error {
	return b.record(&batchOp{kind: batchBulk, op: op, dst: dst, a: a, b: bv})
}

// And records dst = a AND b.
func (b *Batch) And(dst, a, bv *Bitvector) error { return b.bulk(controller.OpAnd, dst, a, bv) }

// Or records dst = a OR b.
func (b *Batch) Or(dst, a, bv *Bitvector) error { return b.bulk(controller.OpOr, dst, a, bv) }

// Not records dst = NOT a.
func (b *Batch) Not(dst, a *Bitvector) error { return b.bulk(controller.OpNot, dst, a, nil) }

// Nand records dst = NOT (a AND b).
func (b *Batch) Nand(dst, a, bv *Bitvector) error { return b.bulk(controller.OpNand, dst, a, bv) }

// Nor records dst = NOT (a OR b).
func (b *Batch) Nor(dst, a, bv *Bitvector) error { return b.bulk(controller.OpNor, dst, a, bv) }

// Xor records dst = a XOR b.
func (b *Batch) Xor(dst, a, bv *Bitvector) error { return b.bulk(controller.OpXor, dst, a, bv) }

// Xnor records dst = NOT (a XOR b).
func (b *Batch) Xnor(dst, a, bv *Bitvector) error { return b.bulk(controller.OpXnor, dst, a, bv) }

// Apply records dst = op(a[, b]) for a dynamically chosen operation.
func (b *Batch) Apply(op controller.Op, dst, a, bv *Bitvector) error {
	if op.Unary() {
		return b.bulk(op, dst, a, nil)
	}
	return b.bulk(op, dst, a, bv)
}

// Copy records a RowClone copy of src into dst.
func (b *Batch) Copy(dst, src *Bitvector) error {
	return b.record(&batchOp{kind: batchCopy, dst: dst, a: src})
}

// Fill records setting every bit of v to the given value.
func (b *Batch) Fill(v *Bitvector, bit bool) error {
	return b.record(&batchOp{kind: batchFill, dst: v, fillBit: bit})
}

// Call records dsts... = f(srcs...) for a compiled function (System.Compile).
// Dependencies against other recorded operations follow from the operand row
// sets, so chained calls — one function's outputs feeding another's inputs —
// order correctly while independent calls overlap across banks.
func (b *Batch) Call(f *Func, dsts []*Bitvector, srcs ...*Bitvector) error {
	if f == nil {
		return fmt.Errorf("ambit: Batch.Call: nil function")
	}
	return b.record(&batchOp{kind: batchFunc, fn: f, dsts: dsts, srcs: srcs})
}

// Popcount records a CPU-side population count of v.  The returned
// PopcountResult yields its value after Run succeeds.
func (b *Batch) Popcount(v *Bitvector) (*PopcountResult, error) {
	res := &PopcountResult{}
	if err := b.record(&batchOp{kind: batchPopcount, a: v, result: res}); err != nil {
		return nil, err
	}
	return res, nil
}

// Run executes the recorded program.
//
// The run has two phases.  The functional phase (execute) flattens the
// program into row-level items and runs each bank's items in recording order
// on one goroutine; consecutive same-opcode bulk items on a bank evaluate in
// one word-parallel kernel sweep.  A cross-bank copy is an epoch barrier: the
// streams run up to it, its rows run alone, then the streams resume.  Results,
// Stats and traces are those of running the program serially in recording
// order, at any worker count.  The timing phase then replays the program in
// deterministic order against the per-bank timelines: an operation starts
// when its dependencies finish, and each of its row trains occupies its bank
// from the bank's own earliest free moment — so independent operations on
// disjoint banks overlap in simulated time.  The System clock advances by the
// batch makespan, not by the sum of operation latencies.
//
// On error the simulated clock and counters are left unchanged, but DRAM
// contents may reflect a partially executed program: every epoch before the
// failing one completed, and within it every bank ran its stream up to its
// first failing item.
func (b *Batch) Run() (BatchReport, error) {
	s := b.sys
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if b.ran {
		return BatchReport{}, fmt.Errorf("ambit: Batch: already run")
	}
	b.ran = true
	if len(b.ops) == 0 {
		return BatchReport{}, nil
	}
	// Operands may have been freed between recording and Run.
	for i, op := range b.ops {
		for _, v := range op.operands() {
			if v.rows == nil {
				return BatchReport{}, fmt.Errorf("ambit: Batch op %d (%s): operand freed after recording: %w", i, op.name(), ErrFreed)
			}
		}
	}
	observing := s.observing()
	var devBefore dram.Stats
	if observing {
		devBefore = s.dev.Stats()
	}
	g := program.Build(b.programOps())
	if err := b.execute(); err != nil {
		// Reliability outcomes of completed rows are dropped on error
		// (the timing phase never runs), but an exhausted retry budget is
		// still counted so the failure is visible in the stats.
		if errors.Is(err, ErrUncorrectable) {
			s.stats.UncorrectableRows++
			if m := s.cfg.Metrics; m != nil {
				m.Add("uncorrectable_rows", 1)
			}
		}
		return BatchReport{}, err
	}
	makespan := b.schedule(g)
	if observing {
		s.observeOp(Tag{}, "batch", -1, len(b.ops), s.stats.ElapsedNS-makespan, makespan, devBefore)
	}
	for _, op := range b.ops {
		if op.result != nil {
			op.result.done = true
		}
	}
	return BatchReport{Ops: len(b.ops), Waves: g.Waves(), MakespanNS: makespan}, nil
}

// programOps converts the recorded ops into their read/write row sets.  The
// B-group and control rows an op stages through are deliberately excluded:
// they are transient within one atomic command train, so they impose bank
// occupancy (modelled by the timelines) but no data dependency.
func (b *Batch) programOps() []program.Op {
	ops := make([]program.Op, len(b.ops))
	for i, op := range b.ops {
		p := program.Op{Label: op.name()}
		switch op.kind {
		case batchBulk:
			p.Writes = op.dst.rows
			p.Reads = append(p.Reads, op.a.rows...)
			if !op.op.Unary() {
				p.Reads = append(p.Reads, op.b.rows...)
			}
		case batchCopy:
			p.Reads = op.a.rows
			p.Writes = op.dst.rows
		case batchFill:
			p.Writes = op.dst.rows
		case batchPopcount:
			p.Reads = op.a.rows
		case batchFunc:
			for _, d := range op.dsts {
				p.Writes = append(p.Writes, d.rows...)
			}
			for _, src := range op.srcs {
				p.Reads = append(p.Reads, src.rows...)
			}
		}
		ops[i] = p
	}
	return ops
}

// batchItem is one row-level unit of the flattened program: op indexes the
// recorded operation, row the row within it.  The flat item list is built in
// recording order, so an item's index is its recording-order position — its
// place in its bank's stream, its trace merge key, and the deterministic
// tiebreaker for error merging.
type batchItem struct {
	op, row int32
}

// batchStream is the functional phase's exec.GroupRunner: a group is one
// bank's items of the current epoch, run in recording order.
type batchStream struct {
	b     *Batch
	items []batchItem
	ecc   bool
	ss    *obs.ShardSet
}

// execute runs the functional phase.  Every item runs in its bank's stream:
// cooperating operands are co-located row for row by the allocator, so any
// two items that touch the same DRAM row are in the same stream, already in
// recording order, and each op's per-row latencies (and, under ECC, per-row
// reliability outcomes) land in rowLats/rowRel for the timing phase.
//
// The one exception is a cross-bank copy row (a PSM copy over the internal
// bus), which reads a row in another bank's stream.  Each such copy is an
// epoch barrier: the items before it run as one plan, its own rows run alone
// with their bank groups one after another, and the items after it run as
// the next plan.  Run holds execMu exclusively, so no bank shard locks are
// needed.
func (b *Batch) execute() error {
	s := b.sys
	st := &batchStream{b: b, ecc: s.cfg.Reliability.ECC}
	n := 0
	for _, op := range b.ops {
		rows := op.rows()
		if op.kind != batchPopcount {
			op.rowLats = make([]float64, rows)
		}
		if op.kind == batchBulk && st.ecc {
			op.rowRel = make([]controller.RowResult, rows)
		}
		n += rows
	}
	st.items = make([]batchItem, 0, n)
	addrs := make([]dram.PhysAddr, 0, n)
	var barriers [][2]int // item ranges of cross-bank copies
	for i, op := range b.ops {
		first := len(st.items)
		for r, a := range op.streamRows() {
			st.items = append(st.items, batchItem{int32(i), int32(r)})
			addrs = append(addrs, a)
		}
		if op.kind == batchCopy && crossBank(op.dst, op.a) {
			barriers = append(barriers, [2]int{first, len(st.items)})
		}
	}
	lo := 0
	for _, br := range barriers {
		if err := st.runEpoch(addrs, lo, br[0], false); err != nil {
			return err
		}
		if err := st.runEpoch(addrs, br[0], br[1], true); err != nil {
			return err
		}
		lo = br[1]
	}
	return st.runEpoch(addrs, lo, len(addrs), false)
}

// runEpoch runs items lo..hi-1 as one plan: one recording-order stream per
// bank on the worker pool, or, with serial, the banks one after another on
// this goroutine.  Each stream captures its command events into its bank's
// shard keyed by item index, so MergeAndEmit delivers them in recording
// order.  The reported error is the lowest-indexed failing item's.
func (st *batchStream) runEpoch(addrs []dram.PhysAddr, lo, hi int, serial bool) error {
	if lo == hi {
		return nil
	}
	s := st.b.sys
	plan := s.eng.PlanRange(addrs, lo, hi)
	st.ss = s.cfg.Tracer.BeginShards(plan.Banks())
	var res exec.Result
	if serial {
		res = s.eng.RunPlanSerial(plan, st)
	} else {
		res = s.eng.RunPlan(plan, st)
	}
	st.ss.MergeAndEmit()
	plan.Release()
	return res.Err
}

// RunGroup runs one bank's items (idx, ascending item indices) in recording
// order and stops at the first failing item.  A maximal run of consecutive
// same-opcode bulk items evaluates in one fused pass (replaying its events
// into the shard when traced); when ECC is on, or the fused dispatch rejects
// the run (raised amplifiers, an armed fault injector), its items run
// stepwise, one train each.
func (st *batchStream) RunGroup(bank int, idx []int) exec.GroupResult {
	b, s := st.b, st.b.sys
	res := exec.GroupResult{ErrRow: -1}
	var rowBuf *[]uint64 // popcount row buffer, claimed on first use
	stepwise := 0        // idx[:stepwise] ends with a run the fused pass rejected
	for k := 0; k < len(idx); {
		it := st.items[idx[k]]
		op := b.ops[it.op]
		if op.kind == batchBulk && !st.ecc && k >= stepwise {
			j := k + 1
			for j < len(idx) {
				nx := b.ops[st.items[idx[j]].op]
				if nx.kind != batchBulk || nx.op != op.op {
					break
				}
				j++
			}
			tp := getTrains()
			for _, i := range idx[k:j] {
				o, r := b.ops[st.items[i].op], int(st.items[i].row)
				*tp = append(*tp, bulkTrain(o.op, o.dst, o.a, o.b, r))
			}
			if lat, ok := s.fusedBulk(op.op, bank, tp, st.ss, idx[k:j]); ok {
				for _, i := range idx[k:j] {
					b.ops[st.items[i].op].rowLats[st.items[i].row] = lat
				}
				res.Completed += j - k
				k = j
				continue
			}
			stepwise = j
		}
		st.ss.SetRow(bank, idx[k])
		if err := st.runItem(op, int(it.row), &rowBuf); err != nil {
			res.Err, res.ErrRow = err, idx[k]
			break
		}
		res.Completed++
		k++
	}
	if rowBuf != nil {
		rowBufPool.Put(rowBuf)
	}
	return res
}

// runItem executes row r of op as one stepwise train (or, for Popcount, one
// row read) and records its latency.
func (st *batchStream) runItem(op *batchOp, r int, rowBuf **[]uint64) error {
	s := st.b.sys
	var lat float64
	var err error
	switch op.kind {
	case batchBulk:
		var rr controller.RowResult
		rr, err = s.bulkRow(op.op, st.ecc, op.dst, op.a, op.b, r)
		if op.rowRel != nil {
			op.rowRel[r] = rr
		}
		lat = rr.LatencyNS
	case batchCopy:
		lat, err = s.copyRow(op.a.rows[r], op.dst.rows[r])
	case batchFill:
		lat, err = s.fillRow(op.dst.rows[r], op.fillBit)
	case batchFunc:
		bp := getRowAddrs(op.fn.c.NumInputs + op.fn.c.NumOutputs)
		lat, err = s.funcRow(op.fn, op.dsts, op.srcs, r, *bp)
		rowAddrPool.Put(bp)
	case batchPopcount:
		if *rowBuf == nil {
			wpr := s.dev.Geometry().WordsPerRow()
			p := rowBufPool.Get().(*[]uint64)
			if cap(*p) < wpr {
				*p = make([]uint64, wpr)
			}
			*p = (*p)[:wpr]
			*rowBuf = p
		}
		var n int64
		if n, err = s.popcountRow(op.a.rows[r], **rowBuf); err == nil {
			atomic.AddInt64(&op.result.n, n)
			return nil
		}
	}
	if err != nil {
		name := op.name()
		if op.kind == batchFunc {
			name = "func " + op.fn.name
		}
		return fmt.Errorf("ambit: batch %s row %d: %w", name, r, err)
	}
	op.rowLats[r] = lat
	return nil
}

// schedule runs the deterministic timing phase and returns the makespan.
// Ops are replayed in recording order (a topological order of the graph):
// each starts at the finish of its latest dependency plus its coherence
// charge, each row train reserves its bank's own timeline, and channel-bound
// ops (Popcount) serialize on a single channel timeline.  The system clock
// advances to the finish of the last op.
func (b *Batch) schedule(g *program.Graph) float64 {
	s := b.sys
	base := s.stats.ElapsedNS
	finish := make([]float64, len(b.ops))
	channelFree := base
	makespan := base
	observing := s.observing()
	for i, op := range b.ops {
		start := base
		for _, d := range g.Deps(i) {
			if finish[d] > start {
				start = finish[d]
			}
		}
		opStart := start
		start += s.coherenceNS(op.coherenceRows())
		end := start
		switch op.kind {
		case batchBulk:
			for r, lat := range op.rowLats {
				done := s.dev.Bank(op.dst.rows[r].Bank).Reserve(start, lat)
				s.utilRecord(Tag{}, op.dst.rows[r].Bank, done, lat)
				if done > end {
					end = done
				}
			}
			for r, rr := range op.rowRel {
				s.accountReliabilityLocked(Tag{}, op.dst.rows[r], rr)
			}
			s.stats.BulkOps[op.op]++
			s.stats.RowOps += int64(len(op.dst.rows))
		case batchCopy, batchFill:
			for r, lat := range op.rowLats {
				done := s.dev.Bank(op.dst.rows[r].Bank).Reserve(start, lat)
				s.utilRecord(Tag{}, op.dst.rows[r].Bank, done, lat)
				if done > end {
					end = done
				}
			}
			s.stats.Copies += int64(len(op.dst.rows))
		case batchFunc:
			for r, lat := range op.rowLats {
				bank := op.dsts[0].rows[r].Bank
				done := s.dev.Bank(bank).Reserve(start, lat)
				s.utilRecord(Tag{}, bank, done, lat)
				if done > end {
					end = done
				}
			}
			s.stats.FuncOps++
			s.stats.RowOps += int64(len(op.rowLats))
		case batchPopcount:
			bytes := int64(len(op.a.rows)) * int64(s.dev.Geometry().RowSizeBytes)
			if channelFree > start {
				start = channelFree
			}
			end = start + float64(bytes)/s.dev.Timing().ChannelGBps
			channelFree = end
			s.stats.ChannelBytes += bytes
		}
		finish[i] = end
		if end > makespan {
			makespan = end
		}
		// Per-op observation happens here, in the timing phase, where the
		// op's placement on the simulated timeline is known (the functional
		// phase runs concurrently and has no meaningful clock).  Energy is
		// attributed to the enclosing batch span, not per op: device
		// counters advance interleaved across the worker pool.
		if observing {
			name := op.metricName()
			if m := s.cfg.Metrics; m != nil {
				m.ObserveLatencyNS(name, end-opStart)
			}
			if tr := s.cfg.Tracer; tr.Enabled() {
				tr.Emit(obs.Event{
					Kind: obs.KindSpan, Name: name, Bank: -1, Subarray: -1,
					StartNS: opStart, DurNS: end - opStart, Rows: op.rows(),
					Comment: "batch",
				})
			}
		}
	}
	s.stats.ElapsedNS = makespan
	return makespan - base
}
