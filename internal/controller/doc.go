// Package controller implements the Ambit controller of Section 5: the AAP
// (ACTIVATE-ACTIVATE-PRECHARGE) and AP (ACTIVATE-PRECHARGE) primitives, the
// command sequences for all seven bulk bitwise operations (Figure 8), the
// split-row-decoder latency optimization (Section 5.3), per-operation
// latency/command accounting, and the execute-verify-retry reliability
// policy (TMR over weak analog primitives).
//
// Beyond the fixed Figure-8 sequences, Train is the general form: a
// validated program of AAP/AP steps over symbolic operand slots plus fixed
// B/C-group addresses, which internal/compile emits for arbitrary boolean
// functions.  ExecuteOp and ExecuteTrain each pick between two equivalent
// evaluators: a fused word-level evaluator for the common case, and
// step-by-step device commands — the reference semantics — whenever a fault
// injector, raised wordline state, or a two-wordline sensing step demands
// cell-accurate execution.
//
// The fused evaluator of a Train is its net-effect program (netprog.go),
// compiled once in NewTrain: the steps run symbolically with every cell
// (operand rows, T0–T3, DCC0, DCC1) as an SSA value, TRAs with a constant
// input fold to AND/OR, NOTs fold into ANDNOT/ORNOT, dead nodes are dropped,
// and each touched cell is stored once with its final value.  Per row the
// program runs in L1-sized word blocks: all live nodes into per-bank
// scratch, then the stores.  Two hazards are handled there: a store whose
// value is a load of a cell that the block may overwrite gets that load
// copied to scratch first, and operand rows aliased in a way the
// distinct-cell model cannot express (anything beyond duplicate inputs or an
// output written after its aliased input's last read) run stepwise.
//
// The two paths are contract-equal: identical cells, latencies, controller
// and device statistics, and (when traced) byte-identical command event
// streams, enforced by the *MatchesStepwise tests.
//
// A Controller is not safe for concurrent use on one bank: callers (the
// root System and its batch engine) serialize access per bank via the
// shared exec shard locks.  All results are deterministic — latency is pure
// arithmetic over the timing parameters, and fault injection is seeded.
package controller
