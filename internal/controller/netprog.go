package controller

import "ambit/internal/dram"

// Net-effect programs: the fused evaluator of compiled command trains.
//
// On the fused path nothing can observe a train's intermediate states (the
// subarray starts precharged, no fault hook is armed), so only its net effect
// on the cells matters.  NewTrain therefore runs the steps once symbolically,
// treating every cell — the designated rows T0–T3, DCC0, DCC1 and the operand
// rows — as an SSA variable, and keeps the result as a small dataflow
// program: loads of initial cell values, constants, and word-wise gates.  A
// TRA whose third input is a constant folds to AND/OR, a NOT feeding an
// AND/OR folds into ANDNOT/ORNOT, NOT NOT x is x, and nodes no store needs
// are dropped.  Each touched cell is stored once with its final value; a cell
// whose final value is its initial value is not stored at all.
//
// At run time the program is evaluated in blocks of trainBlockWords words:
// every live node of the block is computed into a per-bank scratch area, then
// the stores are written.  A compiled function's host time thus tracks its
// gates rather than its steps, and its working set stays in L1.
//
// Two hazards shape the evaluation:
//
//   - A load is a window onto live cell storage, not a copy.  When a store's
//     value is the initial value of another cell that the block also stores
//     (a value rotated through the T rows), or of an operand row (operand
//     rows may alias at run time), the load is materialised into scratch
//     before any store of the block.
//   - The program treats operand slots as distinct cells.  Duplicate input
//     rows are exact under that model, and so is an output row aliasing an
//     input that the train reads only before its first write to the output
//     (the rule the root package's checkFuncOperands enforces).  Any other
//     alias pattern runs the stepwise reference instead (netExact).

// trainBlockWords is the number of row words evaluated per block: 2 KiB per
// scratch slot, so a program's live values stay in L1 across its nodes.
const trainBlockWords = 256

// Program cells: the six designated rows, then the train's operand rows.
const numFixedCells = 6

// fixedCellWL maps cells 0..5 to their wordlines (DCCs by their d-wordline).
var fixedCellWL = [numFixedCells]dram.Wordline{
	{Kind: dram.WLT, Index: 0}, {Kind: dram.WLT, Index: 1},
	{Kind: dram.WLT, Index: 2}, {Kind: dram.WLT, Index: 3},
	{Kind: dram.WLDCCData, Index: 0}, {Kind: dram.WLDCCData, Index: 1},
}

// wordlineCell returns the cell behind a B-group wordline.
func wordlineCell(wl dram.Wordline) int {
	if wl.Kind == dram.WLT {
		return wl.Index
	}
	return 4 + wl.Index // DCC d- or n-wordline
}

// bGroup is Table 1; its decoding does not depend on the geometry, so a
// Train's program is fixed at NewTrain.
var bGroup = dram.BGroupTable()

// netOp is a program node's operation.
type netOp uint8

const (
	netLoad   netOp = iota // initial value of cell x
	netConst               // all zeros (x == 0) or all ones (x == 1)
	netNot                 // ^x
	netAnd                 // x & y
	netOr                  // x | y
	netAndNot              // x &^ y
	netOrNot               // x | ^y
	netMaj                 // MAJ(x, y, z)
)

// netNode is one program node; x, y, z are earlier node indices (or the
// cell / constant bit for loads and constants).
type netNode struct {
	op      netOp
	x, y, z int32
	// slot is the node's scratch slot; -1 for a load read in place.
	slot int32
}

// netStore writes node's value into cell.
type netStore struct{ cell, node int32 }

// netProgram is a Train's compiled net effect.
type netProgram struct {
	nodes  []netNode // live nodes in evaluation (topological) order
	stores []netStore
	cells  []int32 // every cell the program loads or stores
	slots  int     // scratch slots per block
}

// netBuilder builds a program with on-the-fly folding.
type netBuilder struct {
	nodes  []netNode
	loads  []int32 // cell -> its load node, -1 until first read
	consts [2]int32
}

func (b *netBuilder) add(op netOp, x, y, z int32) int32 {
	b.nodes = append(b.nodes, netNode{op: op, x: x, y: y, z: z, slot: -1})
	return int32(len(b.nodes) - 1)
}

func (b *netBuilder) load(cell int) int32 {
	if b.loads[cell] < 0 {
		b.loads[cell] = b.add(netLoad, int32(cell), 0, 0)
	}
	return b.loads[cell]
}

func (b *netBuilder) constant(bit int32) int32 {
	if b.consts[bit] < 0 {
		b.consts[bit] = b.add(netConst, bit, 0, 0)
	}
	return b.consts[bit]
}

// constBit returns v's bit when v is a constant, else -1.
func (b *netBuilder) constBit(v int32) int32 {
	if b.nodes[v].op == netConst {
		return b.nodes[v].x
	}
	return -1
}

func (b *netBuilder) not(v int32) int32 {
	switch n := b.nodes[v]; n.op {
	case netNot:
		return n.x
	case netConst:
		return b.constant(1 - n.x)
	}
	return b.add(netNot, v, 0, 0)
}

// and2 and or2 build x&y and x|y; absorbing is the bit that decides the
// result (0 for AND, 1 for OR).
func (b *netBuilder) and2(x, y int32) int32 { return b.gate(netAnd, netAndNot, 0, x, y) }
func (b *netBuilder) or2(x, y int32) int32  { return b.gate(netOr, netOrNot, 1, x, y) }

func (b *netBuilder) gate(op, opNot netOp, absorbing, x, y int32) int32 {
	if b.constBit(x) >= 0 {
		x, y = y, x
	}
	if c := b.constBit(y); c >= 0 {
		if c == absorbing {
			return y
		}
		return x
	}
	if x == y {
		return x
	}
	if b.nodes[x].op == netNot {
		x, y = y, x
	}
	if b.nodes[y].op == netNot {
		if b.nodes[y].x == x { // x & ^x, x | ^x
			return b.constant(absorbing)
		}
		return b.add(opNot, x, b.nodes[y].x, 0)
	}
	return b.add(op, x, y, 0)
}

func (b *netBuilder) maj(x, y, z int32) int32 {
	if b.constBit(x) >= 0 {
		x, z = z, x
	} else if b.constBit(y) >= 0 {
		y, z = z, y
	}
	switch b.constBit(z) {
	case 0:
		return b.and2(x, y)
	case 1:
		return b.or2(x, y)
	}
	if x == y || x == z {
		return x
	}
	if y == z {
		return y
	}
	return b.add(netMaj, x, y, z)
}

// buildNetProgram runs the train's steps symbolically and compiles their net
// effect.  The train must not sense two wordlines in any step.
func buildNetProgram(t *Train) *netProgram {
	ncell := numFixedCells + t.operands
	b := &netBuilder{loads: make([]int32, ncell), consts: [2]int32{-1, -1}}
	state := make([]int32, ncell) // cell -> current value, -1 while initial
	for i := range state {
		b.loads[i], state[i] = -1, -1
	}
	read := func(cell int) int32 {
		if state[cell] < 0 {
			state[cell] = b.load(cell)
		}
		return state[cell]
	}
	// write stores v into a wordline's cell, complemented through an
	// n-wordline.
	write := func(wl dram.Wordline, v int32) {
		if wl.Negated() {
			v = b.not(v)
		}
		state[wordlineCell(wl)] = v
	}
	for i := range t.steps {
		s := &t.steps[i]
		var v int32 // the sensed (bitline-side) value
		switch {
		case s.Op1 >= 0:
			v = read(numFixedCells + s.Op1)
		case s.A1.Group == dram.GroupC:
			v = b.constant(int32(s.A1.Index))
		default:
			wls := bGroup[s.A1.Index]
			var in [3]int32
			for k, wl := range wls {
				in[k] = read(wordlineCell(wl))
				if wl.Negated() {
					in[k] = b.not(in[k])
				}
			}
			v = in[0]
			if len(wls) == 3 {
				// TRA: the majority is restored into all three
				// cells.  A single sensed cell is restored unchanged.
				v = b.maj(in[0], in[1], in[2])
				for _, wl := range wls {
					write(wl, v)
				}
			}
		}
		if s.Kind != StepAAP {
			continue
		}
		if s.Op2 >= 0 {
			state[numFixedCells+s.Op2] = v
			continue
		}
		for _, wl := range bGroup[s.A2.Index] {
			write(wl, v)
		}
	}

	// Stores, then the nodes they need (nodes only reference earlier ones).
	p := &netProgram{}
	stored := make([]bool, ncell)
	operandStored := false
	for cell, v := range state {
		if v >= 0 && v != b.loads[cell] {
			p.stores = append(p.stores, netStore{cell: int32(cell), node: v})
			stored[cell] = true
			operandStored = operandStored || cell >= numFixedCells
		}
	}
	live := make([]bool, len(b.nodes))
	for _, st := range p.stores {
		live[st.node] = true
		// Materialise a load that is directly a store value when its cell
		// may be overwritten by the same block's stores (slot 0 marks it
		// for the slot allocation below).
		if n := &b.nodes[st.node]; n.op == netLoad && (stored[n.x] || (n.x >= numFixedCells && operandStored)) {
			n.slot = 0
		}
	}
	for i := len(b.nodes) - 1; i >= 0; i-- {
		if live[i] {
			for _, arg := range b.nodes[i].args() {
				live[arg] = true
			}
		}
	}

	// Compact, and allocate scratch slots by liveness: a slot is reused
	// once its node's last reader has been computed.  Store values stay
	// live to the end of the block.
	remap := make([]int32, len(b.nodes))
	cellUsed := stored // stored cells, plus every loaded one below
	for i, n := range b.nodes {
		if !live[i] {
			continue
		}
		remap[i] = int32(len(p.nodes))
		switch n.op {
		case netLoad:
			cellUsed[n.x] = true
		case netNot, netAnd, netOr, netAndNot, netOrNot, netMaj:
			n.x, n.y, n.z = remap[n.x], remap[n.y], remap[n.z] // unused ones stay harmless
		}
		p.nodes = append(p.nodes, n)
	}
	for i := range p.stores {
		p.stores[i].node = remap[p.stores[i].node]
	}
	for cell, used := range cellUsed {
		if used {
			p.cells = append(p.cells, int32(cell))
		}
	}
	lastUse := make([]int, len(p.nodes))
	for i, n := range p.nodes {
		for _, arg := range n.args() {
			lastUse[arg] = i
		}
	}
	for _, st := range p.stores {
		lastUse[st.node] = len(p.nodes)
	}
	var free []int32
	for i := range p.nodes {
		n := &p.nodes[i]
		for _, arg := range n.args() { // distinct, by the folding rules
			if lastUse[arg] == i && p.nodes[arg].slot >= 0 {
				free = append(free, p.nodes[arg].slot)
			}
		}
		if n.op == netLoad && n.slot < 0 {
			continue // read in place
		}
		if len(free) > 0 {
			n.slot, free = free[len(free)-1], free[:len(free)-1]
		} else {
			n.slot = int32(p.slots)
			p.slots++
		}
	}
	return p
}

// args returns the node's operand node indices.
func (n *netNode) args() []int32 {
	switch n.op {
	case netNot:
		return []int32{n.x}
	case netAnd, netOr, netAndNot, netOrNot:
		return []int32{n.x, n.y}
	case netMaj:
		return []int32{n.x, n.y, n.z}
	}
	return nil
}

// netScratch is one bank's evaluation scratch, grown to the largest program
// run on the bank and reused; the bank's shard lock serializes its use.
type netScratch struct {
	buf   []uint64   // slots × trainBlockWords
	vals  [][]uint64 // per-node value window of the current block
	cells [][]uint64 // per-cell live storage of the current train
}

// netExact reports whether the program's distinct-cell model is exact for
// these operand rows: every pair of aliased operand slots is either two
// unwritten inputs, or one written slot whose first write follows every read
// of the other.
func (t *Train) netExact(rows []dram.RowAddr) bool {
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if rows[i].Index != rows[j].Index {
				continue
			}
			wi, wj := t.firstWrite[i], t.firstWrite[j]
			switch {
			case wi < 0 && wj < 0:
			case wi >= 0 && wj >= 0:
				return false
			case wj >= 0 && t.lastRead[i] >= wj, wi >= 0 && t.lastRead[j] >= wi:
				return false
			}
		}
	}
	return true
}

// runNetProgram evaluates the train's program over one subarray's rows.
func (c *Controller) runNetProgram(p *netProgram, sa *dram.Subarray, bank int, rows []dram.RowAddr) {
	sc := &c.scratch[bank]
	if n := numFixedCells + len(rows); len(sc.cells) < n {
		sc.cells = make([][]uint64, n)
	}
	if len(sc.vals) < len(p.nodes) {
		sc.vals = make([][]uint64, len(p.nodes))
	}
	if n := p.slots * trainBlockWords; len(sc.buf) < n {
		sc.buf = make([]uint64, n)
	}
	cells, vals := sc.cells, sc.vals
	for _, cell := range p.cells {
		wl := dram.Wordline{Kind: dram.WLData}
		if cell < numFixedCells {
			wl = fixedCellWL[cell]
		} else {
			wl.Index = rows[cell-numFixedCells].Index
		}
		cells[cell] = sa.CellData(wl)
	}
	words := c.dev.Geometry().WordsPerRow()
	for lo := 0; lo < words; lo += trainBlockWords {
		hi := min(lo+trainBlockWords, words)
		for i := range p.nodes {
			n := &p.nodes[i]
			if n.slot < 0 {
				vals[i] = cells[n.x][lo:hi]
				continue
			}
			d := sc.buf[int(n.slot)*trainBlockWords:][:hi-lo]
			switch n.op {
			case netLoad:
				copy(d, cells[n.x][lo:hi])
			case netConst:
				v := -uint64(n.x) // 0 or all ones
				for k := range d {
					d[k] = v
				}
			case netNot:
				x := vals[n.x][:len(d)]
				for k := range d {
					d[k] = ^x[k]
				}
			case netAnd:
				x, y := vals[n.x][:len(d)], vals[n.y][:len(d)]
				for k := range d {
					d[k] = x[k] & y[k]
				}
			case netOr:
				x, y := vals[n.x][:len(d)], vals[n.y][:len(d)]
				for k := range d {
					d[k] = x[k] | y[k]
				}
			case netAndNot:
				x, y := vals[n.x][:len(d)], vals[n.y][:len(d)]
				for k := range d {
					d[k] = x[k] &^ y[k]
				}
			case netOrNot:
				x, y := vals[n.x][:len(d)], vals[n.y][:len(d)]
				for k := range d {
					d[k] = x[k] | ^y[k]
				}
			case netMaj:
				x, y, z := vals[n.x][:len(d)], vals[n.y][:len(d)], vals[n.z][:len(d)]
				for k := range d {
					a, b, cc := x[k], y[k], z[k]
					d[k] = a&b | a&cc | b&cc
				}
			}
			vals[i] = d
		}
		for _, st := range p.stores {
			copy(cells[st.cell][lo:hi], vals[st.node])
		}
	}
}
