package logic

import (
	"sort"

	"cpsinw/internal/gates"
)

// CompiledCircuit is a Circuit lowered to dense integer net ids with a
// per-gate ternary LUT: the form the fault-simulation engines and ATPG's
// PODEM implication evaluate.
// Net ids follow the sorted net-name order of Nets(), so they are
// deterministic for a given circuit.
type CompiledCircuit struct {
	C *Circuit

	NetName  []string       // net id -> name
	NetID    map[string]int // name -> net id
	InputID  []int          // per primary input, in circuit input order
	OutputID []int          // per primary output, in circuit output order
	IsOutput []bool         // net id -> drives a primary output

	Fanin   [][]int      // gate -> fanin net ids, in pin order
	GateOut []int        // gate -> output net id
	LUT     []GateLUT    // gate -> compiled ternary table (shared per kind)
	Kinds   []gates.Kind // gate -> kind (packed evaluation specializes per kind)

	Order   []int   // levelized gate evaluation order
	Pos     []int   // gate -> position in Order (cone scheduling priority)
	Fanouts [][]int // net id -> gate indices reading the net

	// Fanout-free regions. Reader maps a net read by exactly one gate
	// (on one or more pins) that is not a primary output to that gate,
	// and every other net — a stem read by two or more gates, a primary
	// output, an unread net — to -1. Root maps a gate to the root of its
	// fanout-free region: the gate reached by following Reader from the
	// gate's output until a net with none. A change at a net whose
	// Reader is g can only reach the outputs through g's output.
	Reader []int
	Root   []int
}

// Compile lowers the circuit. The result is immutable and safe for
// concurrent use; callers cache it (compilation is O(nets + gates)).
func (c *Circuit) Compile() *CompiledCircuit {
	names := c.Nets()
	cc := &CompiledCircuit{
		C:        c,
		NetName:  names,
		NetID:    make(map[string]int, len(names)),
		InputID:  make([]int, len(c.Inputs)),
		OutputID: make([]int, len(c.Outputs)),
		IsOutput: make([]bool, len(names)),
		Fanin:    make([][]int, len(c.Gates)),
		GateOut:  make([]int, len(c.Gates)),
		LUT:      make([]GateLUT, len(c.Gates)),
		Kinds:    make([]gates.Kind, len(c.Gates)),
		Order:    c.Levelized(),
		Pos:      make([]int, len(c.Gates)),
		Fanouts:  make([][]int, len(names)),
		Reader:   make([]int, len(names)),
		Root:     make([]int, len(c.Gates)),
	}
	for id, n := range names {
		cc.NetID[n] = id
	}
	for i, pi := range c.Inputs {
		cc.InputID[i] = cc.NetID[pi]
	}
	for i, po := range c.Outputs {
		id := cc.NetID[po]
		cc.OutputID[i] = id
		cc.IsOutput[id] = true
	}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		fin := make([]int, len(g.Fanin))
		for k, f := range g.Fanin {
			fin[k] = cc.NetID[f]
		}
		cc.Fanin[gi] = fin
		cc.GateOut[gi] = cc.NetID[g.Output]
		cc.LUT[gi] = CompileGateLUT(g.Kind)
		cc.Kinds[gi] = g.Kind
	}
	for pos, gi := range cc.Order {
		cc.Pos[gi] = pos
	}
	for _, net := range names {
		id := cc.NetID[net]
		fo := append([]int(nil), c.Fanouts(net)...)
		sort.Ints(fo)
		cc.Fanouts[id] = fo
		cc.Reader[id] = -1
		if len(fo) > 0 && fo[0] == fo[len(fo)-1] && !cc.IsOutput[id] {
			cc.Reader[id] = fo[0]
		}
	}
	// A reader sits later in Order than the gates it reads, so a reverse
	// scan settles its root first (iteratively: chains can be long).
	for i := len(cc.Order) - 1; i >= 0; i-- {
		gi := cc.Order[i]
		cc.Root[gi] = gi
		if r := cc.Reader[cc.GateOut[gi]]; r >= 0 {
			cc.Root[gi] = cc.Root[r]
		}
	}
	return cc
}

// NumNets returns the dense net count.
func (cc *CompiledCircuit) NumNets() int { return len(cc.NetName) }

// EvalInto simulates the fault-free circuit for one ternary assignment
// into vals (length NumNets), returning vals. Inputs missing from the
// assignment are X, matching Circuit.Eval.
func (cc *CompiledCircuit) EvalInto(assign map[string]V, vals []V) []V {
	for i, pi := range cc.C.Inputs {
		v, ok := assign[pi]
		if !ok {
			v = LX
		}
		vals[cc.InputID[i]] = v
	}
	for _, gi := range cc.Order {
		vals[cc.GateOut[gi]] = cc.LUT[gi][cc.GateInputIndex(gi, vals)]
	}
	return vals
}

// GateInputIndex computes the ternary LUT index of one gate's inputs
// under the given net values.
func (cc *CompiledCircuit) GateInputIndex(gi int, vals []V) int {
	idx := 0
	for k, nid := range cc.Fanin[gi] {
		idx += int(vals[nid]) * pow3[k]
	}
	return idx
}

// EvalBlock simulates w*64 ternary patterns at once over the levelized
// IR: in holds the input blocks (input-major, stride w; X lanes model
// missing assignments), vals the per-net result blocks (net-major,
// stride w, length NumNets()*w). Lane l of the result is bit-identical
// to EvalInto on pattern l, which the differential and fuzz suites in
// internal/faultsim and this package enforce. This is the one dense
// evaluation every packed fault engine builds its baselines from.
func (cc *CompiledCircuit) EvalBlock(in []PackedVec, w int, vals []PackedVec) []PackedVec {
	for i, id := range cc.InputID {
		for j := 0; j < w; j++ {
			vals[id*w+j] = in[i*w+j].Canon()
		}
	}
	var buf [3]PackedVec
	for _, gi := range cc.Order {
		fin := cc.Fanin[gi]
		on := cc.GateOut[gi]
		kind, lut := cc.Kinds[gi], cc.LUT[gi]
		for j := 0; j < w; j++ {
			for k, nid := range fin {
				buf[k] = vals[nid*w+j]
			}
			vals[on*w+j] = EvalKindPacked(kind, lut, buf[:len(fin)])
		}
	}
	return vals
}

// EvalGatePlanes evaluates one gate across all 64 lanes from the net
// planes.
func (cc *CompiledCircuit) EvalGatePlanes(gi int, vals []PackedVec) PackedVec {
	var in [3]PackedVec
	fin := cc.Fanin[gi]
	for k, nid := range fin {
		in[k] = vals[nid]
	}
	return EvalKindPacked(cc.Kinds[gi], cc.LUT[gi], in[:len(fin)])
}
