// Package bench builds the benchmark circuits of the reproduction's
// evaluation: the ISCAS-85 c17 kernel, ripple-carry adders and parity
// trees built from the native CP cells (XOR3/MAJ full adders — the
// workloads the paper's introduction motivates for controllable-polarity
// logic), a triple-modular-redundancy voter, an array multiplier, and a
// seeded random circuit generator for scaling studies.
package bench

import (
	"fmt"
	"math/rand"

	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// C17 returns the ISCAS-85 c17 benchmark (6 NAND2 gates).
func C17() *logic.Circuit {
	insts := []logic.GateInst{
		{Name: "g10", Kind: gates.NAND2, Fanin: []string{"i1", "i3"}, Output: "n10"},
		{Name: "g11", Kind: gates.NAND2, Fanin: []string{"i3", "i4"}, Output: "n11"},
		{Name: "g16", Kind: gates.NAND2, Fanin: []string{"i2", "n11"}, Output: "n16"},
		{Name: "g19", Kind: gates.NAND2, Fanin: []string{"n11", "i5"}, Output: "n19"},
		{Name: "g22", Kind: gates.NAND2, Fanin: []string{"n10", "n16"}, Output: "o22"},
		{Name: "g23", Kind: gates.NAND2, Fanin: []string{"n16", "n19"}, Output: "o23"},
	}
	c, err := logic.NewCircuit("c17",
		[]string{"i1", "i2", "i3", "i4", "i5"},
		[]string{"o22", "o23"}, insts)
	if err != nil {
		panic("bench: c17 construction failed: " + err.Error())
	}
	return c
}

// FullAdderCP returns a 1-bit full adder in native CP cells: sum = XOR3,
// carry = MAJ — two gates total, the canonical compactness argument for
// controllable-polarity logic.
func FullAdderCP() *logic.Circuit {
	insts := []logic.GateInst{
		{Name: "fa_sum", Kind: gates.XOR3, Fanin: []string{"a", "b", "cin"}, Output: "sum"},
		{Name: "fa_cout", Kind: gates.MAJ3, Fanin: []string{"a", "b", "cin"}, Output: "cout"},
	}
	c, err := logic.NewCircuit("fa_cp", []string{"a", "b", "cin"}, []string{"sum", "cout"}, insts)
	if err != nil {
		panic("bench: full adder construction failed: " + err.Error())
	}
	return c
}

// RippleCarryAdder returns an n-bit ripple-carry adder built from CP full
// adders (XOR3 + MAJ per bit). Inputs a0..a{n-1}, b0..b{n-1}, cin;
// outputs s0..s{n-1}, cout.
func RippleCarryAdder(n int) *logic.Circuit {
	if n < 1 {
		n = 1
	}
	var inputs, outputs []string
	var insts []logic.GateInst
	for i := 0; i < n; i++ {
		inputs = append(inputs, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		inputs = append(inputs, fmt.Sprintf("b%d", i))
	}
	inputs = append(inputs, "cin")
	carry := "cin"
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		s := fmt.Sprintf("s%d", i)
		cNext := fmt.Sprintf("c%d", i+1)
		if i == n-1 {
			cNext = "cout"
		}
		insts = append(insts,
			logic.GateInst{Name: fmt.Sprintf("fa%d_s", i), Kind: gates.XOR3, Fanin: []string{a, b, carry}, Output: s},
			logic.GateInst{Name: fmt.Sprintf("fa%d_c", i), Kind: gates.MAJ3, Fanin: []string{a, b, carry}, Output: cNext},
		)
		outputs = append(outputs, s)
		carry = cNext
	}
	outputs = append(outputs, "cout")
	c, err := logic.NewCircuit(fmt.Sprintf("rca%d", n), inputs, outputs, insts)
	if err != nil {
		panic("bench: rca construction failed: " + err.Error())
	}
	return c
}

// ParityTree returns an n-input parity tree of XOR2/XOR3 gates, a
// DP-gate-dominated workload.
func ParityTree(n int) *logic.Circuit {
	if n < 2 {
		n = 2
	}
	var inputs []string
	for i := 0; i < n; i++ {
		inputs = append(inputs, fmt.Sprintf("x%d", i))
	}
	level := append([]string(nil), inputs...)
	var insts []logic.GateInst
	next := 0
	for len(level) > 1 {
		var reduced []string
		for i := 0; i < len(level); {
			remain := len(level) - i
			switch {
			case remain >= 3 && (remain != 4):
				out := fmt.Sprintf("p%d", next)
				insts = append(insts, logic.GateInst{
					Name: fmt.Sprintf("gx%d", next), Kind: gates.XOR3,
					Fanin: []string{level[i], level[i+1], level[i+2]}, Output: out,
				})
				reduced = append(reduced, out)
				next++
				i += 3
			case remain >= 2:
				out := fmt.Sprintf("p%d", next)
				insts = append(insts, logic.GateInst{
					Name: fmt.Sprintf("gx%d", next), Kind: gates.XOR2,
					Fanin: []string{level[i], level[i+1]}, Output: out,
				})
				reduced = append(reduced, out)
				next++
				i += 2
			default:
				reduced = append(reduced, level[i])
				i++
			}
		}
		level = reduced
	}
	c, err := logic.NewCircuit(fmt.Sprintf("parity%d", n), inputs, []string{level[0]}, insts)
	if err != nil {
		panic("bench: parity construction failed: " + err.Error())
	}
	return c
}

// TMRVoter returns a triple-modular-redundancy voter slice: three copies
// of a small function f(x, y) = NAND(x, y) voted with a MAJ gate.
func TMRVoter() *logic.Circuit {
	insts := []logic.GateInst{
		{Name: "m0", Kind: gates.NAND2, Fanin: []string{"x0", "y0"}, Output: "f0"},
		{Name: "m1", Kind: gates.NAND2, Fanin: []string{"x1", "y1"}, Output: "f1"},
		{Name: "m2", Kind: gates.NAND2, Fanin: []string{"x2", "y2"}, Output: "f2"},
		{Name: "vote", Kind: gates.MAJ3, Fanin: []string{"f0", "f1", "f2"}, Output: "v"},
	}
	c, err := logic.NewCircuit("tmr",
		[]string{"x0", "y0", "x1", "y1", "x2", "y2"}, []string{"v"}, insts)
	if err != nil {
		panic("bench: tmr construction failed: " + err.Error())
	}
	return c
}

// Multiplier returns an n x n array multiplier built from NAND-based
// partial products (AND = NAND+INV) and CP full adders.
func Multiplier(n int) *logic.Circuit {
	if n < 2 {
		n = 2
	}
	var inputs []string
	for i := 0; i < n; i++ {
		inputs = append(inputs, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		inputs = append(inputs, fmt.Sprintf("b%d", i))
	}
	var insts []logic.GateInst
	// Partial products pp_i_j = a_i AND b_j.
	pp := make([][]string, n)
	for i := 0; i < n; i++ {
		pp[i] = make([]string, n)
		for j := 0; j < n; j++ {
			nd := fmt.Sprintf("nd%d_%d", i, j)
			out := fmt.Sprintf("pp%d_%d", i, j)
			insts = append(insts,
				logic.GateInst{Name: "g" + nd, Kind: gates.NAND2, Fanin: []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j)}, Output: nd},
				logic.GateInst{Name: "g" + out, Kind: gates.INV, Fanin: []string{nd}, Output: out},
			)
			pp[i][j] = out
		}
	}
	// Column-wise carry-save reduction with CP full adders.
	cols := make([][]string, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cols[i+j] = append(cols[i+j], pp[i][j])
		}
	}
	var outputs []string
	aux := 0
	for col := 0; col < 2*n; col++ {
		for len(cols[col]) > 1 {
			if len(cols[col]) >= 3 {
				x, y, z := cols[col][0], cols[col][1], cols[col][2]
				cols[col] = cols[col][3:]
				s := fmt.Sprintf("cs%d", aux)
				cy := fmt.Sprintf("cc%d", aux)
				aux++
				insts = append(insts,
					logic.GateInst{Name: "g" + s, Kind: gates.XOR3, Fanin: []string{x, y, z}, Output: s},
					logic.GateInst{Name: "g" + cy, Kind: gates.MAJ3, Fanin: []string{x, y, z}, Output: cy},
				)
				cols[col] = append(cols[col], s)
				if col+1 < 2*n {
					cols[col+1] = append(cols[col+1], cy)
				}
			} else {
				x, y := cols[col][0], cols[col][1]
				cols[col] = cols[col][2:]
				s := fmt.Sprintf("hs%d", aux)
				cnd := fmt.Sprintf("hn%d", aux)
				cy := fmt.Sprintf("hc%d", aux)
				aux++
				insts = append(insts,
					logic.GateInst{Name: "g" + s, Kind: gates.XOR2, Fanin: []string{x, y}, Output: s},
					logic.GateInst{Name: "g" + cnd, Kind: gates.NAND2, Fanin: []string{x, y}, Output: cnd},
					logic.GateInst{Name: "g" + cy, Kind: gates.INV, Fanin: []string{cnd}, Output: cy},
				)
				cols[col] = append(cols[col], s)
				if col+1 < 2*n {
					cols[col+1] = append(cols[col+1], cy)
				}
			}
		}
		out := fmt.Sprintf("m%d", col)
		if len(cols[col]) == 1 {
			insts = append(insts, logic.GateInst{Name: "g" + out, Kind: gates.BUF, Fanin: []string{cols[col][0]}, Output: out})
		} else {
			// Empty column (can happen at the top bit): constant zero via
			// x AND NOT x is overkill; emit a buffered a0 XOR a0 instead.
			z := fmt.Sprintf("z%d", aux)
			aux++
			insts = append(insts,
				logic.GateInst{Name: "g" + z, Kind: gates.XOR2, Fanin: []string{"a0", "a0"}, Output: z},
				logic.GateInst{Name: "g" + out, Kind: gates.BUF, Fanin: []string{z}, Output: out},
			)
		}
		outputs = append(outputs, out)
	}
	c, err := logic.NewCircuit(fmt.Sprintf("mult%dx%d", n, n), inputs, outputs, insts)
	if err != nil {
		panic("bench: multiplier construction failed: " + err.Error())
	}
	return c
}

// Random returns a seeded random DAG circuit with the given number of
// inputs and gates, mixing SP and DP cells. Deterministic per seed.
func Random(seed int64, nIn, nGates int) *logic.Circuit {
	if nIn < 3 {
		nIn = 3
	}
	if nGates < 1 {
		nGates = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var inputs []string
	for i := 0; i < nIn; i++ {
		inputs = append(inputs, fmt.Sprintf("in%d", i))
	}
	nets := append([]string(nil), inputs...)
	kinds := []gates.Kind{
		gates.INV, gates.BUF, gates.NAND2, gates.NAND3, gates.NOR2, gates.NOR3,
		gates.XOR2, gates.XOR3, gates.MAJ3,
	}
	var insts []logic.GateInst
	used := map[string]bool{}
	for g := 0; g < nGates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		spec := gates.Get(kind)
		fanin := make([]string, spec.NIn)
		for i := range fanin {
			fanin[i] = nets[rng.Intn(len(nets))]
			used[fanin[i]] = true
		}
		out := fmt.Sprintf("w%d", g)
		insts = append(insts, logic.GateInst{
			Name: fmt.Sprintf("g%d", g), Kind: kind, Fanin: fanin, Output: out,
		})
		nets = append(nets, out)
	}
	// Outputs: every net that drives nothing.
	var outputs []string
	for _, inst := range insts {
		if !used[inst.Output] {
			outputs = append(outputs, inst.Output)
		}
	}
	if len(outputs) == 0 {
		outputs = []string{insts[len(insts)-1].Output}
	}
	c, err := logic.NewCircuit(fmt.Sprintf("rand%d", seed), inputs, outputs, insts)
	if err != nil {
		panic("bench: random construction failed: " + err.Error())
	}
	return c
}

// suite maps each fixed benchmark name to its constructor, so a lookup
// builds only the circuit it names.
var suite = map[string]func() *logic.Circuit{
	"c17":      C17,
	"fa_cp":    FullAdderCP,
	"rca4":     func() *logic.Circuit { return RippleCarryAdder(4) },
	"rca8":     func() *logic.Circuit { return RippleCarryAdder(8) },
	"parity8":  func() *logic.Circuit { return ParityTree(8) },
	"parity16": func() *logic.Circuit { return ParityTree(16) },
	"tmr":      TMRVoter,
	"mult2":    func() *logic.Circuit { return Multiplier(2) },
	"mult3":    func() *logic.Circuit { return Multiplier(3) },
	"rand42":   func() *logic.Circuit { return Random(42, 8, 30) },
}

// Suite returns the named benchmark set used across the experiments,
// freshly built.
func Suite() map[string]*logic.Circuit {
	out := make(map[string]*logic.Circuit, len(suite))
	for name, build := range suite {
		out[name] = build()
	}
	return out
}
