package logic

import (
	"fmt"
	"sort"
	"sync"

	"cpsinw/internal/gates"
)

// GateInst is one gate instance in a combinational circuit.
type GateInst struct {
	Name   string
	Kind   gates.Kind
	Fanin  []string // net names, in input order
	Output string   // net name
}

// Circuit is a combinational gate-level circuit over named nets.
type Circuit struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []GateInst

	levelized []int          // gate evaluation order
	driver    map[string]int // net -> gate index (-1 for PI)
	fanouts   map[string][]int

	// compiled is the circuit's one compiled form, built on first use.
	// It sits behind a pointer so that copying a Circuit copies no lock.
	compiled *compiledOnce
}

type compiledOnce struct {
	once sync.Once
	cc   *CompiledCircuit
}

// NewCircuit builds a circuit and checks its structure: every net has
// exactly one driver, fanin arities match the gate kinds, and the gate
// graph is acyclic.
func NewCircuit(name string, inputs, outputs []string, insts []GateInst) (*Circuit, error) {
	c := &Circuit{Name: name, Inputs: inputs, Outputs: outputs, Gates: insts, compiled: new(compiledOnce)}
	if err := c.check(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Circuit) check() error {
	c.driver = map[string]int{}
	c.fanouts = map[string][]int{}
	for _, pi := range c.Inputs {
		if _, dup := c.driver[pi]; dup {
			return fmt.Errorf("logic: duplicate input %q", pi)
		}
		c.driver[pi] = -1
	}
	for gi, g := range c.Gates {
		spec := gates.Get(g.Kind)
		if len(g.Fanin) != spec.NIn {
			return fmt.Errorf("logic: gate %s (%v) has %d fanins, wants %d", g.Name, g.Kind, len(g.Fanin), spec.NIn)
		}
		if _, dup := c.driver[g.Output]; dup {
			return fmt.Errorf("logic: net %q multiply driven", g.Output)
		}
		c.driver[g.Output] = gi
	}
	for gi, g := range c.Gates {
		for _, f := range g.Fanin {
			if _, ok := c.driver[f]; !ok {
				return fmt.Errorf("logic: gate %s reads undriven net %q", g.Name, f)
			}
			c.fanouts[f] = append(c.fanouts[f], gi)
		}
	}
	for _, po := range c.Outputs {
		if _, ok := c.driver[po]; !ok {
			return fmt.Errorf("logic: output %q undriven", po)
		}
	}
	// Levelize (topological order); detects cycles.
	state := make([]int, len(c.Gates)) // 0 unvisited, 1 visiting, 2 done
	order := make([]int, 0, len(c.Gates))
	var visit func(gi int) error
	visit = func(gi int) error {
		switch state[gi] {
		case 1:
			return fmt.Errorf("logic: combinational cycle through gate %s", c.Gates[gi].Name)
		case 2:
			return nil
		}
		state[gi] = 1
		for _, f := range c.Gates[gi].Fanin {
			if d := c.driver[f]; d >= 0 {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[gi] = 2
		order = append(order, gi)
		return nil
	}
	for gi := range c.Gates {
		if err := visit(gi); err != nil {
			return err
		}
	}
	c.levelized = order
	return nil
}

// Nets returns all net names, sorted.
func (c *Circuit) Nets() []string {
	out := make([]string, 0, len(c.driver))
	for n := range c.driver {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Driver returns the index of the gate driving the net, or -1 for primary
// inputs; ok is false for unknown nets.
func (c *Circuit) Driver(net string) (int, bool) {
	d, ok := c.driver[net]
	return d, ok
}

// Fanouts returns the gates reading a net.
func (c *Circuit) Fanouts(net string) []int { return c.fanouts[net] }

// Levelized returns gate indices in topological evaluation order.
func (c *Circuit) Levelized() []int { return c.levelized }

// evalKind computes one gate's ternary output from ternary inputs by
// enumerating the unknowns (at most 3 inputs, so at most 8 cases).
func evalKind(kind gates.Kind, in []V) V {
	spec := gates.Get(kind)
	xs := []int{}
	bin := make([]bool, len(in))
	for i, v := range in {
		switch v {
		case LX:
			xs = append(xs, i)
		case L1:
			bin[i] = true
		}
	}
	if len(xs) == 0 {
		return FromBool(spec.Eval(bin))
	}
	var first V
	for m := 0; m < 1<<len(xs); m++ {
		for bit, idx := range xs {
			bin[idx] = (m>>bit)&1 == 1
		}
		v := FromBool(spec.Eval(bin))
		if m == 0 {
			first = v
		} else if v != first {
			return LX
		}
	}
	return first
}

// Eval simulates the circuit for one ternary input assignment and returns
// the value of every net.
func (c *Circuit) Eval(assign map[string]V) map[string]V {
	vals := map[string]V{}
	for _, pi := range c.Inputs {
		if v, ok := assign[pi]; ok {
			vals[pi] = v
		} else {
			vals[pi] = LX
		}
	}
	in := make([]V, 3)
	for _, gi := range c.levelized {
		g := &c.Gates[gi]
		in = in[:len(g.Fanin)]
		for i, f := range g.Fanin {
			in[i] = vals[f]
		}
		vals[g.Output] = evalKind(g.Kind, in)
	}
	return vals
}

// EvalOutputs simulates and returns only the primary output values, in
// the circuit's output order.
func (c *Circuit) EvalOutputs(assign map[string]V) []V {
	vals := c.Eval(assign)
	out := make([]V, len(c.Outputs))
	for i, po := range c.Outputs {
		out[i] = vals[po]
	}
	return out
}

// The former map-based 64-way binary simulation (PackedAssign /
// Circuit.EvalPacked / EvalPackedHooked) is gone: every dense consumer —
// stuck-at, transistor and bridge fault simulation alike — now evaluates
// the one levelized IR of CompiledCircuit, with ternary bitplane lanes
// (PackedVec / lane blocks) as the only packed representation.
