package logic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"cpsinw/internal/gates"
)

// The .bench-style netlist format (ISCAS-85 flavoured):
//
//	# comment
//	INPUT(a)
//	OUTPUT(y)
//	n1 = NAND(a, b)        # arity inferred
//	n2 = XOR(n1, c)
//	n3 = MAJ(a, b, c)
//	n4 = AND(a, b, c, d, n3)
//	y  = NOT(n2)           # NOT and INV are synonyms; BUF/BUFF too
//
// Functions that map 1:1 onto the native CP cell library parse
// arity-preserving and round-trip exactly through WriteBench:
// NOT/INV, BUF/BUFF, NAND (2-3 in), NOR (2-3 in), XOR (2-3 in),
// MAJ (3 in).
//
// Real ISCAS netlists also use AND/OR (no native cell) and arbitrary
// fanin; those are decomposed at parse time into the native cells:
//
//	AND(a1..an)   ->  balanced AND tree; every tree node is
//	                  NAND2/NAND3 + NOT (the library has no AND cell)
//	OR(a1..an)    ->  balanced OR tree of NOR2/NOR3 + NOT nodes
//	NAND(a1..an)  ->  AND tree reducing the args to <= 3 nets,
//	                  finished by one native NAND2/NAND3 (n > 3)
//	NOR(a1..an)   ->  OR tree reduced the same way, finished by NOR
//	XOR(a1..an)   ->  balanced XOR2/XOR3 tree (associative, exact)
//	XNOR/NXOR(..) ->  XOR tree + NOT
//
// Single-argument AND/OR/XOR act as BUF and single-argument NAND/NOR/
// XNOR as NOT, matching the degenerate-gate convention of ISCAS tools.
// Decomposition introduces fresh helper nets named <out>_d<k>; they
// are guaranteed not to collide with any net mentioned in the source.
// The decomposed form is what WriteBench emits, so parse -> write ->
// parse is a fixpoint (the wide gate itself is not reconstructed).

// maxBenchToken is the scanner line limit for ParseBench. Generated
// netlists legitimately carry machine-length lines (a single wide gate
// or a long comment), far past bufio.Scanner's 64KB default.
const maxBenchToken = 16 << 20

// ParseBench reads the .bench format into a Circuit.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type assign struct {
		ln   int
		out  string
		fn   string
		args []string
	}
	var inputs, outputs []string
	var assigns []assign
	nets := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxBenchToken)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT(") && strings.HasSuffix(line, ")"):
			in := strings.TrimSpace(line[6 : len(line)-1])
			if err := checkBenchNet(ln, in); err != nil {
				return nil, err
			}
			inputs = append(inputs, in)
			nets[in] = true
		case strings.HasPrefix(upper, "OUTPUT(") && strings.HasSuffix(line, ")"):
			out := strings.TrimSpace(line[7 : len(line)-1])
			if err := checkBenchNet(ln, out); err != nil {
				return nil, err
			}
			outputs = append(outputs, out)
			nets[out] = true
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment: %q", ln, line)
			}
			out := strings.TrimSpace(line[:eq])
			if err := checkBenchNet(ln, out); err != nil {
				return nil, err
			}
			rhs := strings.TrimSpace(line[eq+1:])
			op := strings.IndexByte(rhs, '(')
			if op < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("bench line %d: expected FUNC(args): %q", ln, rhs)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:op]))
			var args []string
			for _, a := range strings.Split(rhs[op+1:len(rhs)-1], ",") {
				a = strings.TrimSpace(a)
				if a != "" {
					args = append(args, a)
				}
			}
			nets[out] = true
			for _, a := range args {
				nets[a] = true
			}
			assigns = append(assigns, assign{ln: ln, out: out, fn: fn, args: args})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Second pass: emit gates. Helper nets for decomposed wide gates
	// are chosen fresh against the full net-name set collected above.
	em := &benchEmitter{nets: nets}
	for _, a := range assigns {
		if err := em.emit(a.out, a.fn, a.args); err != nil {
			return nil, fmt.Errorf("bench line %d: %v", a.ln, err)
		}
	}
	return NewCircuit(name, inputs, outputs, em.insts)
}

// checkBenchNet rejects a declared net name WriteBench could not
// reproduce: a comma in it would read back as an argument separator
// wherever the net is a gate input.
func checkBenchNet(ln int, name string) error {
	if strings.Contains(name, ",") {
		return fmt.Errorf("bench line %d: net name %q contains ','", ln, name)
	}
	return nil
}

// benchEmitter lowers parsed .bench assignments onto the native cell
// library, decomposing AND/OR and wide fanin as documented above.
type benchEmitter struct {
	nets  map[string]bool
	insts []GateInst
	tmp   int
}

func (e *benchEmitter) add(kind gates.Kind, out string, fanin ...string) {
	e.insts = append(e.insts, GateInst{
		Name:   fmt.Sprintf("g%d_%s", len(e.insts), out),
		Kind:   kind,
		Fanin:  fanin,
		Output: out,
	})
}

// fresh returns a helper net name derived from out that no source line
// mentions and no earlier helper took.
func (e *benchEmitter) fresh(out string) string {
	for {
		n := fmt.Sprintf("%s_d%d", out, e.tmp)
		e.tmp++
		if !e.nets[n] {
			e.nets[n] = true
			return n
		}
	}
}

// nary picks the 2- or 3-input variant of a native kind.
func nary(k2, k3 gates.Kind, n int) gates.Kind {
	if n == 3 {
		return k3
	}
	return k2
}

// reduceLevel performs one balanced level of an associative reduction,
// grouping args into chunks of 3 (avoiding a trailing singleton by
// preferring 2+2 over 3+1) and replacing each chunk with node(chunk).
func (e *benchEmitter) reduceLevel(args []string, node func(chunk []string) string) []string {
	var next []string
	for i := 0; i < len(args); {
		remain := len(args) - i
		switch {
		case remain >= 3 && remain != 4:
			next = append(next, node(args[i:i+3]))
			i += 3
		case remain >= 2:
			next = append(next, node(args[i:i+2]))
			i += 2
		default:
			next = append(next, args[i])
			i++
		}
	}
	return next
}

// andNode emits one AND tree node (NAND + NOT) over <= 3 args.
func (e *benchEmitter) andNode(out string) func(chunk []string) string {
	return func(chunk []string) string {
		m, o := e.fresh(out), e.fresh(out)
		e.add(nary(gates.NAND2, gates.NAND3, len(chunk)), m, chunk...)
		e.add(gates.INV, o, m)
		return o
	}
}

// orNode emits one OR tree node (NOR + NOT) over <= 3 args.
func (e *benchEmitter) orNode(out string) func(chunk []string) string {
	return func(chunk []string) string {
		m, o := e.fresh(out), e.fresh(out)
		e.add(nary(gates.NOR2, gates.NOR3, len(chunk)), m, chunk...)
		e.add(gates.INV, o, m)
		return o
	}
}

// xorNode emits one XOR tree node over <= 3 args.
func (e *benchEmitter) xorNode(out string) func(chunk []string) string {
	return func(chunk []string) string {
		o := e.fresh(out)
		e.add(nary(gates.XOR2, gates.XOR3, len(chunk)), o, chunk...)
		return o
	}
}

// reduceTo3 runs reduction levels until at most 3 nets remain.
func (e *benchEmitter) reduceTo3(args []string, node func(chunk []string) string) []string {
	for len(args) > 3 {
		args = e.reduceLevel(args, node)
	}
	return args
}

// emit lowers one assignment out = FN(args).
func (e *benchEmitter) emit(out, fn string, args []string) error {
	n := len(args)
	switch fn {
	case "NOT", "INV":
		if n != 1 {
			return fmt.Errorf("%s wants 1 argument, got %d", fn, n)
		}
		e.add(gates.INV, out, args[0])
	case "BUF", "BUFF":
		if n != 1 {
			return fmt.Errorf("%s wants 1 argument, got %d", fn, n)
		}
		e.add(gates.BUF, out, args[0])
	case "MAJ":
		if n != 3 {
			return fmt.Errorf("MAJ wants 3 arguments, got %d", n)
		}
		e.add(gates.MAJ3, out, args...)
	case "NAND":
		switch {
		case n == 0:
			return fmt.Errorf("NAND wants at least 1 argument")
		case n == 1:
			e.add(gates.INV, out, args[0])
		default:
			args = e.reduceTo3(args, e.andNode(out))
			e.add(nary(gates.NAND2, gates.NAND3, len(args)), out, args...)
		}
	case "NOR":
		switch {
		case n == 0:
			return fmt.Errorf("NOR wants at least 1 argument")
		case n == 1:
			e.add(gates.INV, out, args[0])
		default:
			args = e.reduceTo3(args, e.orNode(out))
			e.add(nary(gates.NOR2, gates.NOR3, len(args)), out, args...)
		}
	case "AND":
		switch {
		case n == 0:
			return fmt.Errorf("AND wants at least 1 argument")
		case n == 1:
			e.add(gates.BUF, out, args[0])
		default:
			args = e.reduceTo3(args, e.andNode(out))
			m := e.fresh(out)
			e.add(nary(gates.NAND2, gates.NAND3, len(args)), m, args...)
			e.add(gates.INV, out, m)
		}
	case "OR":
		switch {
		case n == 0:
			return fmt.Errorf("OR wants at least 1 argument")
		case n == 1:
			e.add(gates.BUF, out, args[0])
		default:
			args = e.reduceTo3(args, e.orNode(out))
			m := e.fresh(out)
			e.add(nary(gates.NOR2, gates.NOR3, len(args)), m, args...)
			e.add(gates.INV, out, m)
		}
	case "XOR":
		switch {
		case n == 0:
			return fmt.Errorf("XOR wants at least 1 argument")
		case n == 1:
			e.add(gates.BUF, out, args[0])
		default:
			args = e.reduceTo3(args, e.xorNode(out))
			e.add(nary(gates.XOR2, gates.XOR3, len(args)), out, args...)
		}
	case "XNOR", "NXOR":
		switch {
		case n == 0:
			return fmt.Errorf("%s wants at least 1 argument", fn)
		case n == 1:
			e.add(gates.INV, out, args[0])
		default:
			args = e.reduceTo3(args, e.xorNode(out))
			m := e.fresh(out)
			e.add(nary(gates.XOR2, gates.XOR3, len(args)), m, args...)
			e.add(gates.INV, out, m)
		}
	default:
		return fmt.Errorf("unknown function %q", fn)
	}
	return nil
}

func benchFn(k gates.Kind) string {
	switch k {
	case gates.INV:
		return "NOT"
	case gates.BUF:
		return "BUF"
	case gates.NAND2, gates.NAND3:
		return "NAND"
	case gates.NOR2, gates.NOR3:
		return "NOR"
	case gates.XOR2, gates.XOR3:
		return "XOR"
	case gates.MAJ3:
		return "MAJ"
	}
	return "?"
}

// WriteBench emits the circuit in the .bench format; the output parses
// back into an equivalent circuit.
func WriteBench(w io.Writer, c *Circuit) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", c.Name)
	for _, pi := range c.Inputs {
		fmt.Fprintf(&b, "INPUT(%s)\n", pi)
	}
	for _, po := range c.Outputs {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", po)
	}
	for _, g := range c.Gates {
		fmt.Fprintf(&b, "%s = %s(%s)\n", g.Output, benchFn(g.Kind), strings.Join(g.Fanin, ", "))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Stats summarises a circuit for reports.
type Stats struct {
	Inputs, Outputs, Gates int
	ByKind                 map[gates.Kind]int
	DPGates                int // dynamic-polarity gate count
}

// Statistics computes circuit statistics.
func (c *Circuit) Statistics() Stats {
	s := Stats{Inputs: len(c.Inputs), Outputs: len(c.Outputs), Gates: len(c.Gates), ByKind: map[gates.Kind]int{}}
	for _, g := range c.Gates {
		s.ByKind[g.Kind]++
		if gates.Get(g.Kind).Class == gates.DynamicPolarity {
			s.DPGates++
		}
	}
	return s
}

// String renders the stats compactly, kinds sorted by name.
func (s Stats) String() string {
	kinds := make([]gates.Kind, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s:%d", k, s.ByKind[k]))
	}
	return fmt.Sprintf("PI=%d PO=%d gates=%d (DP=%d) [%s]",
		s.Inputs, s.Outputs, s.Gates, s.DPGates, strings.Join(parts, " "))
}
