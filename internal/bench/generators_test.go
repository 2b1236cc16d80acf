package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cpsinw/internal/logic"
)

func assignBits(assign map[string]logic.V, prefix string, n int, v uint64) {
	for i := 0; i < n; i++ {
		assign[fmt.Sprintf("%s%d", prefix, i)] = logic.FromBool(v>>uint(i)&1 == 1)
	}
}

func readBits(vals map[string]logic.V, prefix string, n int) uint64 {
	var out uint64
	for i := 0; i < n; i++ {
		if vals[fmt.Sprintf("%s%d", prefix, i)] == logic.L1 {
			out |= 1 << uint(i)
		}
	}
	return out
}

func TestHalfAdderCP(t *testing.T) {
	c := HalfAdderCP()
	for v := 0; v < 4; v++ {
		a, b := v&1 == 1, v&2 == 2
		out := c.EvalOutputs(map[string]logic.V{"a": logic.FromBool(a), "b": logic.FromBool(b)})
		if out[0] != logic.FromBool(a != b) || out[1] != logic.FromBool(a && b) {
			t.Errorf("HA(%v,%v) = %v,%v", a, b, out[0], out[1])
		}
	}
}

// TestMultNExhaustive proves both hierarchical multiplier topologies
// exhaustively at small widths.
func TestMultNExhaustive(t *testing.T) {
	for _, build := range []func(int) *logic.Circuit{MultN, MultRC} {
		for _, n := range []int{2, 3, 4} {
			c := build(n)
			max := uint64(1) << uint(n)
			for a := uint64(0); a < max; a++ {
				for b := uint64(0); b < max; b++ {
					assign := map[string]logic.V{}
					assignBits(assign, "a", n, a)
					assignBits(assign, "b", n, b)
					vals := c.Eval(assign)
					if got := readBits(vals, "m", 2*n); got != a*b {
						t.Fatalf("%s: %d*%d = %d, want %d", c.Name, a, b, got, a*b)
					}
				}
			}
		}
	}
}

// TestMultNRandomWide spot-checks a larger multiplier against native
// integer arithmetic.
func TestMultNRandomWide(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(3))
	for _, c := range []*logic.Circuit{MultN(n), MultRC(n)} {
		for trial := 0; trial < 50; trial++ {
			a, b := uint64(rng.Intn(1<<n)), uint64(rng.Intn(1<<n))
			assign := map[string]logic.V{}
			assignBits(assign, "a", n, a)
			assignBits(assign, "b", n, b)
			if got := readBits(c.Eval(assign), "m", 2*n); got != a*b {
				t.Fatalf("%s: %d*%d = %d, want %d", c.Name, a, b, got, a*b)
			}
		}
	}
}

func TestDecoderNOneHot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		c := DecoderN(n)
		if got, want := len(c.Outputs), 1<<n; got != want {
			t.Fatalf("decoder%d: %d outputs, want %d", n, got, want)
		}
		for v := uint64(0); v < 1<<uint(n); v++ {
			assign := map[string]logic.V{}
			assignBits(assign, "s", n, v)
			vals := c.Eval(assign)
			for k := uint64(0); k < 1<<uint(n); k++ {
				want := logic.FromBool(k == v)
				if got := vals[fmt.Sprintf("d%d", k)]; got != want {
					t.Fatalf("decoder%d(s=%d): d%d = %v, want %v", n, v, k, got, want)
				}
			}
		}
	}
}

// TestCrossbarReadout checks the cross-cell function against its
// definition: with row i and column j addressed, cell (i,j) is the AND
// of the two one-hot selects when i+j is even and their NOR when odd,
// so row output q[i] ORs a guaranteed-high cell exactly when (i+j) is
// even, and the odd-parity NOR cells light every *unselected* row.
func TestCrossbarReadout(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		c := Crossbar(n)
		side := uint64(1) << uint(n)
		if got, want := len(c.Outputs), int(side); got != want {
			t.Fatalf("crossbar%d: %d outputs, want %d", n, got, want)
		}
		for i := uint64(0); i < side; i++ {
			for j := uint64(0); j < side; j++ {
				assign := map[string]logic.V{}
				assignBits(assign, "r", n, i)
				assignBits(assign, "c", n, j)
				vals := c.Eval(assign)
				for k := uint64(0); k < side; k++ {
					// Row k's OR sees: AND cells high only at (i,j) with
					// matching parity; NOR cells high wherever neither the
					// row nor the column select hits the cell.
					want := false
					for col := uint64(0); col < side; col++ {
						sel := k == i && col == j
						if (k+col)%2 == 0 {
							want = want || sel
						} else {
							want = want || (k != i && col != j)
						}
					}
					if got := vals[fmt.Sprintf("q%d", k)]; got != logic.FromBool(want) {
						t.Fatalf("crossbar%d(r=%d,c=%d): q%d = %v, want %v", n, i, j, k, got, logic.FromBool(want))
					}
				}
			}
		}
	}
}

func TestALUOps(t *testing.T) {
	const n = 4
	c := ALU(n)
	mask := uint64(1<<n - 1)
	ops := []struct {
		code uint64
		name string
		f    func(a, b uint64) uint64
	}{
		{0, "add", func(a, b uint64) uint64 { return (a + b) & mask }},
		{1, "sub", func(a, b uint64) uint64 { return (a - b) & mask }},
		{2, "and", func(a, b uint64) uint64 { return a & b }},
		{3, "or", func(a, b uint64) uint64 { return a | b }},
		{4, "xor", func(a, b uint64) uint64 { return a ^ b }},
	}
	for a := uint64(0); a < 1<<n; a++ {
		for b := uint64(0); b < 1<<n; b++ {
			for _, op := range ops {
				assign := map[string]logic.V{}
				assignBits(assign, "a", n, a)
				assignBits(assign, "b", n, b)
				assignBits(assign, "op", 3, op.code)
				vals := c.Eval(assign)
				if got := readBits(vals, "r", n); got != op.f(a, b) {
					t.Fatalf("alu%d %s(%d,%d) = %d, want %d", n, op.name, a, b, got, op.f(a, b))
				}
			}
		}
	}
	// cout on add: carry out of the unmasked sum.
	assign := map[string]logic.V{}
	assignBits(assign, "a", n, mask)
	assignBits(assign, "b", n, 1)
	assignBits(assign, "op", 3, 0)
	if got := c.Eval(assign)["cout"]; got != logic.L1 {
		t.Fatalf("alu%d add carry: cout = %v, want 1", n, got)
	}
}

func TestRandomLayeredShape(t *testing.T) {
	c := RandomLayered(11, 8, 6)
	st := c.Statistics()
	if st.Gates != 8*6 {
		t.Fatalf("layered random: %d gates, want %d", st.Gates, 48)
	}
	if len(c.Outputs) == 0 {
		t.Fatal("layered random: no outputs")
	}
}

// TestGeneratorsDeterministic is the determinism contract: the same
// parameters (and seed) must produce a byte-identical .bench netlist.
func TestGeneratorsDeterministic(t *testing.T) {
	builds := map[string]func() *logic.Circuit{
		"mult6":    func() *logic.Circuit { return MultN(6) },
		"rcmult5":  func() *logic.Circuit { return MultRC(5) },
		"alu8":     func() *logic.Circuit { return ALU(8) },
		"decoder5": func() *logic.Circuit { return DecoderN(5) },
		"randl":    func() *logic.Circuit { return RandomLayered(42, 16, 8) },
		"rand":     func() *logic.Circuit { return Random(42, 8, 100) },
	}
	for name, build := range builds {
		var w1, w2 strings.Builder
		if err := logic.WriteBench(&w1, build()); err != nil {
			t.Fatal(err)
		}
		if err := logic.WriteBench(&w2, build()); err != nil {
			t.Fatal(err)
		}
		if w1.String() != w2.String() {
			t.Errorf("%s: two builds differ byte-wise", name)
		}
		if w1.Len() == 0 {
			t.Errorf("%s: empty netlist", name)
		}
	}
}

// TestGeneratedBenchRoundTrip: every generated circuit survives
// WriteBench -> ParseBench with identical structure (the corpus is
// exchangeable as .bench text).
func TestGeneratedBenchRoundTrip(t *testing.T) {
	for _, c := range []*logic.Circuit{MultN(5), ALU(4), DecoderN(4), RandomLayered(7, 6, 4)} {
		var w strings.Builder
		if err := logic.WriteBench(&w, c); err != nil {
			t.Fatal(err)
		}
		c2, err := logic.ParseBench(c.Name, strings.NewReader(w.String()))
		if err != nil {
			t.Fatalf("%s: round-trip parse: %v", c.Name, err)
		}
		if len(c2.Gates) != len(c.Gates) || len(c2.Inputs) != len(c.Inputs) || len(c2.Outputs) != len(c.Outputs) {
			t.Fatalf("%s: structure drift PI %d->%d PO %d->%d gates %d->%d", c.Name,
				len(c.Inputs), len(c2.Inputs), len(c.Outputs), len(c2.Outputs), len(c.Gates), len(c2.Gates))
		}
	}
}

func TestRegistryGet(t *testing.T) {
	// Fixed names still resolve (and shadow the mult family).
	c, err := Get("mult3")
	if err != nil {
		t.Fatal(err)
	}
	if got := Suite()["mult3"].Statistics().Gates; c.Statistics().Gates != got {
		t.Errorf("mult3 should resolve to the fixed Suite circuit")
	}
	// Parameterized families.
	for name, wantGates := range map[string]int{
		"mult5":        0, // just must build
		"rcmult4":      0,
		"alu6":         0,
		"decoder4":     0,
		"rca16":        32, // XOR3 + MAJ per bit
		"parity32":     0,
		"rand9x50":     50,
		"randl3_w8xd4": 32,
	} {
		c, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if c.Name != name && !strings.HasPrefix(c.Name, "randl") && !strings.HasPrefix(c.Name, "rand") {
			t.Errorf("Get(%q) resolved circuit named %q", name, c.Name)
		}
		if wantGates > 0 && c.Statistics().Gates != wantGates {
			t.Errorf("Get(%q): %d gates, want %d", name, c.Statistics().Gates, wantGates)
		}
	}
	// Errors: unknown names and oversize parameters.
	if _, err := Get("nosuch"); err == nil || !strings.Contains(err.Error(), "families") {
		t.Errorf("Get(nosuch) = %v, want family-listing error", err)
	}
	if _, err := Get("decoder24"); err == nil {
		t.Error("decoder24 should be rejected (size cap)")
	}
	if _, err := Get("mult9999"); err == nil {
		t.Error("mult9999 should be rejected (size cap)")
	}
}

// TestGetBuildsOneCircuit: Get builds only the circuit it names. An
// ISCAS lookup builds nothing (the corpus is parsed once), and every
// fixed name resolves to the circuit Suite holds under it, byte for
// byte in .bench form.
func TestGetBuildsOneCircuit(t *testing.T) {
	if _, err := Get("c432"); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = Get("c432") }); allocs != 0 {
		t.Errorf("Get(c432) made %v allocations, want 0", allocs)
	}
	writeBench := func(c *logic.Circuit) string {
		var b strings.Builder
		if err := logic.WriteBench(&b, c); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	s := Suite()
	names := Names()
	if len(names) != len(s) {
		t.Fatalf("Names lists %d circuits, Suite holds %d", len(names), len(s))
	}
	for _, name := range names {
		c, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if want, ok := s[name]; !ok || writeBench(c) != writeBench(want) {
			t.Errorf("Get(%q) differs from Suite()[%q]", name, name)
		}
	}
}

// TestCorpusScales pins the approximate scaling-sweep sizes so the
// BENCH_faultsim.json curve's labels stay honest.
func TestCorpusScales(t *testing.T) {
	for _, tc := range []struct {
		name     string
		min, max int
	}{
		{"mult5", 80, 150},
		{"mult16", 800, 1500},
		{"mult50", 8000, 15000},
	} {
		c, err := Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if g := c.Statistics().Gates; g < tc.min || g > tc.max {
			t.Errorf("%s: %d gates, want %d..%d", tc.name, g, tc.min, tc.max)
		}
	}
}
