package logic

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestParseBenchISCASWide is the golden import test for an ISCAS-85
// style netlist with AND/OR and fanin-9 gates: the fixture must parse,
// its decomposed native-cell form must match the checked-in golden,
// and its function must match an independent boolean reference.
func TestParseBenchISCASWide(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "iscas_wide.bench"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseBench("iscas_wide", strings.NewReader(string(src)))
	if err != nil {
		t.Fatalf("ParseBench rejected the ISCAS-style fixture: %v", err)
	}
	if got, want := len(c.Inputs), 9; got != want {
		t.Fatalf("inputs = %d, want %d", got, want)
	}
	if got, want := len(c.Outputs), 2; got != want {
		t.Fatalf("outputs = %d, want %d", got, want)
	}

	var w strings.Builder
	if err := WriteBench(&w, c); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "iscas_wide.bench.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(w.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != string(golden) {
		t.Errorf("decomposed netlist drifted from golden (run with -update to regenerate):\n%s", w.String())
	}

	// Independent reference for the fixture's two outputs.
	ref := func(g []bool) (g26, g27 bool) {
		and := func(xs ...bool) bool {
			for _, x := range xs {
				if !x {
					return false
				}
			}
			return true
		}
		or := func(xs ...bool) bool {
			for _, x := range xs {
				if x {
					return true
				}
			}
			return false
		}
		xor := func(xs ...bool) bool {
			p := false
			for _, x := range xs {
				p = p != x
			}
			return p
		}
		g20 := !g[1]
		g21 := and(g[1], g[2], g[3], g[4], g[5], g[6], g[7], g[8], g[9])
		g22 := or(g[1], g[2], g[3], g[4], g[5], g[6], g[7], g[8], g[9])
		g23 := !and(g20, g21, g22, g[5], g[6])
		g24 := !or(g[2], g[3], g22, g[7])
		g25 := xor(g[1], g21, g24, g[8], g[9])
		return !(g23 != g25), and(g23, g24)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g := make([]bool, 10)
		assign := map[string]V{}
		for i := 1; i <= 9; i++ {
			g[i] = rng.Intn(2) == 1
			assign[fmt.Sprintf("G%d", i)] = FromBool(g[i])
		}
		g26, g27 := ref(g)
		out := c.EvalOutputs(assign)
		if out[0] != FromBool(g26) || out[1] != FromBool(g27) {
			t.Fatalf("trial %d: outputs %v,%v want %v,%v (inputs %v)", trial, out[0], out[1], g26, g27, g[1:])
		}
	}
}

// TestWideGateDecompositionEquivalence is the property test: for every
// decomposed function and arity 2..9, the parsed native-cell tree is
// truth-table-equivalent to the wide gate's reference semantics on
// random binary vectors.
func TestWideGateDecompositionEquivalence(t *testing.T) {
	reduce := map[string]func(xs []bool) bool{
		"AND": func(xs []bool) bool {
			for _, x := range xs {
				if !x {
					return false
				}
			}
			return true
		},
		"OR": func(xs []bool) bool {
			for _, x := range xs {
				if x {
					return true
				}
			}
			return false
		},
		"XOR": func(xs []bool) bool {
			p := false
			for _, x := range xs {
				p = p != x
			}
			return p
		},
	}
	reduce["NAND"] = func(xs []bool) bool { return !reduce["AND"](xs) }
	reduce["NOR"] = func(xs []bool) bool { return !reduce["OR"](xs) }
	reduce["XNOR"] = func(xs []bool) bool { return !reduce["XOR"](xs) }

	rng := rand.New(rand.NewSource(99))
	for _, fn := range []string{"AND", "OR", "NAND", "NOR", "XOR", "XNOR"} {
		for arity := 2; arity <= 9; arity++ {
			var b strings.Builder
			args := make([]string, arity)
			for i := range args {
				args[i] = fmt.Sprintf("x%d", i)
				fmt.Fprintf(&b, "INPUT(x%d)\n", i)
			}
			fmt.Fprintf(&b, "OUTPUT(y)\ny = %s(%s)\n", fn, strings.Join(args, ", "))
			c, err := ParseBench("prop", strings.NewReader(b.String()))
			if err != nil {
				t.Fatalf("%s/%d: %v", fn, arity, err)
			}
			trials := 1 << arity
			if trials > 128 {
				trials = 128
			}
			for trial := 0; trial < trials; trial++ {
				xs := make([]bool, arity)
				assign := map[string]V{}
				for i := range xs {
					xs[i] = rng.Intn(2) == 1
					assign[args[i]] = FromBool(xs[i])
				}
				want := reduce[fn](xs)
				if got := c.EvalOutputs(assign)[0]; got != FromBool(want) {
					t.Fatalf("%s/%d inputs %v: got %v want %v", fn, arity, xs, got, want)
				}
			}
		}
	}
}

// TestParseBenchNativeArityPreserved pins the round-trip contract: the
// kinds WriteBench can express natively parse 1:1, no decomposition.
func TestParseBenchNativeArityPreserved(t *testing.T) {
	src := strings.Join([]string{
		"INPUT(a)", "INPUT(b)", "INPUT(c)", "OUTPUT(y)",
		"n1 = NAND(a, b, c)",
		"n2 = NOR(a, b)",
		"n3 = XOR(n1, n2, c)",
		"n4 = MAJ(a, n3, c)",
		"y = NOT(n4)",
	}, "\n") + "\n"
	c, err := ParseBench("native", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 5 {
		t.Fatalf("native kinds must not decompose: got %d gates, want 5", len(c.Gates))
	}
	var w strings.Builder
	if err := WriteBench(&w, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("native", strings.NewReader(w.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if c.Gates[i].Kind != c2.Gates[i].Kind || len(c.Gates[i].Fanin) != len(c2.Gates[i].Fanin) {
			t.Fatalf("gate %d changed across round trip: %v/%d vs %v/%d",
				i, c.Gates[i].Kind, len(c.Gates[i].Fanin), c2.Gates[i].Kind, len(c2.Gates[i].Fanin))
		}
	}
}

// TestParseBenchHelperNetCollision checks that decomposition helper
// nets never collide with nets the source already mentions.
func TestParseBenchHelperNetCollision(t *testing.T) {
	// y_d0 / y_d1 are exactly the names the emitter would pick first.
	src := strings.Join([]string{
		"INPUT(a)", "INPUT(b)", "INPUT(c)", "INPUT(d)", "INPUT(e)",
		"OUTPUT(y)",
		"y_d0 = NOT(a)",
		"y_d1 = NOT(b)",
		"y = AND(y_d0, y_d1, c, d, e)",
	}, "\n") + "\n"
	c, err := ParseBench("collide", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	assign := map[string]V{"a": L0, "b": L0, "c": L1, "d": L1, "e": L1}
	if got := c.EvalOutputs(assign)[0]; got != L1 {
		t.Fatalf("AND(!0,!0,1,1,1) = %v, want 1", got)
	}
}

// TestParseBenchRejectsCommaNets pins the FuzzBenchRoundTrip crashers:
// a declared net name with a comma parsed, but WriteBench's output read
// the comma back as an argument separator and failed to re-parse. Such
// names are rejected where they are declared, with the line number.
func TestParseBenchRejectsCommaNets(t *testing.T) {
	for _, tc := range []struct{ src, line string }{
		{"INPUT(a) \n,000000000=OR(a,a)", "line 2"},
		{"INPUT(a)\nOUTPUT(y)\na,_d0 = NOR(a, a)\ny = NOT(a)\n", "line 3"},
		{"INPUT(a,b)\nOUTPUT(y)\ny = NOT(a)\n", "line 1"},
		{"INPUT(a)\nOUTPUT(y,z)\ny = NOT(a)\n", "line 2"},
	} {
		_, err := ParseBench("comma", strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), "','") {
			t.Errorf("%q: err = %v, want a %s rejection of the comma", tc.src, err, tc.line)
		}
	}
}

// TestParseBenchLongLine is the regression test for the bufio.Scanner
// 64KB default token limit: a single machine-generated gate line far
// past 64KB must parse.
func TestParseBenchLongLine(t *testing.T) {
	const n = 9000 // ~9000 args x ~8 bytes each: a ~72KB line
	var b strings.Builder
	args := make([]string, n)
	for i := 0; i < n; i++ {
		args[i] = fmt.Sprintf("in%04d", i)
		fmt.Fprintf(&b, "INPUT(in%04d)\n", i)
	}
	b.WriteString("OUTPUT(y)\n")
	fmt.Fprintf(&b, "y = XOR(%s)\n", strings.Join(args, ", "))
	line := len("y = XOR()") + n*8
	if line <= 64*1024 {
		t.Fatalf("test line too short to exercise the limit: %d bytes", line)
	}
	c, err := ParseBench("long", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("long line rejected: %v", err)
	}
	// Parity of all-ones over n inputs.
	assign := map[string]V{}
	for _, a := range args {
		assign[a] = L1
	}
	if got := c.EvalOutputs(assign)[0]; got != FromBool(n%2 == 1) {
		t.Fatalf("parity(%d ones) = %v", n, got)
	}
}
