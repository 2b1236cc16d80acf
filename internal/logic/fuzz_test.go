package logic

import (
	"strings"
	"testing"
)

// FuzzBenchRoundTrip asserts that every .bench netlist the parser
// accepts survives write -> parse -> write unchanged (no panics, no
// parse regressions, stable text fixpoint, identical structure).
// Seed corpus: testdata/fuzz/FuzzBenchRoundTrip.
func FuzzBenchRoundTrip(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add("# c17-ish\nINPUT(i1)\nINPUT(i2)\nINPUT(i3)\nOUTPUT(o)\nn1 = NAND(i1, i2)\no = NAND(n1, i3)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(s)\nOUTPUT(co)\ns = XOR(a, b, c)\nco = MAJ(a, b, c)\n")
	f.Add("INPUT(x0)\nINPUT(x1)\nOUTPUT(p)\np = XOR(x0, x1)  # parity\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nm = BUFF(a)\ny = NOR(m, a)\nz = NOT(m)\n")
	// ISCAS-85 dialect: AND/OR and wide fanin decompose into native CP
	// cells at parse time, so the written form must still round-trip.
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = OR(a, b, c)\n")
	f.Add("INPUT(g1)\nINPUT(g2)\nINPUT(g3)\nINPUT(g4)\nINPUT(g5)\nINPUT(g6)\nINPUT(g7)\nINPUT(g8)\nINPUT(g9)\n" +
		"OUTPUT(y)\nOUTPUT(z)\ny = AND(g1, g2, g3, g4, g5, g6, g7, g8, g9)\nz = NOR(g1, g2, g3, g4, g5)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(p)\nOUTPUT(q)\np = XNOR(a, b, c, d)\nq = NAND(a, b, c, d)\n")
	// Helper-net collision: the source already uses the y_d0 name the
	// decomposer would otherwise pick first.
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny_d0 = NAND(a, b)\ny = AND(y_d0, c, d)\n")
	// Comma in a declared net name: it used to parse, then WriteBench's
	// "x = NOT(x_d0)" read the comma back as a separator.
	f.Add("INPUT(a) \n,000000000=OR(a,a)")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBench("fuzz", strings.NewReader(src))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		var w1 strings.Builder
		if err := WriteBench(&w1, c); err != nil {
			t.Fatalf("write: %v", err)
		}
		c2, err := ParseBench("fuzz", strings.NewReader(w1.String()))
		if err != nil {
			t.Fatalf("round-trip parse: %v\nwritten:\n%s", err, w1.String())
		}
		var w2 strings.Builder
		if err := WriteBench(&w2, c2); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if w1.String() != w2.String() {
			t.Fatalf("unstable round trip:\nfirst:\n%s\nsecond:\n%s", w1.String(), w2.String())
		}
		if len(c2.Inputs) != len(c.Inputs) || len(c2.Outputs) != len(c.Outputs) || len(c2.Gates) != len(c.Gates) {
			t.Fatalf("structure drift: PI %d->%d PO %d->%d gates %d->%d",
				len(c.Inputs), len(c2.Inputs), len(c.Outputs), len(c2.Outputs), len(c.Gates), len(c2.Gates))
		}
		for i := range c.Gates {
			g1, g2 := &c.Gates[i], &c2.Gates[i]
			if g1.Kind != g2.Kind || g1.Output != g2.Output || len(g1.Fanin) != len(g2.Fanin) {
				t.Fatalf("gate %d drift: %v(%v)->%v vs %v(%v)->%v",
					i, g1.Kind, g1.Fanin, g1.Output, g2.Kind, g2.Fanin, g2.Output)
			}
			for k := range g1.Fanin {
				if g1.Fanin[k] != g2.Fanin[k] {
					t.Fatalf("gate %d pin %d drift: %q vs %q", i, k, g1.Fanin[k], g2.Fanin[k])
				}
			}
		}
	})
}
