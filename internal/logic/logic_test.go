package logic

import (
	"strings"
	"testing"
	"testing/quick"

	"cpsinw/internal/gates"
)

func TestValueBasics(t *testing.T) {
	if L0.String() != "0" || L1.String() != "1" || LX.String() != "X" {
		t.Error("value names wrong")
	}
	if L0.Not() != L1 || L1.Not() != L0 || LX.Not() != LX {
		t.Error("Not wrong")
	}
	if FromBool(true) != L1 || FromBool(false) != L0 {
		t.Error("FromBool wrong")
	}
	if b, ok := L1.Bool(); !ok || !b {
		t.Error("Bool(L1) wrong")
	}
	if _, ok := LX.Bool(); ok {
		t.Error("Bool(LX) should be undefined")
	}
	if SStrong <= SWeak || SWeak <= SCharge || SCharge <= SNone {
		t.Error("strength ordering broken")
	}
}

func TestTFaultString(t *testing.T) {
	names := map[TFault]string{
		TFaultNone: "fault-free", TFaultOpen: "stuck-open", TFaultStuckOn: "stuck-on",
		TFaultStuckAtN: "stuck-at-n-type", TFaultStuckAtP: "stuck-at-p-type",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d: %q != %q", int(f), f.String(), want)
		}
	}
}

// TestSwitchLevelMatchesTruthTables: the fault-free switch-level solver
// must agree with the Boolean function of every library gate on every
// binary input vector.
func TestSwitchLevelMatchesTruthTables(t *testing.T) {
	for _, k := range gates.Kinds() {
		spec := gates.Get(k)
		for v := 0; v < 1<<spec.NIn; v++ {
			in := make([]V, spec.NIn)
			bits := spec.InputVector(v)
			for i, b := range bits {
				in[i] = FromBool(b)
			}
			res := EvalSwitch(spec, in, nil, nil)
			want := FromBool(spec.Eval(bits))
			if res.Out != want {
				t.Errorf("%v vector %0*b: switch=%v want %v (strength %v)", k, spec.NIn, v, res.Out, want, res.OutStrength)
			}
			if res.Leak {
				t.Errorf("%v vector %0*b: fault-free gate reports a leak", k, spec.NIn, v)
			}
		}
	}
}

func TestSwitchLevelXInputsGiveX(t *testing.T) {
	spec := gates.Get(gates.NAND2)
	res := EvalSwitch(spec, []V{LX, L1}, nil, nil)
	if res.Out != LX {
		t.Errorf("NAND2(X,1) = %v, want X", res.Out)
	}
	// But a controlling 0 forces the output regardless of the X.
	res = EvalSwitch(spec, []V{L0, LX}, nil, nil)
	if res.Out != L1 {
		t.Errorf("NAND2(0,X) = %v, want 1", res.Out)
	}
}

func TestChannelBreakMaskedInXOR2(t *testing.T) {
	// Paper section V-C: a channel break in the DP XOR2 is masked by the
	// redundant pass transistors — the function does not change.
	spec := gates.Get(gates.XOR2)
	for _, tr := range spec.Transistors {
		for v := 0; v < 4; v++ {
			bits := spec.InputVector(v)
			in := []V{FromBool(bits[0]), FromBool(bits[1])}
			res := EvalSwitch(spec, in, map[string]TFault{tr.Name: TFaultOpen}, nil)
			want := FromBool(spec.Eval(bits))
			if res.Out != want {
				t.Errorf("XOR2 break %s vector %02b: out=%v, want %v (masking violated)", tr.Name, v, res.Out, want)
			}
		}
	}
}

func TestChannelBreakNotMaskedInNAND(t *testing.T) {
	// In SP gates a break behaves as a classical stuck-open: some vector
	// leaves the output floating (charge retention), detectable with
	// two-pattern tests.
	spec := gates.Get(gates.NAND2)
	res1 := EvalSwitch(spec, []V{L1, L1}, map[string]TFault{"t1": TFaultOpen}, nil)
	if res1.Out != L0 {
		t.Fatalf("init vector 11: out=%v, want 0", res1.Out)
	}
	// Second pattern 01: fault-free output is 1; with t1 broken the pull-up
	// is dead and the output retains the previous 0.
	res2 := EvalSwitch(spec, []V{L0, L1}, map[string]TFault{"t1": TFaultOpen}, res1.Nodes)
	if res2.Out != L0 || res2.OutStrength != SCharge {
		t.Errorf("test vector 01 after init 11: out=%v strength=%v, want retained 0 at charge strength", res2.Out, res2.OutStrength)
	}
	// Fault-free comparison.
	good := EvalSwitch(spec, []V{L0, L1}, nil, res1.Nodes)
	if good.Out != L1 {
		t.Errorf("fault-free 01: out=%v, want 1", good.Out)
	}
}

func TestStuckAtNTypeOnXOR2PullUp(t *testing.T) {
	// Stuck-at n-type on t1 (pull-up): at input 11 the faulty device
	// conducts n-type against the pull-down — leakage without a value
	// flip (Table III: pull-up polarity faults are IDDQ-detectable only).
	spec := gates.Get(gates.XOR2)
	res := EvalSwitch(spec, []V{L1, L1}, map[string]TFault{"t1": TFaultStuckAtN}, nil)
	if res.Out != L0 {
		t.Errorf("out=%v, want correct 0", res.Out)
	}
	if !res.Leak {
		t.Error("expected rail-to-rail leak")
	}
	// And no leak in the fault-free circuit at the same vector.
	if EvalSwitch(spec, []V{L1, L1}, nil, nil).Leak {
		t.Error("fault-free leak at 11")
	}
}

func TestStuckAtNTypeOnXOR2PullDownFlipsOutput(t *testing.T) {
	// Stuck-at n-type on t3 (pull-down): at input 10 the faulty n-path
	// fights the true pull-up and wins (electron branch stronger):
	// the output flips — Table III's "output voltage detectable" case.
	spec := gates.Get(gates.XOR2)
	good := EvalSwitch(spec, []V{L1, L0}, nil, nil)
	if good.Out != L1 {
		t.Fatalf("fault-free 10: out=%v, want 1", good.Out)
	}
	res := EvalSwitch(spec, []V{L1, L0}, map[string]TFault{"t3": TFaultStuckAtN}, nil)
	if res.Out != L0 {
		t.Errorf("faulty 10: out=%v, want flipped 0", res.Out)
	}
	if !res.Leak || !res.Contention {
		t.Errorf("expected leak+contention, got leak=%v contention=%v", res.Leak, res.Contention)
	}
}

func TestStuckOnLeaks(t *testing.T) {
	spec := gates.Get(gates.INV)
	// Stuck-on pull-down with input 0: output should stay 1 (or flip)
	// but a rail path must exist.
	res := EvalSwitch(spec, []V{L0}, map[string]TFault{"t3": TFaultStuckOn}, nil)
	if !res.Leak {
		t.Error("stuck-on pull-down at input 0 must leak")
	}
}

func TestSwitchBUFInternalNode(t *testing.T) {
	// BUF exercises the outer fixpoint: its second stage's CG is an
	// internal node.
	spec := gates.Get(gates.BUF)
	for _, v := range []V{L0, L1} {
		res := EvalSwitch(spec, []V{v}, nil, nil)
		if res.Out != v {
			t.Errorf("BUF(%v) = %v", v, res.Out)
		}
	}
}

func mustParse(t *testing.T, src string) *Circuit {
	t.Helper()
	c, err := ParseBench("test", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const fullAdderBench = `
# full adder with native CP cells
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
sum = XOR(a, b, cin)
cout = MAJ(a, b, cin)
`

func TestParseBenchFullAdder(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	if len(c.Inputs) != 3 || len(c.Outputs) != 2 || len(c.Gates) != 2 {
		t.Fatalf("structure: %+v", c.Statistics())
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for ci := 0; ci < 2; ci++ {
				out := c.EvalOutputs(map[string]V{
					"a": FromBool(a == 1), "b": FromBool(b == 1), "cin": FromBool(ci == 1),
				})
				sum := a ^ b ^ ci
				cout := 0
				if a+b+ci >= 2 {
					cout = 1
				}
				if out[0] != FromBool(sum == 1) || out[1] != FromBool(cout == 1) {
					t.Errorf("FA(%d,%d,%d) = %v,%v want %d,%d", a, b, ci, out[0], out[1], sum, cout)
				}
			}
		}
	}
}

func TestParseBenchErrors(t *testing.T) {
	bad := []string{
		"INPUT(a)\ny = FOO(a)\nOUTPUT(y)\n",
		"INPUT(a)\ny = NAND()\nOUTPUT(y)\n",
		"INPUT(a)\ny = MAJ(a, a, a, a)\nOUTPUT(y)\n",  // MAJ has no wide form
		"INPUT(a)\nOUTPUT(y)\n",                       // undriven output
		"INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)", // multiple drivers
		"INPUT(a)\ny = NOT(z)\nOUTPUT(y)",             // undriven fanin
		"INPUT(a)\nnonsense line\nOUTPUT(a)",
		"INPUT(a)\ny = MAJ(a, a)\nOUTPUT(y)",
	}
	for _, src := range bad {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad bench:\n%s", src)
		}
	}
}

func TestBenchCycleDetection(t *testing.T) {
	src := "INPUT(a)\nx = NAND(a, y)\ny = NOT(x)\nOUTPUT(y)\n"
	if _, err := ParseBench("cyc", strings.NewReader(src)); err == nil {
		t.Error("cycle accepted")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	var b strings.Builder
	if err := WriteBench(&b, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("rt", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, b.String())
	}
	// Behavioural equivalence over all input vectors.
	for v := 0; v < 8; v++ {
		assign := map[string]V{
			"a":   FromBool(v&1 == 1),
			"b":   FromBool(v&2 == 2),
			"cin": FromBool(v&4 == 4),
		}
		o1 := c.EvalOutputs(assign)
		o2 := c2.EvalOutputs(assign)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("round trip differs at vector %d output %d", v, i)
			}
		}
	}
}

func TestEvalTernaryXPropagation(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	out := c.EvalOutputs(map[string]V{"a": L1, "b": LX, "cin": L0})
	if out[0] != LX {
		t.Errorf("sum with X input = %v, want X", out[0])
	}
	// MAJ(1, X, 0) is X too.
	if out[1] != LX {
		t.Errorf("cout = %v, want X", out[1])
	}
	// But MAJ(1, X, 1) = 1 regardless of X.
	out = c.EvalOutputs(map[string]V{"a": L1, "b": LX, "cin": L1})
	if out[1] != L1 {
		t.Errorf("MAJ(1,X,1) = %v, want 1", out[1])
	}
}

func TestEvalPackedAgainstTernary(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	cc := c.Compile()
	// 8 exhaustive patterns packed in one word.
	in := make([]PackedVec, len(c.Inputs))
	lane := map[string]func(p int) V{
		"a":   func(p int) V { return FromBool(p&1 == 1) },
		"b":   func(p int) V { return FromBool(p&2 == 2) },
		"cin": func(p int) V { return FromBool(p&4 == 4) },
	}
	for i, pi := range c.Inputs {
		for p := 0; p < 8; p++ {
			in[i] = in[i].WithLane(p, lane[pi](p))
		}
	}
	vals := cc.EvalBlock(in, 1, make([]PackedVec, cc.NumNets()))
	for p := 0; p < 8; p++ {
		serial := c.EvalOutputs(map[string]V{
			"a": lane["a"](p), "b": lane["b"](p), "cin": lane["cin"](p),
		})
		for i, po := range c.Outputs {
			if got := vals[cc.NetID[po]].Get(p); got != serial[i] {
				t.Errorf("pattern %d output %s: packed=%v serial=%v", p, po, got, serial[i])
			}
		}
	}
}

func TestEvalPackedPropertyAllKinds(t *testing.T) {
	// EvalKindPacked must agree with the scalar Eval on random binary
	// words for every library gate, in every lane.
	f := func(a, b, c uint64, kidx uint8) bool {
		kinds := gates.Kinds()
		k := kinds[int(kidx)%len(kinds)]
		spec := gates.Get(k)
		words := []uint64{a, b, c}[:spec.NIn]
		ins := make([]PackedVec, spec.NIn)
		for i, word := range words {
			ins[i] = PackedVec{Val: word, Known: ^uint64(0)}
		}
		out := EvalKindPacked(k, CompileGateLUT(k), ins)
		for p := 0; p < 64; p++ {
			in := make([]bool, spec.NIn)
			for i := range words {
				in[i] = words[i]>>uint(p)&1 == 1
			}
			if (out.Val>>uint(p)&1 == 1) != spec.Eval(in) || out.Known>>uint(p)&1 != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStatistics(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	s := c.Statistics()
	if s.Gates != 2 || s.DPGates != 2 {
		t.Errorf("stats: %+v", s)
	}
	if !strings.Contains(s.String(), "MAJ3:1") {
		t.Errorf("stats string: %s", s)
	}
}

func TestLevelizedOrder(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
w = NOT(a)
x = NAND(w, b)
y = XOR(x, w)
`
	c := mustParse(t, src)
	pos := map[string]int{}
	for i, gi := range c.Levelized() {
		pos[c.Gates[gi].Output] = i
	}
	if !(pos["w"] < pos["x"] && pos["x"] < pos["y"]) {
		t.Errorf("levelization order wrong: %v", pos)
	}
}

func TestDriverAndFanouts(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	if d, ok := c.Driver("a"); !ok || d != -1 {
		t.Errorf("Driver(a) = %d, %v", d, ok)
	}
	if d, ok := c.Driver("sum"); !ok || c.Gates[d].Kind != gates.XOR3 {
		t.Errorf("Driver(sum) wrong")
	}
	if len(c.Fanouts("a")) != 2 {
		t.Errorf("Fanouts(a) = %v", c.Fanouts("a"))
	}
}
