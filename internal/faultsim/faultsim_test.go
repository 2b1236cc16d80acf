package faultsim

import (
	"strings"
	"testing"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

func parse(t *testing.T, src string) *logic.Circuit {
	t.Helper()
	c, err := logic.ParseBench("t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const c17ish = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
n1 = NAND(a, b)
n2 = NAND(c, d)
n3 = NAND(n1, c)
y  = NAND(n3, n2)
z  = XOR(n1, n2)
`

func TestStuckAtExhaustiveFullCoverage(t *testing.T) {
	c := parse(t, c17ish)
	faults := core.Universe(c, core.ClassicalOnly())
	patterns := ExhaustivePatterns(c)
	ds := New(c).RunStuckAt(faults, patterns)
	cov := Summarise(ds)
	// This circuit has no redundant lines: exhaustive patterns must catch
	// every stuck-at fault.
	if cov.Detected != cov.Total {
		t.Errorf("coverage %.1f%%: undetected %v", cov.Percent(), cov.Undetected)
	}
	for i, d := range ds {
		if d.Method == ByOutput && (d.Pattern < 0 || d.Pattern >= len(patterns)) {
			t.Errorf("fault %v has bad pattern index %d", faults[i], d.Pattern)
		}
	}
}

func TestStuckAtDetectionIsReal(t *testing.T) {
	// Every reported detection must be reproducible by serial simulation
	// (ATPG-soundness style property).
	c := parse(t, c17ish)
	faults := core.Universe(c, core.ClassicalOnly())
	patterns := ExhaustivePatterns(c)
	sim := New(c)
	ds := sim.RunStuckAt(faults, patterns)
	for i, d := range ds {
		if !d.Detected() {
			continue
		}
		p := patterns[d.Pattern]
		good := c.Eval(map[string]logic.V(p))
		f := faults[i]
		force := logic.L0
		if f.Kind == core.FaultSA1 {
			force = logic.L1
		}
		var hooks logic.TernaryHooks
		if f.Pin >= 0 {
			hooks.Pin = func(gi, pin int, v logic.V) logic.V {
				if gi == f.GateIdx && pin == f.Pin {
					return force
				}
				return v
			}
		} else {
			hooks.Stem = func(net string, v logic.V) logic.V {
				if net == f.Net {
					return force
				}
				return v
			}
		}
		faulty := c.EvalHooked(map[string]logic.V(p), hooks)
		if !sim.outputsDiffer(good, faulty) {
			t.Errorf("fault %v: reported detection at pattern %d not reproducible", f, d.Pattern)
		}
	}
}

func TestStuckAtMoreThan64Patterns(t *testing.T) {
	// Exercise the multi-chunk path: repeat the exhaustive set 5 times
	// (80 patterns) and expect identical coverage.
	c := parse(t, c17ish)
	faults := core.Universe(c, core.ClassicalOnly())
	base := ExhaustivePatterns(c)
	var patterns []Pattern
	for i := 0; i < 5; i++ {
		patterns = append(patterns, base...)
	}
	cov := Summarise(New(c).RunStuckAt(faults, patterns))
	if cov.Detected != cov.Total {
		t.Errorf("multi-chunk coverage %.1f%%", cov.Percent())
	}
}

func TestPolarityFaultsNeedIDDQ(t *testing.T) {
	// Single XOR2: pull-up polarity faults are undetectable by voltage
	// but fully detectable with IDDQ — the paper's Table III conclusion.
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	sim := New(c)
	var pol []core.Fault
	for _, tr := range []string{"t1", "t2"} {
		pol = append(pol,
			core.Fault{Kind: core.FaultStuckAtN, Gate: c.Gates[0].Name, Transistor: tr},
			core.Fault{Kind: core.FaultStuckAtP, Gate: c.Gates[0].Name, Transistor: tr},
		)
	}
	patterns := ExhaustivePatterns(c)

	noIDDQ, err := sim.RunTransistor(pol, patterns, false)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(noIDDQ); cov.Detected != 0 {
		t.Errorf("pull-up polarity faults detected without IDDQ: %+v", cov)
	}
	withIDDQ, err := sim.RunTransistor(pol, patterns, true)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(withIDDQ); cov.Detected != cov.Total || cov.ByIDDQ != cov.Total {
		t.Errorf("IDDQ should catch all pull-up polarity faults: %+v", cov)
	}
}

func TestPullDownPolarityFaultsByOutput(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	sim := New(c)
	faults := []core.Fault{
		{Kind: core.FaultStuckAtN, Gate: c.Gates[0].Name, Transistor: "t3"},
		{Kind: core.FaultStuckAtN, Gate: c.Gates[0].Name, Transistor: "t4"},
	}
	ds, err := sim.RunTransistor(faults, ExhaustivePatterns(c), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d.Method != ByOutput {
			t.Errorf("%v: method %q, want output detection", faults[i], d.Method)
		}
	}
}

func TestChannelBreakMaskedInDPUndetectable(t *testing.T) {
	// Channel breaks inside the DP XOR2 are invisible to single-pattern
	// voltage testing AND to classical two-pattern testing — the paper's
	// motivation for the new test procedure.
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	sim := New(c)
	var cbs []core.Fault
	for _, tr := range []string{"t1", "t2", "t3", "t4"} {
		cbs = append(cbs, core.Fault{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: tr})
	}
	patterns := ExhaustivePatterns(c)
	single, err := sim.RunTransistor(cbs, patterns, true)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(single); cov.Detected != 0 {
		t.Errorf("DP channel breaks detected by single-pattern test: %+v", cov)
	}
	var pairs [][2]Pattern
	for _, p1 := range patterns {
		for _, p2 := range patterns {
			pairs = append(pairs, [2]Pattern{p1, p2})
		}
	}
	two, err := sim.RunTwoPattern(cbs, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(two); cov.Detected != 0 {
		t.Errorf("DP channel breaks detected by two-pattern test: %+v", cov)
	}
}

func TestNANDChannelBreakTwoPatternPaperVectors(t *testing.T) {
	// Paper section V-C: the NAND two-pattern set v1=(11->01),
	// v2=(11->10), v3=(00->11) detects all channel breaks of the
	// TIG-SiNWFET NAND.
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	sim := New(c)
	mk := func(a, b int) Pattern {
		return Pattern{"a": logic.FromBool(a == 1), "b": logic.FromBool(b == 1)}
	}
	pairs := [][2]Pattern{
		{mk(1, 1), mk(0, 1)},
		{mk(1, 1), mk(1, 0)},
		{mk(0, 0), mk(1, 1)},
	}
	var cbs []core.Fault
	for _, tr := range gates.Get(gates.NAND2).Transistors {
		cbs = append(cbs, core.Fault{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: tr.Name})
	}
	ds, err := sim.RunTwoPattern(cbs, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d.Method != ByTwoPattern {
			t.Errorf("NAND %s channel break not detected by the paper's two-pattern set", cbs[i].Transistor)
		}
	}
}

func TestSPBreakUndetectableWithoutSequence(t *testing.T) {
	// The same NAND breaks are invisible to single-pattern testing
	// (output floats -> X, never a definite flip).
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	sim := New(c)
	var cbs []core.Fault
	for _, tr := range gates.Get(gates.NAND2).Transistors {
		cbs = append(cbs, core.Fault{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: tr.Name})
	}
	ds, err := sim.RunTransistor(cbs, ExhaustivePatterns(c), false)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(ds); cov.Detected != 0 {
		t.Errorf("SP channel breaks should need two-pattern tests: %+v", cov)
	}
}

func TestCoverageSummary(t *testing.T) {
	ds := []Detection{
		{Method: ByOutput}, {Method: ByIDDQ}, {Method: ByTwoPattern}, {Method: ByNone},
	}
	cov := Summarise(ds)
	if cov.Total != 4 || cov.Detected != 3 || cov.ByOutput != 1 || cov.ByIDDQ != 1 || cov.ByTwoPat != 1 {
		t.Errorf("summary wrong: %+v", cov)
	}
	if p := cov.Percent(); p != 75 {
		t.Errorf("percent = %v", p)
	}
	if (Coverage{}).Percent() != 0 {
		t.Error("empty coverage percent should be 0")
	}
}

// TestSummariseAllocatesOnce pins the undetected list's allocation: one
// list at its final size, the undetected indices ascending, and none
// when every fault is detected.
func TestSummariseAllocatesOnce(t *testing.T) {
	ds := make([]Detection, 300)
	for i := range ds {
		ds[i] = Detection{Pattern: -1}
		if i%3 == 0 {
			ds[i].Method, ds[i].Pattern = ByOutput, 0
		}
	}
	var cov Coverage
	if n := testing.AllocsPerRun(10, func() { cov = Summarise(ds) }); n != 1 {
		t.Errorf("Summarise made %v allocations, want 1", n)
	}
	if len(cov.Undetected) != 200 || cap(cov.Undetected) != 200 || cov.Undetected[0] != 1 || cov.Undetected[199] != 299 {
		t.Errorf("undetected list: %d faults, capacity %d", len(cov.Undetected), cap(cov.Undetected))
	}
	all := []Detection{{Method: ByOutput}, {Method: ByTwoPattern}}
	if n := testing.AllocsPerRun(10, func() { cov = Summarise(all) }); n != 0 || cov.Undetected != nil {
		t.Errorf("all detected: %v allocations, undetected %v", n, cov.Undetected)
	}
}

func TestExhaustivePatterns(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	ps := ExhaustivePatterns(c)
	if len(ps) != 4 {
		t.Fatalf("patterns = %d", len(ps))
	}
	if ps[3]["a"] != logic.L1 || ps[3]["b"] != logic.L1 {
		t.Error("pattern encoding wrong")
	}
}

func TestRunTransistorSkipsAnalogKinds(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	faults := []core.Fault{{Kind: core.FaultGOSCG, Gate: c.Gates[0].Name, Transistor: "t1"}}
	ds, err := New(c).RunTransistor(faults, ExhaustivePatterns(c), true)
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].Detected() {
		t.Error("analog fault should be skipped, not detected")
	}
}
