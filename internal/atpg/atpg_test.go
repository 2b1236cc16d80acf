package atpg

import (
	"fmt"
	"strings"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
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

const mixedCircuit = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
n1 = NAND(a, b)
n2 = NOR(c, d)
n3 = XOR(n1, n2)
n4 = MAJ(n1, n2, c)
y  = NAND(n3, n4)
z  = NOT(n4)
`

func TestGenerateStuckAtAllDetected(t *testing.T) {
	// ATPG soundness + completeness on an irredundant circuit: every
	// generated test must actually detect its fault (verified by
	// independent fault simulation).
	c := parse(t, mixedCircuit)
	faults := core.Universe(c, core.ClassicalOnly())
	sim := faultsim.New(c)
	generated := 0
	for _, f := range faults {
		pat, ok := GenerateStuckAt(c, f, Options{})
		if !ok {
			// Cross-check: exhaustive simulation must also fail to
			// detect it (true redundancy, not ATPG weakness).
			ds := sim.RunStuckAt([]core.Fault{f}, faultsim.ExhaustivePatterns(c))
			if ds[0].Detected() {
				t.Errorf("fault %v: ATPG gave up but the fault is testable", f)
			}
			continue
		}
		generated++
		ds := sim.RunStuckAt([]core.Fault{f}, []faultsim.Pattern{pat})
		if !ds[0].Detected() {
			t.Errorf("fault %v: generated pattern %v does not detect it", f, pat)
		}
	}
	if generated == 0 {
		t.Fatal("no tests generated")
	}
}

func TestJustify(t *testing.T) {
	c := parse(t, mixedCircuit)
	pat, ok := Justify(c, map[string]logic.V{"n1": logic.L0, "n2": logic.L0}, Options{})
	if !ok {
		t.Fatal("justification failed")
	}
	vals := c.Eval(map[string]logic.V(pat))
	if vals["n1"] != logic.L0 || vals["n2"] != logic.L0 {
		t.Errorf("justified values: n1=%v n2=%v", vals["n1"], vals["n2"])
	}
	// Impossible goal: NAND output 0 requires both inputs 1; with a=0 it
	// must fail.
	if _, ok := Justify(c, map[string]logic.V{"a": logic.L0, "b": logic.L1, "n1": logic.L0}, Options{}); ok {
		t.Error("impossible justification succeeded")
	}
}

// TestJustifyDeterministic pins multi-goal justification to one answer:
// PODEM chases the first pending goal, so goals taken in map iteration
// order made some goal sets on c17's last three nets return different
// patterns from call to call.
func TestJustifyDeterministic(t *testing.T) {
	c := bench.C17()
	nets := c.Nets()
	last := nets[len(nets)-3:]
	for m := 0; m < 1<<len(last); m++ {
		goals := map[string]logic.V{}
		for i, n := range last {
			goals[n] = logic.FromBool(m>>uint(i)&1 == 1)
		}
		seen := map[string]bool{}
		for k := 0; k < 200; k++ {
			pat, ok := Justify(c, goals, Options{})
			key := fmt.Sprint(ok, " ")
			for _, pi := range c.Inputs {
				key += pat[pi].String()
			}
			seen[key] = true
		}
		if len(seen) != 1 {
			t.Errorf("goals %v: %d distinct results over 200 calls: %v", goals, len(seen), seen)
		}
	}
}

func TestGeneratePolarityXOR2(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	g := c.Gates[0].Name
	// Pull-up faults must come back as IDDQ tests, pull-down stuck-at-n
	// as voltage tests (Table III split).
	for _, tr := range []string{"t1", "t2"} {
		for _, k := range []core.FaultKind{core.FaultStuckAtN, core.FaultStuckAtP} {
			pt, ok := GeneratePolarity(c, core.Fault{Kind: k, Gate: g, Transistor: tr}, Options{})
			if !ok {
				t.Fatalf("%s/%v: no test", tr, k)
			}
			if pt.Method != faultsim.ByIDDQ {
				t.Errorf("%s/%v: method %v, want iddq", tr, k, pt.Method)
			}
		}
	}
	for _, tr := range []string{"t3", "t4"} {
		pt, ok := GeneratePolarity(c, core.Fault{Kind: core.FaultStuckAtN, Gate: g, Transistor: tr}, Options{})
		if !ok {
			t.Fatalf("%s: no test", tr)
		}
		if pt.Method != faultsim.ByOutput {
			t.Errorf("%s: method %v, want output", tr, pt.Method)
		}
		// The voltage test must really detect it.
		ds, err := faultsim.New(c).RunTransistor(
			[]core.Fault{{Kind: core.FaultStuckAtN, Gate: g, Transistor: tr}},
			[]faultsim.Pattern{patternOf(c, pt.Pattern)}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !ds[0].Detected() {
			t.Errorf("%s: generated voltage test does not detect", tr)
		}
	}
}

func TestGeneratePolarityDeepCircuit(t *testing.T) {
	// The fault sits deep in the circuit: activation requires
	// justification through NAND/NOR logic and propagation through XOR.
	c := parse(t, mixedCircuit)
	var xorGate string
	for _, g := range c.Gates {
		if g.Kind == gates.XOR2 {
			xorGate = g.Name
		}
	}
	for _, tr := range []string{"t3", "t4"} {
		f := core.Fault{Kind: core.FaultStuckAtN, Gate: xorGate, Transistor: tr}
		pt, ok := GeneratePolarity(c, f, Options{})
		if !ok {
			t.Fatalf("%s: no test generated", tr)
		}
		if pt.Method == faultsim.ByOutput {
			ds, err := faultsim.New(c).RunTransistor([]core.Fault{f}, []faultsim.Pattern{patternOf(c, pt.Pattern)}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !ds[0].Detected() {
				t.Errorf("%s: test does not detect", tr)
			}
		}
	}
}

func TestGenerateTwoPatternNAND(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	g := c.Gates[0].Name
	sim := faultsim.New(c)
	for _, tr := range []string{"t1", "t2", "t3", "t4"} {
		f := core.Fault{Kind: core.FaultChannelBreak, Gate: g, Transistor: tr}
		tp, ok := GenerateTwoPattern(c, f, Options{})
		if !ok {
			t.Fatalf("%s: no two-pattern test", tr)
		}
		ds, err := sim.RunTwoPattern([]core.Fault{f}, [][2]faultsim.Pattern{{patternOf(c, tp.Init), patternOf(c, tp.Test)}})
		if err != nil {
			t.Fatal(err)
		}
		if !ds[0].Detected() {
			t.Errorf("%s: generated two-pattern test (%v -> %v) does not detect", tr, tp.Init, tp.Test)
		}
	}
}

func TestChannelBreakPlanXOR2(t *testing.T) {
	// The paper's procedure: for every transistor of the DP XOR2 a plan
	// must exist, and it must separate healthy from broken devices.
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	g := c.Gates[0].Name
	for _, tr := range []string{"t1", "t2", "t3", "t4"} {
		f := core.Fault{Kind: core.FaultChannelBreak, Gate: g, Transistor: tr}
		plan, ok := GenerateChannelBreakDP(c, f, Options{})
		if !ok {
			t.Fatalf("%s: no channel-break plan", tr)
		}
		healthy, broken, err := VerifyChannelBreakPlan(c, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !healthy {
			t.Errorf("%s: healthy device shows no signature (plan %+v)", tr, plan)
		}
		if broken {
			t.Errorf("%s: broken device still shows the signature — verdict cannot separate", tr)
		}
	}
}

func TestChannelBreakPlanAllDPGates(t *testing.T) {
	// Extend the procedure across XOR3 and MAJ gates in a small circuit.
	c := parse(t, `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(s)
OUTPUT(q)
s = XOR(a, b, c)
q = MAJ(a, b, c)
`)
	for _, g := range c.Gates {
		spec := gates.Get(g.Kind)
		for _, tr := range spec.Transistors {
			f := core.Fault{Kind: core.FaultChannelBreak, Gate: g.Name, Transistor: tr.Name}
			plan, ok := GenerateChannelBreakDP(c, f, Options{})
			if !ok {
				t.Errorf("%s/%s: no plan", g.Name, tr.Name)
				continue
			}
			healthy, broken, err := VerifyChannelBreakPlan(c, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !healthy || broken {
				t.Errorf("%s/%s: verdict fails (healthy=%v broken=%v)", g.Name, tr.Name, healthy, broken)
			}
		}
	}
}

func TestGenerateDPPlanRejectsSPGate(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	f := core.Fault{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: "t1"}
	if _, ok := GenerateChannelBreakDP(c, f, Options{}); ok {
		t.Error("DP procedure accepted an SP gate")
	}
}

func TestCampaignMixedCircuit(t *testing.T) {
	c := parse(t, mixedCircuit)
	faults := core.Universe(c, core.UniverseOptions{
		LineStuckAt: true, ChannelBreak: true, Polarity: true,
	})
	res := Generate(c, faults, Options{})
	if res.Coverage() < 95 {
		t.Errorf("campaign coverage %.1f%%, untestable: %v", res.Coverage(), res.Untestable)
	}
	if res.StuckAtCovered == 0 || res.PolarityCovered == 0 {
		t.Errorf("campaign classes empty: %+v", res)
	}
	if res.CBDPTargeted == 0 || res.CBDPCovered != res.CBDPTargeted {
		t.Errorf("DP channel-break coverage: %d/%d", res.CBDPCovered, res.CBDPTargeted)
	}
	if res.Set.TotalVectors() == 0 {
		t.Error("empty test set")
	}
}

func TestCompactPatterns(t *testing.T) {
	c := parse(t, mixedCircuit)
	faults := core.Universe(c, core.ClassicalOnly())
	// Generate with duplicates to give compaction something to remove.
	var pats []faultsim.Pattern
	for _, f := range faults {
		if pat, ok := GenerateStuckAt(c, f, Options{}); ok {
			pats = append(pats, pat, pat)
		}
	}
	before := faultsim.Summarise(faultsim.New(c).RunStuckAt(faults, pats)).Detected
	compacted := CompactPatterns(c, faults, pats)
	after := faultsim.Summarise(faultsim.New(c).RunStuckAt(faults, compacted)).Detected
	if after != before {
		t.Errorf("compaction lost coverage: %d -> %d", before, after)
	}
	if len(compacted) >= len(pats) {
		t.Errorf("compaction removed nothing: %d -> %d", len(pats), len(compacted))
	}
}

func TestGenerateStuckAtRejectsNonLine(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n")
	f := core.Fault{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: "t1"}
	if _, ok := GenerateStuckAt(c, f, Options{}); ok {
		t.Error("non-line fault accepted")
	}
}
