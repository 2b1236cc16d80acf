package faultsim

import (
	"strings"
	"testing"

	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

func TestBridgeResolve(t *testing.T) {
	cases := []struct {
		k      core.BridgeKind
		a, b   logic.V
		wa, wb logic.V
	}{
		{core.BridgeWiredAND, logic.L1, logic.L0, logic.L0, logic.L0},
		{core.BridgeWiredAND, logic.L1, logic.L1, logic.L1, logic.L1},
		{core.BridgeWiredAND, logic.LX, logic.L1, logic.LX, logic.LX},
		{core.BridgeWiredAND, logic.LX, logic.L0, logic.L0, logic.L0},
		{core.BridgeWiredOR, logic.L1, logic.L0, logic.L1, logic.L1},
		{core.BridgeWiredOR, logic.L0, logic.L0, logic.L0, logic.L0},
		{core.BridgeADominates, logic.L1, logic.L0, logic.L1, logic.L1},
		{core.BridgeBDominates, logic.L1, logic.L0, logic.L0, logic.L0},
	}
	for _, c := range cases {
		ga, gb := c.k.Resolve(c.a, c.b)
		if ga != c.wa || gb != c.wb {
			t.Errorf("%v.Resolve(%v,%v) = %v,%v want %v,%v", c.k, c.a, c.b, ga, gb, c.wa, c.wb)
		}
	}
}

func TestBridgeKindString(t *testing.T) {
	for k, want := range map[core.BridgeKind]string{
		core.BridgeWiredAND: "wired-AND", core.BridgeWiredOR: "wired-OR",
		core.BridgeADominates: "A-dom", core.BridgeBDominates: "B-dom",
	} {
		if k.String() != want {
			t.Errorf("%d: %q", int(k), k.String())
		}
	}
}

func TestNeighborBridges(t *testing.T) {
	c := parse(t, c17ish)
	bs := core.NeighborBridges(c, 1)
	// 5 gates -> 4 adjacent pairs x 2 kinds.
	if len(bs) != 8 {
		t.Fatalf("bridges = %d, want 8", len(bs))
	}
	for _, b := range bs {
		if b.A == b.B {
			t.Errorf("self-bridge %v", b)
		}
		if !strings.Contains(b.String(), "bridge(") {
			t.Errorf("bad id %q", b.String())
		}
	}
}

func TestBridgeDetection(t *testing.T) {
	// Two independent inverter chains bridged together: wired-AND flips
	// the 1-carrying net whenever the other carries 0.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(x)
OUTPUT(y)
x = NOT(a)
y = NOT(b)
`
	c := parse(t, src)
	sim := New(c)
	bridges := []core.Bridge{
		{Kind: core.BridgeWiredAND, A: "x", B: "y"},
		{Kind: core.BridgeWiredOR, A: "x", B: "y"},
	}
	ds := sim.RunBridges(bridges, ExhaustivePatterns(c))
	for i, d := range ds {
		if !d.Detected() {
			t.Errorf("%v not detected by exhaustive patterns", bridges[i])
		}
	}
	cov := Summarise(ds)
	if cov.Percent() != 100 {
		t.Errorf("coverage %.1f%%", cov.Percent())
	}
	// A pattern where both nets agree cannot detect: check soundness of
	// the reported detecting pattern.
	for i, d := range ds {
		p := ExhaustivePatterns(c)[d.Pattern]
		good := c.Eval(map[string]logic.V(p))
		if good["x"] == good["y"] {
			t.Errorf("%v: reported pattern does not excite the bridge", bridges[i])
		}
	}
}

func TestBridgeOnC17(t *testing.T) {
	c := parse(t, c17ish)
	sim := New(c)
	bridges := core.NeighborBridges(c, 2)
	ds := sim.RunBridges(bridges, ExhaustivePatterns(c))
	cov := Summarise(ds)
	if cov.Detected == 0 {
		t.Fatal("no bridge detected on c17-like circuit")
	}
	// Every detection must be reproducible.
	patterns := ExhaustivePatterns(c)
	for i, d := range ds {
		if !d.Detected() {
			continue
		}
		p := patterns[d.Pattern]
		good := c.Eval(map[string]logic.V(p))
		faulty := evalBridged(c, p, bridges[i], nil)
		if !sim.outputsDiffer(good, faulty) {
			t.Errorf("%v: detection not reproducible", bridges[i])
		}
	}
}
