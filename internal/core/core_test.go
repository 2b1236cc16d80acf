package core

import (
	"fmt"
	"strings"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

func xorCircuit(t *testing.T) *logic.Circuit {
	t.Helper()
	c, err := logic.NewCircuit("x", []string{"a", "b"}, []string{"y"}, []logic.GateInst{
		{Name: "g0", Kind: gates.XOR2, Fanin: []string{"a", "b"}, Output: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFaultKindStrings(t *testing.T) {
	if FaultStuckAtN.String() != "stuck-at-n-type" || FaultSA0.String() != "SA0" {
		t.Error("fault kind names wrong")
	}
	if !FaultSA1.IsLineFault() || FaultChannelBreak.IsLineFault() {
		t.Error("IsLineFault wrong")
	}
	if !FaultStuckAtP.IsPolarityFault() || FaultStuckOn.IsPolarityFault() {
		t.Error("IsPolarityFault wrong")
	}
	if !FaultGOSCG.IsTransistorFault() || FaultSA0.IsTransistorFault() {
		t.Error("IsTransistorFault wrong")
	}
}

func TestTFaultMapping(t *testing.T) {
	for kind, want := range map[FaultKind]logic.TFault{
		FaultChannelBreak: logic.TFaultOpen,
		FaultStuckOn:      logic.TFaultStuckOn,
		FaultStuckAtN:     logic.TFaultStuckAtN,
		FaultStuckAtP:     logic.TFaultStuckAtP,
	} {
		got, ok := kind.TFault()
		if !ok || got != want {
			t.Errorf("%v.TFault() = %v, %v", kind, got, ok)
		}
	}
	if _, ok := FaultGOSCG.TFault(); ok {
		t.Error("GOS should not have a switch-level model")
	}
	if _, ok := FaultSA0.TFault(); ok {
		t.Error("line fault should not have a transistor model")
	}
}

func TestUniverseCounts(t *testing.T) {
	c := xorCircuit(t)
	all := Universe(c, AllFaults())
	// Line: 2 PIs x 2 + 1 stem x 2 = 6 (no fanout branches here).
	// Transistor: 4 transistors x (CB + SOn + 2 polarity + 3 GOS + 2 PG-open) = 4*9 = 36.
	if len(all) != 6+36 {
		t.Fatalf("universe size = %d, want 42", len(all))
	}
	classical := Universe(c, ClassicalOnly())
	if len(classical) != 6 {
		t.Fatalf("classical universe = %d, want 6", len(classical))
	}
	// The classical model covers none of the CP-specific faults — the
	// paper's core observation.
	for _, f := range classical {
		if f.Kind.IsTransistorFault() {
			t.Errorf("classical universe contains %v", f)
		}
	}
}

// TestUniverseAllocatesOnce pins that Universe never grows its list:
// on every registered benchmark, a random circuit and a gateless one,
// under each single option and all of them, the list's capacity is
// universeBound, at least its length, and an empty universe is nil.
func TestUniverseAllocatesOnce(t *testing.T) {
	circuits := []*logic.Circuit{bench.Random(3, 5, 20)}
	for _, name := range bench.Names() {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	bare, err := logic.NewCircuit("bare", []string{"a"}, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, bare)
	opts := []UniverseOptions{
		{}, ClassicalOnly(), {ChannelBreak: true}, {StuckOn: true}, {Polarity: true},
		{GOS: true}, {PGOpen: true}, AllFaults(),
	}
	for _, c := range circuits {
		for _, opt := range opts {
			u := Universe(c, opt)
			if bound := universeBound(c, opt); cap(u) != bound || len(u) > bound {
				t.Errorf("%s %+v: %d faults, capacity %d, bound %d", c.Name, opt, len(u), cap(u), bound)
			}
			if len(u) == 0 && u != nil {
				t.Errorf("%s %+v: empty universe is not nil", c.Name, opt)
			}
		}
	}
}

func TestUniverseFanoutBranches(t *testing.T) {
	c, err := logic.NewCircuit("fan", []string{"a"}, []string{"y", "z"}, []logic.GateInst{
		{Name: "g0", Kind: gates.INV, Fanin: []string{"a"}, Output: "y"},
		{Name: "g1", Kind: gates.BUF, Fanin: []string{"a"}, Output: "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	u := Universe(c, UniverseOptions{LineStuckAt: true})
	branches := 0
	for _, f := range u {
		if f.Pin >= 0 {
			branches++
		}
	}
	if branches != 4 { // net a feeds 2 gates -> 2 branches x SA0/SA1
		t.Errorf("branch faults = %d, want 4", branches)
	}
}

// TestFaultString checks fault names, and every name of every
// registered benchmark's full universe against the fmt rendering.
func TestFaultString(t *testing.T) {
	f := Fault{Kind: FaultStuckAtN, Gate: "g7", Transistor: "t2"}
	if got := f.String(); !strings.Contains(got, "g7.t2") || !strings.Contains(got, "stuck-at-n-type") {
		t.Errorf("fault string: %q", got)
	}
	lf := Fault{Kind: FaultSA0, Net: "n3", Pin: -1}
	if lf.String() != "n3/SA0" {
		t.Errorf("line fault string: %q", lf.String())
	}
	for _, name := range append(bench.Names(), bench.ISCASNames()...) {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range Universe(c, AllFaults()) {
			if got, want := f.String(), refFaultName(f); got != want {
				t.Fatalf("%s: fault name %q, want %q", name, got, want)
			}
		}
	}
}

func TestGateBehaviorFaultFree(t *testing.T) {
	for _, k := range gates.Kinds() {
		b, err := GateBehavior(k, "", logic.TFaultNone)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !b.FunctionPreserved() {
			t.Errorf("%v: fault-free behaviour does not match the function", k)
		}
		if n := len(b.LeakDetecting()); n != 0 {
			t.Errorf("%v: fault-free gate leaks on %d vectors", k, n)
		}
	}
}

func TestGateBehaviorUnknownTransistor(t *testing.T) {
	if _, err := GateBehavior(gates.INV, "t99", logic.TFaultOpen); err == nil {
		t.Error("unknown transistor accepted")
	}
}

func TestChannelBreakBehaviorSPvsDP(t *testing.T) {
	// SP NAND2: a break on the pull-up t1 leaves floating vectors
	// (classical stuck-open). DP XOR2: breaks are masked — function
	// preserved on every vector.
	nand, err := GateBehavior(gates.NAND2, "t1", logic.TFaultOpen)
	if err != nil {
		t.Fatal(err)
	}
	if len(nand.FloatingVectors()) == 0 {
		t.Error("NAND2 t1 break should float some vectors")
	}
	for _, tr := range []string{"t1", "t2", "t3", "t4"} {
		xor, err := GateBehavior(gates.XOR2, tr, logic.TFaultOpen)
		if err != nil {
			t.Fatal(err)
		}
		if !xor.FunctionPreserved() {
			t.Errorf("XOR2 %s break not masked", tr)
		}
		if len(xor.OutputDetecting()) != 0 {
			t.Errorf("XOR2 %s break output-detectable, contradicting the paper", tr)
		}
	}
}

func TestPolarityFaultBehaviorXOR2(t *testing.T) {
	// Pull-up polarity faults: leak-only detection. Pull-down: at least
	// one output-detecting vector (Table III).
	for _, tf := range []logic.TFault{logic.TFaultStuckAtN, logic.TFaultStuckAtP} {
		for _, tr := range []string{"t1", "t2"} {
			b, err := GateBehavior(gates.XOR2, tr, tf)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.LeakDetecting()) == 0 {
				t.Errorf("XOR2 %s %v: no leak vector", tr, tf)
			}
			if len(b.OutputDetecting()) != 0 {
				t.Errorf("XOR2 %s %v: pull-up fault flips output (vectors %v)", tr, tf, b.OutputDetecting())
			}
		}
	}
	// Pull-down stuck-at-n flips the output (electron branch wins).
	for _, tr := range []string{"t3", "t4"} {
		b, err := GateBehavior(gates.XOR2, tr, logic.TFaultStuckAtN)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.OutputDetecting()) == 0 {
			t.Errorf("XOR2 %s stuck-at-n: no output-detecting vector", tr)
		}
	}
}

func TestCollapseStuckAt(t *testing.T) {
	src := []logic.GateInst{
		{Name: "g0", Kind: gates.INV, Fanin: []string{"a"}, Output: "w"},
		{Name: "g1", Kind: gates.NAND2, Fanin: []string{"w", "b"}, Output: "y"},
	}
	c, err := logic.NewCircuit("c", []string{"a", "b"}, []string{"y"}, src)
	if err != nil {
		t.Fatal(err)
	}
	full := Universe(c, ClassicalOnly())
	collapsed := CollapseStuckAt(c, full)
	if len(collapsed) >= len(full) {
		t.Errorf("collapse removed nothing: %d -> %d", len(full), len(collapsed))
	}
	// w/SA0 (controlling for NAND) must be dropped, w/SA1 kept.
	for _, f := range collapsed {
		if f.Net == "w" && f.Kind == FaultSA0 && f.Pin < 0 {
			t.Error("w/SA0 should have been collapsed into y/SA1")
		}
	}
}

func TestFabricationProcessTableI(t *testing.T) {
	steps := FabricationProcess()
	if len(steps) != 5 {
		t.Fatalf("Table I has %d steps, want 5", len(steps))
	}
	wantNames := []string{
		"HSQ-based nanowire patterning", "Bosch process", "Oxidation process",
		"Polysilicon deposition", "Metal layer(s) deposition",
	}
	for i, s := range steps {
		if s.Name != wantNames[i] {
			t.Errorf("step %d: %q, want %q", i+1, s.Name, wantNames[i])
		}
		if s.Index != i+1 || len(s.Defects) == 0 || len(s.Models) == 0 {
			t.Errorf("step %d incomplete: %+v", i+1, s)
		}
	}
	// Every defect class of Table I maps to at least one implemented
	// fault model; collectively the steps cover the full universe classes.
	seen := map[FaultKind]bool{}
	for _, s := range steps {
		for _, m := range s.Models {
			seen[m] = true
		}
	}
	for _, k := range []FaultKind{FaultChannelBreak, FaultGOSCG, FaultStuckAtN, FaultStuckAtP, FaultPGOpenS, FaultSA0} {
		if !seen[k] {
			t.Errorf("fault model %v not covered by any process step", k)
		}
	}
}

// refFaultName is the fmt rendering Fault.String must reproduce.
func refFaultName(f Fault) string {
	if f.Kind.IsLineFault() {
		if f.Pin >= 0 {
			return fmt.Sprintf("%s/%s@pin%d(g%d)", f.Net, f.Kind, f.Pin, f.GateIdx)
		}
		return fmt.Sprintf("%s/%s", f.Net, f.Kind)
	}
	return fmt.Sprintf("%s.%s/%s", f.Gate, f.Transistor, f.Kind)
}
