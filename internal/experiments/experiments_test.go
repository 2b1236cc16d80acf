package experiments

import (
	"math"
	"strings"
	"testing"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/device"
	"cpsinw/internal/dict"
	"cpsinw/internal/gates"
)

func TestTableI(t *testing.T) {
	r := TableI()
	if len(r.Steps) != 5 {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	rep := r.Report()
	for _, want := range []string{"Bosch process", "Gate oxide short", "stuck-at-n-type", "channel-break"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Table I report missing %q", want)
		}
	}
}

func TestTableII(t *testing.T) {
	rep := TableII().Report()
	for _, want := range []string{"22nm", "5.1nm", "7.5nm", "0.41eV", "1e+15"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Table II report missing %q:\n%s", want, rep)
		}
	}
}

func TestTableIIISwitchLevel(t *testing.T) {
	r, err := TableIII(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (2 fault types x 4 transistors)", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Paper Table III: every polarity fault is detectable, always with
		// a leakage signature; pull-up faults by leakage only, pull-down
		// stuck-at-n also flips the output.
		if row.Vector < 0 {
			t.Errorf("%v on %s: undetectable", row.FaultKind, row.Transistor)
			continue
		}
		if !row.LeakDetect && !row.OutputDetect {
			t.Errorf("%v on %s: no signature", row.FaultKind, row.Transistor)
		}
		if row.Net == gates.NetPullUp && row.OutputDetect {
			t.Errorf("%v on %s: pull-up fault flips output, contradicting the paper", row.FaultKind, row.Transistor)
		}
		if row.Net == gates.NetPullDown && row.FaultKind == core.FaultStuckAtN && !row.OutputDetect {
			t.Errorf("stuck-at-n on %s: pull-down fault should flip the output", row.Transistor)
		}
	}
}

func TestTableIIIAnalogLeakRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("analog Table III in -short mode")
	}
	r, err := TableIII(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Vector < 0 || !row.LeakDetect || row.OutputDetect {
			continue
		}
		// Leak-only faults (pull-up network): the analog IDDQ ratio must
		// be large enough for current testing (paper reports > 1e6 in their
		// setup; our floor-limited simulator must still show >= 100x).
		if row.AnalogLeakRatio < 100 {
			t.Errorf("%v on %s: analog IDDQ ratio %.3g, want >= 100",
				row.FaultKind, row.Transistor, row.AnalogLeakRatio)
		}
	}
	if !strings.Contains(r.Report(), "pull-up") {
		t.Error("report should label the networks")
	}
}

func TestFigure3Claims(t *testing.T) {
	r := Figure3(25)
	ff := r.Variant(device.GOSNone)
	pgs := r.Variant(device.GOSAtPGS)
	cg := r.Variant(device.GOSAtCG)
	pgd := r.Variant(device.GOSAtPGD)

	// ID(SAT) ordering: PGS < CG < FF < PGD (paper Figures 3a-c).
	if !(pgs.IDSat < cg.IDSat && cg.IDSat < ff.IDSat && ff.IDSat < pgd.IDSat) {
		t.Errorf("ID(SAT) ordering: pgs=%.3g cg=%.3g ff=%.3g pgd=%.3g",
			pgs.IDSat, cg.IDSat, ff.IDSat, pgd.IDSat)
	}
	// VTh shift ~170 mV for GOS@PGS; ~none for PGD.
	if pgs.VthShift < 0.12 || pgs.VthShift > 0.22 {
		t.Errorf("GOS@PGS dVth = %.0f mV, want ~170", pgs.VthShift*1000)
	}
	if math.Abs(pgd.VthShift) > 0.03 {
		t.Errorf("GOS@PGD dVth = %.0f mV, want ~0", pgd.VthShift*1000)
	}
	// Negative ID at low VD for every defective device; none when fault-free.
	for _, v := range []*Figure3Variant{pgs, cg, pgd} {
		if v.MinID >= 0 {
			t.Errorf("%s: no negative-ID region", v.Label)
		}
	}
	if ff.MinID < -1e-12 {
		t.Errorf("fault-free device shows negative ID: %.3g", ff.MinID)
	}
	if !strings.Contains(r.Report(), "GOS on PGS") {
		t.Error("report missing curves")
	}
}

func TestFigure3TCADAgreement(t *testing.T) {
	ids := Figure3TCAD()
	ff := ids[device.GOSNone]
	if !(ids[device.GOSAtPGS] < ids[device.GOSAtCG] && ids[device.GOSAtCG] < ff && ff < ids[device.GOSAtPGD]) {
		t.Errorf("solver ID ordering disagrees with compact model: %+v", ids)
	}
}

func TestFigure4Claims(t *testing.T) {
	r := Figure4()
	ff := r.Case(device.GOSNone)
	cg := r.Case(device.GOSAtCG)
	pgd := r.Case(device.GOSAtPGD)
	pgs := r.Case(device.GOSAtPGS)
	if !(ff.Mean > cg.Mean && cg.Mean > pgd.Mean && pgd.Mean > pgs.Mean) {
		t.Fatalf("density ordering broken: %+v", r)
	}
	// Ratios against the paper's reported values within a x3 band.
	for _, c := range r.Cases {
		ours := c.Mean / ff.Mean
		paper := PaperDensity[c.GOS] / PaperDensity[device.GOSNone]
		if ours > 3*paper || ours < paper/3 {
			t.Errorf("%s: density ratio %.4g vs paper %.4g (outside x3 band)", c.Label, ours, paper)
		}
	}
}

func TestFigure5ShapesSmall(t *testing.T) {
	// A reduced sweep that still verifies every qualitative claim of
	// Figure 5; the full-resolution run lives in the benchmark harness.
	r, err := Figure5(Figure5Options{Points: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 6 {
		t.Fatalf("panels = %d, want 6", len(r.Panels))
	}

	// (a) INV t1: the PGD-open delay rises far more than the PGS-open
	// delay (quasi-ballistic split, paper: 7x vs slight).
	inv := r.Panel(gates.INV, "t1")
	pgd, okD := inv.Curve(gates.PGDTerminal).MaxFunctionalDelay()
	pgs, okS := inv.Curve(gates.PGSTerminal).MaxFunctionalDelay()
	if !okD || !okS {
		t.Fatal("INV t1: no functional points")
	}
	ratioD := pgd / inv.NominalDelay
	ratioS := pgs / inv.NominalDelay
	if ratioD < 2 {
		t.Errorf("INV t1 PGD-open delay ratio %.2f, want >= 2 (paper ~7x)", ratioD)
	}
	if ratioD <= 1.5*ratioS {
		t.Errorf("INV t1: PGD rise (%.2f) should dominate PGS rise (%.2f)", ratioD, ratioS)
	}

	// (b) INV t1 leakage rises with Vcut on the output-side polarity gate
	// (the ambipolar mixed-carrier path; paper ~5x).
	_, hiLeak := inv.Curve(gates.PGDTerminal).LeakSpan()
	if hiLeak < 2*inv.NominalLeakage {
		t.Errorf("INV t1 leakage rise %.2fx, want >= 2x", hiLeak/inv.NominalLeakage)
	}

	// (c) XOR2 t1: function preserved across the entire rail-to-rail
	// sweep (redundant pass structure) and leakage spans decades.
	xor := r.Panel(gates.XOR2, "t1")
	for _, c := range xor.Curves {
		for _, p := range c.Points {
			if !p.Functional {
				t.Errorf("XOR2 t1 %v at Vcut=%.2f: function lost, contradicting the paper", c.Terminal, p.Vcut)
			}
		}
	}
	// Leakage varies over a wide span while the gate keeps functioning
	// (paper: 6 decades; our compact model reaches >= 1.5 decades — the
	// deviation is recorded in EXPERIMENTS.md).
	lo, hi := xor.Curve(gates.PGSTerminal).LeakSpan()
	if hi/lo < 30 {
		t.Errorf("XOR2 t1 leak span %.3g..%.3g (%.1fx), want >= 30x", lo, hi, hi/lo)
	}
	// Delay varies far less than in the SP gates: the redundant driver
	// keeps the transition alive (paper: near-flat).
	worst, ok := xor.Curve(gates.PGSTerminal).MaxFunctionalDelay()
	if !ok || worst > 8*xor.NominalDelay {
		t.Errorf("XOR2 t1 delay ratio %.2f, want <= 8 (paper: flat)", worst/xor.NominalDelay)
	}

	// (d) SP gates lose functionality beyond VHi (the SOF regime) —
	// at the window edge the INV/NAND pull-up must stop switching.
	nand := r.Panel(gates.NAND2, "t1")
	edgeFunctional := 0
	for _, c := range nand.Curves {
		last := c.Points[len(c.Points)-1]
		if last.Functional {
			edgeFunctional++
		}
	}
	if edgeFunctional == 2 {
		t.Error("NAND t1: both curves still functional at the window edge; SOF regime not reached")
	}
}

func TestNANDTwoPatternExperiment(t *testing.T) {
	r, err := NANDTwoPattern()
	if err != nil {
		t.Fatal(err)
	}
	if !r.AllDetected() {
		t.Errorf("paper's two-pattern set missed breaks: %+v", r.Detected)
	}
	if !strings.Contains(r.Report(), "v3=(00->11)") {
		t.Error("report incomplete")
	}
}

func TestChannelBreakAlgorithmExperiment(t *testing.T) {
	r, err := ChannelBreakAlgorithm(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no circuits")
	}
	for _, row := range r.Rows {
		if row.DPBreaks == 0 {
			t.Errorf("%s: no DP breaks enumerated", row.Circuit)
			continue
		}
		if row.Planned != row.DPBreaks {
			t.Errorf("%s: %d/%d plans generated", row.Circuit, row.Planned, row.DPBreaks)
		}
		if row.Verified != row.Planned {
			t.Errorf("%s: %d/%d verdicts verified", row.Circuit, row.Verified, row.Planned)
		}
	}
}

func TestAblationPGD(t *testing.T) {
	if testing.Short() {
		t.Skip("analog ablation in -short mode")
	}
	r, err := AblationPGD(4)
	if err != nil {
		t.Fatal(err)
	}
	// The quasi-ballistic softening keeps the PGD-open device usable over
	// a wider Vcut window (graceful 7x-style degradation); the ablated
	// model cuts off sooner.
	if r.AsymWindow <= r.SymWindow {
		t.Errorf("functional windows: soft=%.2f V sharp=%.2f V, want soft > sharp", r.AsymWindow, r.SymWindow)
	}
	grace := false
	for _, row := range r.Rows {
		if !math.IsNaN(row.AsymRatio) && row.AsymRatio >= 2 {
			grace = true
		}
	}
	if !grace {
		t.Error("soft model never shows a graceful (>=2x) delay rise before cut-off")
	}
}

// TestProgramDictionarySelfDiagnosis: diagnosing the signature of each
// fault of a tester-program dictionary must rank that fault as an exact
// match (score 1) among the candidates.
func TestProgramDictionarySelfDiagnosis(t *testing.T) {
	c := bench.FullAdderCP()
	universe := core.Universe(c, core.UniverseOptions{LineStuckAt: true, ChannelBreak: true, Polarity: true})
	program := atpg.BuildProgram(c, atpg.Generate(c, universe, atpg.Options{}))
	d, err := programDictionary(program, universe)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) == 0 {
		t.Fatal("empty dictionary")
	}
	for _, e := range d.Entries {
		found := false
		for _, cand := range d.Diagnose(dict.Observation{Out: e.Out, Leak: e.Leak}, 50) {
			if cand.Fault == e.Fault {
				found = true
				if cand.Score != 1 || !cand.Exact {
					t.Errorf("%s: self score %.2f, want an exact match", e.Fault, cand.Score)
				}
			}
		}
		if !found {
			t.Errorf("%s: not among its own candidates", e.Fault)
		}
	}
}
