package cpsinw

import (
	"slices"
	"strings"
	"testing"

	"cpsinw/internal/device"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

func TestFacadeDevice(t *testing.T) {
	dev := NewDevice()
	if dev.IDSat() <= 0 {
		t.Fatal("device does not conduct")
	}
	faulty := NewDeviceWithDefects(device.Defects{GOS: device.GOSAtPGS})
	if faulty.IDSat() >= dev.IDSat() {
		t.Error("GOS injection did not reduce the drive")
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n"
	c, err := ParseBench("x", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteBench(&b, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "XOR(a, b)") {
		t.Errorf("write-back missing gate: %s", b.String())
	}
}

func TestFacadeBenchmarksAndUniverse(t *testing.T) {
	suite := Benchmarks()
	c17, ok := suite["c17"]
	if !ok {
		t.Fatal("c17 missing from suite")
	}
	u := FaultUniverse(c17)
	if len(u) < 100 {
		t.Errorf("universe too small: %d", len(u))
	}
}

func TestFacadeATPGAndFaultSim(t *testing.T) {
	c := Benchmarks()["fa_cp"]
	res := RunATPG(c)
	if res.Coverage() < 90 {
		t.Errorf("full-adder coverage %.1f%%", res.Coverage())
	}
	set := faultsim.NewPatternSet(c, 0)
	for _, vec := range slices.Concat(res.Set.Patterns, res.Set.IDDQPatterns) {
		set.Append(vec)
	}
	cov := FaultSimulate(c, set.Patterns())
	if cov.Percent() < 90 {
		t.Errorf("stuck-at coverage of the generated set: %.1f%%", cov.Percent())
	}
}

func TestFacadeExperiments(t *testing.T) {
	if got := Repro.TableI().Report(); !strings.Contains(got, "Bosch") {
		t.Error("TableI report broken")
	}
	if got := Repro.TableII().Report(); !strings.Contains(got, "22nm") {
		t.Error("TableII report broken")
	}
	r3 := Repro.Figure3(10)
	if len(r3.Variants) != 4 {
		t.Error("Figure3 variants missing")
	}
	r4 := Repro.Figure4()
	if len(r4.Cases) != 4 {
		t.Error("Figure4 cases missing")
	}
	t3, err := Repro.TableIII(false)
	if err != nil || len(t3.Rows) != 8 {
		t.Errorf("TableIII: %v", err)
	}
	np, err := Repro.NANDTwoPattern()
	if err != nil || !np.AllDetected() {
		t.Errorf("NANDTwoPattern: %v", err)
	}
}

func TestFacadeTypesAreUsable(t *testing.T) {
	// The facade should expose enough to write a custom flow without
	// touching internal packages directly beyond the returned types.
	c := Benchmarks()["tmr"]
	vals := c.Eval(map[string]logic.V{
		"x0": logic.L1, "y0": logic.L1,
		"x1": logic.L1, "y1": logic.L1,
		"x2": logic.L1, "y2": logic.L1,
	})
	if vals["v"] != logic.L0 {
		t.Errorf("TMR vote = %v", vals["v"])
	}
}

func TestFacadeExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments in -short mode")
	}
	diag, err := Repro.Diagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Rows) == 0 {
		t.Error("diagnosis returned no rows")
	}
	bc, err := Repro.BridgeCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Rows) == 0 {
		t.Error("bridge campaign returned no rows")
	}
	bs, err := Repro.BreakSeverity(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Points) != 5 {
		t.Errorf("break severity points = %d", len(bs.Points))
	}
}

func TestFacadeTestProgram(t *testing.T) {
	c := Benchmarks()["fa_cp"]
	res := RunATPG(c)
	prog := BuildTestProgram(c, res)
	if len(prog.Steps) == 0 {
		t.Fatal("empty program")
	}
	if v := ExecuteTestProgram(prog, nil); !v.Pass {
		t.Errorf("golden device fails: %s", v.FailReason)
	}
}
