// Package cpsinw is a fault-modeling and test-generation toolkit for
// Controllable-Polarity Silicon NanoWire (CP-SiNW) circuits, reproducing
// and extending:
//
//	H. Ghasemzadeh Mohammadi, P.-E. Gaillardon, G. De Micheli,
//	"Fault Modeling in Controllable Polarity Silicon Nanowire Circuits",
//	DATE 2015, pp. 453-458.
//
// The package is a facade over the full stack in internal/: a TIG-SiNWFET
// compact device model and synthetic TCAD solver, an analog (SPICE-class)
// circuit simulator with a hand-rolled netlist format, the SP/DP CP gate
// library, switch-level and gate-level logic simulation, the paper's fault
// models (including the new stuck-at n-type / p-type polarity faults),
// fault simulation, ATPG (PODEM, IDDQ justification, two-pattern
// stuck-open tests and the paper's channel-break procedure for dynamic-
// polarity gates), and an experiment harness regenerating every table and
// figure of the paper.
//
// Quick start:
//
//	dev := cpsinw.NewDevice()                    // Table II device
//	curve := dev.TransferCurve(0, 1.2, 61, 1.2, 1.2, 1.2)
//	ckt, _ := cpsinw.ParseBench("c17", reader)   // gate-level netlist
//	res := cpsinw.RunATPG(ckt)                   // extended CP fault model
//	fmt.Println(res.Coverage())
package cpsinw

import (
	"io"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/device"
	"cpsinw/internal/experiments"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

// NewDevice returns the paper's reference TIG-SiNWFET compact model
// (Table II geometry, reproduction calibration).
func NewDevice() *device.Model { return device.Default() }

// NewDeviceWithDefects returns a reference device with defects injected.
func NewDeviceWithDefects(d device.Defects) *device.Model {
	return device.Default().WithDefects(d)
}

// ParseBench reads a gate-level circuit in the .bench-style format
// (NAND/NOR/NOT/BUF/XOR/MAJ over named nets).
func ParseBench(name string, r io.Reader) (*logic.Circuit, error) {
	return logic.ParseBench(name, r)
}

// WriteBench writes a circuit in the .bench-style format.
func WriteBench(w io.Writer, c *logic.Circuit) error {
	return logic.WriteBench(w, c)
}

// Benchmarks returns the built-in benchmark suite (c17, CP full adders,
// ripple-carry adders, parity trees, a TMR voter, array multipliers and a
// seeded random circuit).
func Benchmarks() map[string]*logic.Circuit { return bench.Suite() }

// FaultUniverse enumerates the extended CP fault list of a circuit:
// classical line stuck-at faults plus the transistor-level faults of the
// paper (channel break, stuck-on, stuck-at n-type/p-type, GOS, PG opens).
func FaultUniverse(c *logic.Circuit) []core.Fault {
	return core.Universe(c, core.AllFaults())
}

// RunATPG generates tests for the full testable CP fault model of a
// circuit: PODEM for stuck-at faults, polarity-fault tests with IDDQ
// fallback, two-pattern stuck-open tests for static-polarity gates and
// the paper's channel-break procedure for dynamic-polarity gates.
func RunATPG(c *logic.Circuit) *atpg.CampaignResult {
	universe := core.Universe(c, core.UniverseOptions{
		LineStuckAt: true, ChannelBreak: true, Polarity: true,
	})
	return atpg.Generate(c, universe, atpg.Options{})
}

// FaultSimulate runs the pattern set against the circuit's stuck-at
// faults, core.Universe(c, core.ClassicalOnly()), and returns the
// coverage summary. Its Undetected values are indices into that list.
func FaultSimulate(c *logic.Circuit, patterns []faultsim.Pattern) faultsim.Coverage {
	faults := core.Universe(c, core.ClassicalOnly())
	return faultsim.Summarise(faultsim.New(c).RunStuckAt(faults, patterns))
}

// Experiments exposes the paper-reproduction harness: each method
// regenerates one table or figure.
type Experiments struct{}

// Repro is the entry point to the reproduction harness.
var Repro Experiments

// TableI regenerates the fabrication-process/defect table.
func (Experiments) TableI() *experiments.TableIResult { return experiments.TableI() }

// TableII regenerates the device parameter table.
func (Experiments) TableII() *experiments.TableIIResult { return experiments.TableII() }

// TableIII regenerates the XOR2 polarity-defect detection table; analog
// adds the IDDQ confirmation by DC simulation.
func (Experiments) TableIII(analog bool) (*experiments.TableIIIResult, error) {
	return experiments.TableIII(analog)
}

// Figure3 regenerates the GOS I-V study.
func (Experiments) Figure3(points int) *experiments.Figure3Result {
	return experiments.Figure3(points)
}

// Figure4 regenerates the electron-density study.
func (Experiments) Figure4() *experiments.Figure4Result { return experiments.Figure4() }

// Figure5 regenerates the open-polarity-gate leakage/delay sweeps.
func (Experiments) Figure5(opt experiments.Figure5Options) (*experiments.Figure5Result, error) {
	return experiments.Figure5(opt)
}

// ChannelBreakMasking regenerates the section V-C masking measurements.
func (Experiments) ChannelBreakMasking() (*experiments.MaskingResult, error) {
	return experiments.ChannelBreakMasking()
}

// NANDTwoPattern verifies the paper's NAND two-pattern stuck-open set.
func (Experiments) NANDTwoPattern() (*experiments.NANDTwoPatternResult, error) {
	return experiments.NANDTwoPattern()
}

// ChannelBreakAlgorithm validates the paper's channel-break procedure
// across the DP gates of the benchmark suite.
func (Experiments) ChannelBreakAlgorithm() (*experiments.CBAlgorithmResult, error) {
	return experiments.ChannelBreakAlgorithm(nil)
}

// ATPGCampaign compares the classical stuck-at flow against the extended
// CP flow across the benchmark suite.
func (Experiments) ATPGCampaign() (*experiments.CampaignResult, error) {
	return experiments.ATPGCampaign(nil)
}

// AblationPGD runs the drain-side quasi-ballistic ablation study.
func (Experiments) AblationPGD(points int) (*experiments.AblationResult, error) {
	return experiments.AblationPGD(points)
}

// GOSDetect runs the gate-level GOS detectability extension.
func (Experiments) GOSDetect() (*experiments.GOSDetectResult, error) {
	return experiments.GOSDetect(nil)
}

// BreakSeverity runs the partial-break regime extension.
func (Experiments) BreakSeverity(points int) (*experiments.BreakSeverityResult, error) {
	return experiments.BreakSeverity(points)
}

// BridgeCampaign runs the interconnect-bridge extension.
func (Experiments) BridgeCampaign() (*experiments.BridgeCampaignResult, error) {
	return experiments.BridgeCampaign(nil)
}

// DelayFault runs the circuit-level delay-fault extension.
func (Experiments) DelayFault(points int) (*experiments.DelayFaultResult, error) {
	return experiments.DelayFault(points)
}

// Diagnosis runs the fault-dictionary diagnosis extension.
func (Experiments) Diagnosis() (*experiments.DiagnosisResult, error) {
	return experiments.Diagnosis(nil)
}

// BuildTestProgram assembles a tester program from an ATPG campaign and
// Execute runs it against a device under test; see internal/atpg.
func BuildTestProgram(c *logic.Circuit, res *atpg.CampaignResult) *atpg.Program {
	return atpg.BuildProgram(c, res)
}

// ExecuteTestProgram runs a tester program against a device with the
// given injected fault (nil for a golden device).
func ExecuteTestProgram(p *atpg.Program, fault *core.Fault) atpg.Verdict {
	return atpg.Execute(p, fault)
}
