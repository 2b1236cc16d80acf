package experiments

import (
	"fmt"
	"math"
	"sort"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/circuit"
	"cpsinw/internal/core"
	"cpsinw/internal/device"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/iddq"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
	"cpsinw/internal/spice"
)

// MaskingRow records the analog impact of one channel break on the DP
// XOR2 (FO4 loaded): the paper's section V-C masking study.
type MaskingRow struct {
	Transistor    string
	FunctionOK    bool    // all four input states produce the correct output level
	DeltaLeakPct  float64 // (faulty - nominal) / nominal worst static current
	DeltaDelayPct float64 // worst-case transition delay change
}

// MaskingResult reproduces the section V-C numbers: channel break on the
// 2-input XOR only shifts performance (paper: delta-leakage <= 100%,
// delta-delay <= 58%) and never the function.
type MaskingResult struct {
	Rows []MaskingRow
}

// ChannelBreakMasking measures the four channel breaks of XOR2 at FO4.
func ChannelBreakMasking() (*MaskingResult, error) {
	spec := gates.Get(gates.XOR2)
	m := device.Default()
	vdd := m.P.VDD

	nomLeak, nomDelayHL, nomDelayLH, _, err := xorAnalogProfile(nil)
	if err != nil {
		return nil, err
	}
	nomWorst := math.Max(nomDelayHL, nomDelayLH)

	res := &MaskingResult{}
	for _, tr := range spec.Transistors {
		leak, dHL, dLH, levels, err := xorAnalogProfile(map[string]device.Defects{
			tr.Name: {BreakSeverity: 1},
		})
		if err != nil {
			return nil, err
		}
		functionOK := true
		for v, lvl := range levels {
			want := spec.Eval(spec.InputVector(v))
			if want && lvl < 0.55*vdd || !want && lvl > 0.45*vdd {
				functionOK = false
			}
		}
		worst := math.Max(dHL, dLH)
		res.Rows = append(res.Rows, MaskingRow{
			Transistor:    tr.Name,
			FunctionOK:    functionOK,
			DeltaLeakPct:  100 * (leak - nomLeak) / nomLeak,
			DeltaDelayPct: 100 * (worst - nomWorst) / nomWorst,
		})
	}
	return res, nil
}

// xorAnalogProfile measures the XOR2 (FO4) statically and dynamically:
// worst leakage, both transition delays at B=1, and the DC output level
// of every input state.
func xorAnalogProfile(defects map[string]device.Defects) (leak, dHL, dLH float64, levels []float64, err error) {
	spec := gates.Get(gates.XOR2)
	m := device.Default()
	vdd := m.P.VDD

	n, err := gates.BuildAnalog(spec, gates.BuildOptions{Defects: defects})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	ms, err := iddq.MeasureStates(n, []string{"VIN0", "VIN1"}, vdd)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	leak = iddq.Worst(ms).Current

	levels = make([]float64, 4)
	for v := 0; v < 4; v++ {
		w := make([]circuit.Waveform, 2)
		for i := 0; i < 2; i++ {
			if v>>uint(i)&1 == 1 {
				w[i] = circuit.DC(vdd)
			} else {
				w[i] = circuit.DC(0)
			}
		}
		nl, err := gates.BuildAnalog(spec, gates.BuildOptions{Inputs: w, Defects: defects})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		eng, err := spice.NewEngine(nl, spice.Options{})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		sol, err := eng.DC(0)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		levels[v] = sol.V(gates.NodeOut)
	}

	pulse := circuit.Pulse{V0: 0, V1: vdd, Delay: 100e-12, Rise: 10e-12, Fall: 10e-12, Width: 600e-12, Period: 1.4e-9}
	nt, err := gates.BuildAnalog(spec, gates.BuildOptions{
		Inputs:  []circuit.Waveform{pulse, circuit.DC(vdd)},
		Defects: defects,
	})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	eng, err := spice.NewEngine(nt, spice.Options{})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	wf, err := eng.Tran(2e-12, 1.4e-9, []string{gates.InputNode(0), gates.NodeOut})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	dHL, errHL := spice.PropDelay(wf, gates.InputNode(0), gates.NodeOut, vdd, true, false, 0)
	dLH, errLH := spice.PropDelay(wf, gates.InputNode(0), gates.NodeOut, vdd, false, true, 500e-12)
	if errHL != nil || errLH != nil {
		return 0, 0, 0, nil, fmt.Errorf("xor transition missing (break not masked analogically): HL=%v LH=%v", errHL, errLH)
	}
	return leak, dHL, dLH, levels, nil
}

// Report renders the masking table.
func (r *MaskingResult) Report() string {
	t := report.Table{
		Title:   "Section V-C: channel-break masking in the DP XOR2 (FO4)",
		Headers: []string{"Broken transistor", "Function preserved", "dLeakage [%]", "dDelay [%]"},
	}
	for _, row := range r.Rows {
		t.Add(row.Transistor, row.FunctionOK,
			fmt.Sprintf("%+.1f", row.DeltaLeakPct), fmt.Sprintf("%+.1f", row.DeltaDelayPct))
	}
	return t.String()
}

// NANDTwoPatternResult verifies the paper's NAND two-pattern stuck-open
// set: v1=(11->01), v2=(11->10), v3=(00->11).
type NANDTwoPatternResult struct {
	Detected map[string]int // transistor -> detecting pair index (-1 if missed)
}

// NANDTwoPattern runs the paper's three two-pattern tests against every
// channel break of a TIG NAND2.
func NANDTwoPattern() (*NANDTwoPatternResult, error) {
	c, err := logic.NewCircuit("nand", []string{"a", "b"}, []string{"y"}, []logic.GateInst{
		{Name: "g0", Kind: gates.NAND2, Fanin: []string{"a", "b"}, Output: "y"},
	})
	if err != nil {
		return nil, err
	}
	mk := func(a, b int) faultsim.Pattern {
		return faultsim.Pattern{"a": logic.FromBool(a == 1), "b": logic.FromBool(b == 1)}
	}
	pairs := [][2]faultsim.Pattern{
		{mk(1, 1), mk(0, 1)},
		{mk(1, 1), mk(1, 0)},
		{mk(0, 0), mk(1, 1)},
	}
	var faults []core.Fault
	for _, tr := range gates.Get(gates.NAND2).Transistors {
		faults = append(faults, core.Fault{Kind: core.FaultChannelBreak, Gate: "g0", Transistor: tr.Name})
	}
	ds, err := faultsim.New(c).RunTwoPattern(faults, pairs)
	if err != nil {
		return nil, err
	}
	res := &NANDTwoPatternResult{Detected: map[string]int{}}
	for i, d := range ds {
		idx := -1
		if d.Detected() {
			idx = d.Pattern
		}
		res.Detected[faults[i].Transistor] = idx
	}
	return res, nil
}

// AllDetected reports whether every NAND channel break was caught.
func (r *NANDTwoPatternResult) AllDetected() bool {
	for _, idx := range r.Detected {
		if idx < 0 {
			return false
		}
	}
	return true
}

// Report renders the detection table.
func (r *NANDTwoPatternResult) Report() string {
	t := report.Table{
		Title:   "Section V-C: NAND two-pattern set v1=(11->01) v2=(11->10) v3=(00->11)",
		Headers: []string{"Channel break", "Detecting pair"},
	}
	names := []string{"v1=(11->01)", "v2=(11->10)", "v3=(00->11)"}
	var keys []string
	for k := range r.Detected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx := r.Detected[k]
		label := "NOT DETECTED"
		if idx >= 0 {
			label = names[idx]
		}
		t.Add(k, label)
	}
	return t.String()
}

// CBAlgorithmRow summarises the paper's channel-break procedure on one
// benchmark circuit.
type CBAlgorithmRow struct {
	Circuit   string
	DPBreaks  int // channel-break faults inside DP gates
	Planned   int // plans generated
	Verified  int // plans whose verdict separates healthy from broken
	IDDQPlans int
}

// CBAlgorithmResult validates the new test algorithm across benchmarks.
type CBAlgorithmResult struct {
	Rows []CBAlgorithmRow
}

// ChannelBreakAlgorithm runs the paper's procedure over the DP gates of
// the benchmark suite and verifies every plan by dual simulation.
func ChannelBreakAlgorithm(circuits map[string]*logic.Circuit) (*CBAlgorithmResult, error) {
	if circuits == nil {
		circuits = map[string]*logic.Circuit{
			"fa_cp":   bench.FullAdderCP(),
			"parity8": bench.ParityTree(8),
			"tmr":     bench.TMRVoter(),
			"rca4":    bench.RippleCarryAdder(4),
		}
	}
	res := &CBAlgorithmResult{}
	var names []string
	for name := range circuits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := circuits[name]
		row := CBAlgorithmRow{Circuit: name}
		for _, g := range c.Gates {
			spec := gates.Get(g.Kind)
			if spec.Class != gates.DynamicPolarity {
				continue
			}
			for _, tr := range spec.Transistors {
				row.DPBreaks++
				f := core.Fault{Kind: core.FaultChannelBreak, Gate: g.Name, Transistor: tr.Name}
				plan, ok := atpg.GenerateChannelBreakDP(c, f, atpg.Options{})
				if !ok {
					continue
				}
				row.Planned++
				if plan.Observe == faultsim.ByIDDQ {
					row.IDDQPlans++
				}
				healthy, broken, err := atpg.VerifyChannelBreakPlan(c, plan)
				if err != nil {
					return nil, err
				}
				if healthy && !broken {
					row.Verified++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Report renders the campaign table.
func (r *CBAlgorithmResult) Report() string {
	t := report.Table{
		Title:   "Section V-C: channel-break detection procedure on DP gates",
		Headers: []string{"Circuit", "DP channel breaks", "Plans", "Verified verdicts", "IDDQ-observed"},
	}
	for _, row := range r.Rows {
		t.Add(row.Circuit, row.DPBreaks, row.Planned, row.Verified, row.IDDQPlans)
	}
	return t.String()
}
