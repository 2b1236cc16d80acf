package atpg

import (
	"fmt"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// StepKind enumerates tester operations.
type StepKind int

const (
	// StepLogic applies a pattern and compares the primary outputs.
	StepLogic StepKind = iota
	// StepIDDQ applies a pattern and measures the quiescent current.
	StepIDDQ
	// StepTwoPattern applies an initialisation pattern then a test
	// pattern, comparing outputs after the second (stuck-open testing).
	StepTwoPattern
	// StepCBProcedure applies the paper's channel-break procedure: the
	// target device's polarity is complemented through the accessible
	// polarity terminals while the pattern is applied; the expected
	// (healthy) response is the *faulty-looking* one, and a clean
	// response reveals the break.
	StepCBProcedure
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepLogic:
		return "logic"
	case StepIDDQ:
		return "iddq"
	case StepTwoPattern:
		return "two-pattern"
	case StepCBProcedure:
		return "cb-procedure"
	}
	return "invalid"
}

// Step is one tester operation with its expected response.
type Step struct {
	Kind StepKind

	Pattern faultsim.Pattern // main (or capture) pattern
	Init    faultsim.Pattern // initialisation pattern (two-pattern steps)

	// CB procedure fields.
	CBGate       string
	CBTransistor string
	CBInjection  logic.TFault
	CBObserve    faultsim.DetectMethod

	// Expected golden response for logic/two-pattern steps.
	Expect map[string]logic.V
}

// Program is an ordered tester program: logic vectors first, then
// two-pattern sequences, then IDDQ measurements (slow), then the
// channel-break procedures (require test-mode polarity access).
type Program struct {
	Circuit *logic.Circuit
	Steps   []Step
}

// BuildProgram assembles a tester program from a generation campaign,
// rendering each vector as a step Pattern and computing the expected
// golden response of every step.
func BuildProgram(c *logic.Circuit, res *CampaignResult) *Program {
	p := &Program{Circuit: c}
	expect := func(pat faultsim.Pattern) map[string]logic.V {
		vals := c.Eval(map[string]logic.V(pat))
		out := map[string]logic.V{}
		for _, po := range c.Outputs {
			out[po] = vals[po]
		}
		return out
	}
	for _, vec := range res.Set.Patterns {
		pat := patternOf(c, vec)
		p.Steps = append(p.Steps, Step{Kind: StepLogic, Pattern: pat, Expect: expect(pat)})
	}
	for _, tp := range res.Set.TwoPattern {
		test := patternOf(c, tp.Test)
		p.Steps = append(p.Steps, Step{
			Kind: StepTwoPattern, Init: patternOf(c, tp.Init), Pattern: test, Expect: expect(test),
		})
	}
	for _, vec := range res.Set.IDDQPatterns {
		p.Steps = append(p.Steps, Step{Kind: StepIDDQ, Pattern: patternOf(c, vec)})
	}
	for _, plan := range res.Set.CBPlans {
		pat := patternOf(c, plan.Pattern)
		p.Steps = append(p.Steps, Step{
			Kind:         StepCBProcedure,
			Pattern:      pat,
			CBGate:       plan.Fault.Gate,
			CBTransistor: plan.Fault.Transistor,
			CBInjection:  plan.Injection,
			CBObserve:    plan.Observe,
			Expect:       expect(pat),
		})
	}
	return p
}

// Verdict is the outcome of executing a program against a device.
type Verdict struct {
	Pass       bool
	FailStep   int      // index of the first failing step (-1 if passed)
	FailReason string   // human-readable failure description
	StepKind   StepKind // kind of the failing step
}

// dutState carries the device under test: at most one injected fault.
type dutState struct {
	c     *logic.Circuit
	fault *core.Fault
	// per-gate retention state for two-pattern steps
	prev map[int]map[string]logic.V
}

// gateIndexOf resolves a gate instance index by name (-1 when missing).
func gateIndexOf(c *logic.Circuit, name string) int {
	for i, g := range c.Gates {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// eval simulates the DUT under a pattern. extra optionally injects a
// test-mode polarity complement at one gate/transistor. The returned leak
// flag aggregates rail-to-rail paths at hooked gates.
func (d *dutState) eval(p faultsim.Pattern, extraGate int, extraTr string, extraInj logic.TFault, retain bool) (map[string]logic.V, bool) {
	leak := false

	// Gate-level transistor faults (DUT fault and/or injection) resolve
	// through switch-level evaluation per affected gate.
	perGate := map[int]map[string]logic.TFault{}
	addTF := func(gi int, tr string, tf logic.TFault) {
		if perGate[gi] == nil {
			perGate[gi] = map[string]logic.TFault{}
		}
		// A channel break on the same device dominates any injection.
		if existing, ok := perGate[gi][tr]; ok && existing == logic.TFaultOpen {
			return
		}
		perGate[gi][tr] = tf
	}
	var hooks logic.TernaryHooks
	if d.fault != nil {
		f := *d.fault
		switch {
		case f.Kind.IsLineFault():
			force := logic.L0
			if f.Kind == core.FaultSA1 {
				force = logic.L1
			}
			if f.Pin >= 0 {
				hooks.Pin = func(gi, pin int, v logic.V) logic.V {
					if gi == f.GateIdx && pin == f.Pin {
						return force
					}
					return v
				}
			} else {
				prevStem := hooks.Stem
				hooks.Stem = func(net string, v logic.V) logic.V {
					if prevStem != nil {
						v = prevStem(net, v)
					}
					if net == f.Net {
						return force
					}
					return v
				}
			}
		default:
			if tf, ok := f.Kind.TFault(); ok {
				if gi := gateIndexOf(d.c, f.Gate); gi >= 0 {
					addTF(gi, f.Transistor, tf)
				}
			}
		}
	}
	if extraGate >= 0 {
		addTF(extraGate, extraTr, extraInj)
	}

	if len(perGate) > 0 {
		prevGateHook := hooks.Gate
		hooks.Gate = func(gi int, in []logic.V) (logic.V, bool) {
			if prevGateHook != nil {
				if v, ok := prevGateHook(gi, in); ok {
					return v, ok
				}
			}
			faults, ok := perGate[gi]
			if !ok {
				return logic.LX, false
			}
			spec := gates.Get(d.c.Gates[gi].Kind)
			var prev map[string]logic.V
			if retain && d.prev != nil {
				prev = d.prev[gi]
			}
			res := logic.EvalSwitch(spec, in, faults, prev)
			if retain {
				if d.prev == nil {
					d.prev = map[int]map[string]logic.V{}
				}
				d.prev[gi] = res.Nodes
			}
			if res.Leak {
				leak = true
			}
			return res.Out, true
		}
	}
	return d.c.EvalHooked(map[string]logic.V(p), hooks), leak
}

// Execute runs the program against a device with the given injected
// fault (nil for a golden device) and returns the tester verdict.
func Execute(p *Program, fault *core.Fault) Verdict {
	dut := &dutState{c: p.Circuit, fault: fault}
	for i, step := range p.Steps {
		switch step.Kind {
		case StepLogic:
			got, _ := dut.eval(step.Pattern, -1, "", logic.TFaultNone, false)
			if po, bad := mismatch(p.Circuit, got, step.Expect); bad {
				return Verdict{FailStep: i, StepKind: step.Kind,
					FailReason: fmt.Sprintf("output %s = %v, expected %v", po, got[po], step.Expect[po])}
			}
		case StepTwoPattern:
			dut.prev = map[int]map[string]logic.V{}
			dut.eval(step.Init, -1, "", logic.TFaultNone, true)
			got, _ := dut.eval(step.Pattern, -1, "", logic.TFaultNone, true)
			if po, bad := mismatch(p.Circuit, got, step.Expect); bad {
				return Verdict{FailStep: i, StepKind: step.Kind,
					FailReason: fmt.Sprintf("two-pattern output %s = %v, expected %v", po, got[po], step.Expect[po])}
			}
		case StepIDDQ:
			_, leak := dut.eval(step.Pattern, -1, "", logic.TFaultNone, false)
			if leak {
				return Verdict{FailStep: i, StepKind: step.Kind,
					FailReason: "elevated IDDQ"}
			}
		case StepCBProcedure:
			gi := gateIndexOf(p.Circuit, step.CBGate)
			got, leak := dut.eval(step.Pattern, gi, step.CBTransistor, step.CBInjection, false)
			// The injected polarity complement must manifest on a healthy
			// device; a clean response reveals the channel break.
			var manifest bool
			if step.CBObserve == faultsim.ByIDDQ {
				manifest = leak
			} else {
				_, manifest = mismatch(p.Circuit, got, step.Expect)
			}
			if !manifest {
				return Verdict{FailStep: i, StepKind: step.Kind,
					FailReason: fmt.Sprintf("%s.%s: injected polarity fault masked (channel break)", step.CBGate, step.CBTransistor)}
			}
		}
	}
	return Verdict{Pass: true, FailStep: -1}
}

// mismatch reports the first primary output whose definite value differs
// from the expectation.
func mismatch(c *logic.Circuit, got, want map[string]logic.V) (string, bool) {
	for _, po := range c.Outputs {
		g, gok := got[po].Bool()
		w, wok := want[po].Bool()
		if gok && wok && g != w {
			return po, true
		}
	}
	return "", false
}
