package atpg

import (
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

// Signature is the full response of a device to a program: the sorted set
// of failing step indices. A fault dictionary over a program holds one
// per detected fault (experiments.Diagnosis).
type Signature []int

// ExecuteAll runs every step of the program against the device (it does
// not stop at the first failure) and returns the failure signature.
func ExecuteAll(p *Program, fault *core.Fault) Signature {
	dut := &dutState{c: p.Circuit, fault: fault}
	var sig Signature
	for i, step := range p.Steps {
		fail := false
		switch step.Kind {
		case StepLogic:
			got, _ := dut.eval(step.Pattern, -1, "", logic.TFaultNone, false)
			_, fail = mismatch(p.Circuit, got, step.Expect)
		case StepTwoPattern:
			dut.prev = map[int]map[string]logic.V{}
			dut.eval(step.Init, -1, "", logic.TFaultNone, true)
			got, _ := dut.eval(step.Pattern, -1, "", logic.TFaultNone, true)
			_, fail = mismatch(p.Circuit, got, step.Expect)
		case StepIDDQ:
			_, leak := dut.eval(step.Pattern, -1, "", logic.TFaultNone, false)
			fail = leak
		case StepCBProcedure:
			gi := gateIndexOf(p.Circuit, step.CBGate)
			got, leak := dut.eval(step.Pattern, gi, step.CBTransistor, step.CBInjection, false)
			var manifest bool
			if step.CBObserve == faultsim.ByIDDQ {
				manifest = leak
			} else {
				_, manifest = mismatch(p.Circuit, got, step.Expect)
			}
			fail = !manifest
		}
		if fail {
			sig = append(sig, i)
		}
	}
	return sig
}
