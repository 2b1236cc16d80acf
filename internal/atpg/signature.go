package atpg

import "cpsinw/internal/core"

// Signature is the full response of a device to a program: the sorted set
// of failing step indices. A fault dictionary over a program holds one
// per detected fault (experiments.Diagnosis).
type Signature []int

// ExecuteAll runs every step of the program against the device (it does
// not stop at the first failure) and returns the failure signature.
func ExecuteAll(p *Program, fault *core.Fault) Signature {
	dut := &dutState{c: p.Circuit, fault: fault}
	var sig Signature
	for i := range p.Steps {
		if fail, _, _ := dut.run(&p.Steps[i]); fail {
			sig = append(sig, i)
		}
	}
	return sig
}
