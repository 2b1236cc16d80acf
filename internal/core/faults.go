// Package core implements the paper's primary contribution: the fault
// models for controllable-polarity silicon nanowire circuits.
//
// It defines the fault universe (classical line stuck-at faults plus the
// CP-specific transistor faults: channel break / stuck-open, stuck-on,
// gate-oxide shorts, floating polarity gates, and the newly introduced
// stuck-at n-type / stuck-at p-type polarity faults), generates fault
// lists from gate-level circuits, collapses equivalent stuck-at faults,
// and characterises how each transistor fault changes a gate's behaviour
// (output function, floating states and IDDQ signature) through exhaustive
// switch-level evaluation.
package core

import (
	"fmt"
	"strconv"

	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// FaultKind enumerates every fault model in the universe.
type FaultKind int

const (
	// Classical line faults (gate-level).
	FaultSA0 FaultKind = iota // line stuck-at-0
	FaultSA1                  // line stuck-at-1

	// Transistor-level faults inside CP gates.
	FaultChannelBreak // nanowire break: transistor never conducts (stuck-open)
	FaultStuckOn      // transistor always conducts
	FaultStuckAtN     // polarity terminals bridged to VDD (new, CP-specific)
	FaultStuckAtP     // polarity terminals bridged to GND (new, CP-specific)
	FaultGOSPGS       // gate-oxide short at the source-side polarity gate
	FaultGOSCG        // gate-oxide short at the control gate
	FaultGOSPGD       // gate-oxide short at the drain-side polarity gate
	FaultPGOpenS      // floating PGS (open interconnect)
	FaultPGOpenD      // floating PGD (open interconnect)
)

var faultKindNames = map[FaultKind]string{
	FaultSA0: "SA0", FaultSA1: "SA1",
	FaultChannelBreak: "channel-break", FaultStuckOn: "stuck-on",
	FaultStuckAtN: "stuck-at-n-type", FaultStuckAtP: "stuck-at-p-type",
	FaultGOSPGS: "GOS@PGS", FaultGOSCG: "GOS@CG", FaultGOSPGD: "GOS@PGD",
	FaultPGOpenS: "PG-open(PGS)", FaultPGOpenD: "PG-open(PGD)",
}

// String names the fault kind as used in the paper and our reports.
func (k FaultKind) String() string {
	if s, ok := faultKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// IsLineFault reports whether the kind is a classical line stuck-at.
func (k FaultKind) IsLineFault() bool { return k == FaultSA0 || k == FaultSA1 }

// IsPolarityFault reports whether the kind is one of the paper's new
// polarity fault models.
func (k FaultKind) IsPolarityFault() bool { return k == FaultStuckAtN || k == FaultStuckAtP }

// IsTransistorFault reports whether the fault sits inside a gate.
func (k FaultKind) IsTransistorFault() bool { return !k.IsLineFault() }

// TFault maps a transistor-level fault kind to its switch-level model;
// ok is false for kinds the switch level cannot express (GOS and PG-open
// are parametric analog faults handled by the device model and the
// Figure 3/5 experiments).
func (k FaultKind) TFault() (logic.TFault, bool) {
	switch k {
	case FaultChannelBreak:
		return logic.TFaultOpen, true
	case FaultStuckOn:
		return logic.TFaultStuckOn, true
	case FaultStuckAtN:
		return logic.TFaultStuckAtN, true
	case FaultStuckAtP:
		return logic.TFaultStuckAtP, true
	}
	return logic.TFaultNone, false
}

// Fault is one fault instance in a circuit.
type Fault struct {
	Kind FaultKind

	// Line faults: Net is the stuck line. If Pin >= 0 the fault sits on
	// that fanout branch (input pin of gate GateIdx); otherwise it is the
	// stem fault.
	Net     string
	GateIdx int // reading gate for branch faults, driving gate otherwise (-1 for PI stems)
	Pin     int // -1 for stem faults

	// Transistor faults: Gate is the instance name, Transistor the
	// device name inside the gate spec.
	Gate       string
	Transistor string
}

// String renders a compact fault identifier: net/kind for a stem,
// net/kind@pinP(gG) for a fanout branch, gate.transistor/kind inside a
// gate. It names every dictionary entry and undetected fault, so it
// concatenates rather than formats.
func (f Fault) String() string {
	if f.Kind.IsLineFault() {
		if f.Pin >= 0 {
			return f.Net + "/" + f.Kind.String() + "@pin" + strconv.Itoa(f.Pin) + "(g" + strconv.Itoa(f.GateIdx) + ")"
		}
		return f.Net + "/" + f.Kind.String()
	}
	return f.Gate + "." + f.Transistor + "/" + f.Kind.String()
}

// UniverseOptions selects which fault classes to enumerate.
type UniverseOptions struct {
	LineStuckAt  bool // classical SA0/SA1 on stems and fanout branches
	ChannelBreak bool
	StuckOn      bool
	Polarity     bool // stuck-at n-type / p-type (the new models)
	GOS          bool // analog gate-oxide shorts (3 locations per device)
	PGOpen       bool // floating polarity gates
}

// AllFaults enables every class.
func AllFaults() UniverseOptions {
	return UniverseOptions{
		LineStuckAt: true, ChannelBreak: true, StuckOn: true,
		Polarity: true, GOS: true, PGOpen: true,
	}
}

// ClassicalOnly enables only the classical CMOS-style line stuck-at model,
// the baseline the paper argues is insufficient for CP circuits.
func ClassicalOnly() UniverseOptions {
	return UniverseOptions{LineStuckAt: true}
}

// Universe enumerates the fault list of a circuit under the options. The
// list is allocated once, at universeBound, and is nil when empty.
func Universe(c *logic.Circuit, opt UniverseOptions) []Fault {
	n := universeBound(c, opt)
	if n == 0 {
		return nil
	}
	out := make([]Fault, 0, n)
	if opt.LineStuckAt {
		for _, pi := range c.Inputs {
			out = append(out, Fault{Kind: FaultSA0, Net: pi, GateIdx: -1, Pin: -1})
			out = append(out, Fault{Kind: FaultSA1, Net: pi, GateIdx: -1, Pin: -1})
		}
		for gi, g := range c.Gates {
			out = append(out, Fault{Kind: FaultSA0, Net: g.Output, GateIdx: gi, Pin: -1})
			out = append(out, Fault{Kind: FaultSA1, Net: g.Output, GateIdx: gi, Pin: -1})
		}
		// Fanout branches: only where a net feeds more than one gate.
		for _, net := range c.Nets() {
			fo := c.Fanouts(net)
			if len(fo) < 2 {
				continue
			}
			for _, gi := range fo {
				for pin, f := range c.Gates[gi].Fanin {
					if f != net {
						continue
					}
					out = append(out, Fault{Kind: FaultSA0, Net: net, GateIdx: gi, Pin: pin})
					out = append(out, Fault{Kind: FaultSA1, Net: net, GateIdx: gi, Pin: pin})
				}
			}
		}
	}
	for _, g := range c.Gates {
		spec := gates.Get(g.Kind)
		for _, tr := range spec.Transistors {
			add := func(k FaultKind) {
				out = append(out, Fault{Kind: k, Gate: g.Name, Transistor: tr.Name})
			}
			if opt.ChannelBreak {
				add(FaultChannelBreak)
			}
			if opt.StuckOn {
				add(FaultStuckOn)
			}
			if opt.Polarity {
				// In SP gates only the polarity-inverting bridge is a
				// defect: the pull-up PGs already sit at GND (stuck-at
				// p-type is the nominal configuration) and the pull-down
				// PGs at VDD. DP gates are exposed to both (paper V-B).
				if spec.Class == gates.DynamicPolarity {
					add(FaultStuckAtN)
					add(FaultStuckAtP)
				} else if tr.Net == gates.NetPullUp {
					add(FaultStuckAtN)
				} else {
					add(FaultStuckAtP)
				}
			}
			if opt.GOS {
				add(FaultGOSPGS)
				add(FaultGOSCG)
				add(FaultGOSPGD)
			}
			if opt.PGOpen {
				add(FaultPGOpenS)
				add(FaultPGOpenD)
			}
		}
	}
	return out
}

// universeBound is an upper bound on the length of Universe's list, read
// off the gate list: two line faults per primary input, gate output and
// gate pin (a fanout branch is a pin), and per transistor the most kinds
// each enabled option adds (polarity adds one or two).
func universeBound(c *logic.Circuit, opt UniverseOptions) int {
	perTr := 0
	for _, k := range []struct {
		on bool
		n  int
	}{{opt.ChannelBreak, 1}, {opt.StuckOn, 1}, {opt.Polarity, 2}, {opt.GOS, 3}, {opt.PGOpen, 2}} {
		if k.on {
			perTr += k.n
		}
	}
	n := 0
	if opt.LineStuckAt {
		n = 2 * (len(c.Inputs) + len(c.Gates))
	}
	for _, g := range c.Gates {
		if opt.LineStuckAt {
			n += 2 * len(g.Fanin)
		}
		n += perTr * len(gates.Get(g.Kind).Transistors)
	}
	return n
}

// CollapseStuckAt removes stuck-at faults that are equivalent to a
// retained representative through standard gate-equivalence rules:
// for NAND/NOR/INV/BUF, an input stuck at the controlling value is
// equivalent to the output stuck at the corresponding response, and
// single-fanin gate pin faults are equivalent to their stem faults.
// XOR and MAJ gates admit no such structural collapse.
func CollapseStuckAt(c *logic.Circuit, faults []Fault) []Fault {
	drop := map[string]bool{}
	for gi, g := range c.Gates {
		var ctrl logic.V // controlling input value
		var resp logic.V // forced output response
		collapsible := true
		switch g.Kind {
		case gates.NAND2, gates.NAND3:
			ctrl, resp = logic.L0, logic.L1
		case gates.NOR2, gates.NOR3:
			ctrl, resp = logic.L1, logic.L0
		case gates.INV:
			// Input SA0 == output SA1 and vice versa.
			ctrl, resp = logic.L0, logic.L1
		case gates.BUF:
			ctrl, resp = logic.L0, logic.L0
		default:
			collapsible = false
		}
		if !collapsible {
			continue
		}
		_ = resp
		// Drop the input-pin fault at the controlling value on single-
		// fanout fanins: it is equivalent to the output fault which stays.
		for _, f := range g.Fanin {
			if len(c.Fanouts(f)) != 1 {
				continue
			}
			kind := FaultSA0
			if ctrl == logic.L1 {
				kind = FaultSA1
			}
			drop[Fault{Kind: kind, Net: f, GateIdx: driverOf(c, f), Pin: -1}.String()] = true
		}
		_ = gi
	}
	var out []Fault
	for _, f := range faults {
		if drop[f.String()] {
			continue
		}
		out = append(out, f)
	}
	return out
}

func driverOf(c *logic.Circuit, net string) int {
	d, _ := c.Driver(net)
	return d
}
