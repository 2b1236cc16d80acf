// Package atpg implements test generation for controllable-polarity
// circuits: a PODEM engine over the gate library (5-valued reasoning via
// good/faulty pair simulation), stuck-at and polarity-fault test
// generation, IDDQ justification for the leak-only faults, classical
// two-pattern stuck-open test generation for SP gates, and the paper's
// new channel-break detection procedure for DP gates (section V-C).
package atpg

import (
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// Options bounds the search.
type Options struct {
	MaxBacktracks int // per PODEM attempt (default 4096)
	// Engine selects the fault-simulation engine the campaign uses for
	// polarity and channel-break fault dropping: the packed engine by
	// default, or the reference oracle. Line stuck-at dropping always
	// runs packed.
	Engine faultsim.Engine
	// Progress, when set, receives a snapshot after every per-fault
	// generation attempt of GenerateContext. Calls are made from the
	// generating goroutine; the callback must not call back into the
	// campaign.
	Progress ProgressFunc
}

func (o Options) withDefaults() Options {
	if o.MaxBacktracks <= 0 {
		o.MaxBacktracks = 4096
	}
	return o
}

// goal is one (net, value) justification requirement evaluated on the
// good circuit.
type goal struct {
	net string
	val logic.V
}

// podem is one search instance.
type podem struct {
	c         *logic.Circuit
	opt       Options
	hooks     logic.TernaryHooks
	goals     []goal
	propagate bool // require a PO difference (false: justification only)
	faultGate int  // gate index whose evaluation embeds the fault (-1: none)

	assign     map[string]logic.V
	decisions  []decision
	backtracks int
}

type decision struct {
	pi        string
	value     logic.V
	triedBoth bool
}

type implyState struct {
	good   map[string]logic.V
	faulty map[string]logic.V
}

func (p *podem) imply() implyState {
	good := p.c.Eval(p.assign)
	var faulty map[string]logic.V
	if p.propagate {
		faulty = p.c.EvalHooked(p.assign, p.hooks)
	} else {
		faulty = good
	}
	return implyState{good: good, faulty: faulty}
}

// detected reports a definite PO difference.
func (p *podem) detected(st implyState) bool {
	for _, po := range p.c.Outputs {
		g, gok := st.good[po].Bool()
		f, fok := st.faulty[po].Bool()
		if gok && fok && g != f {
			return true
		}
	}
	return false
}

// goalsState classifies the justification goals: satisfied, pending
// (X nets remain), or conflicting.
type goalsState int

const (
	goalsSatisfied goalsState = iota
	goalsPending
	goalsConflict
)

func (p *podem) goalsStatus(st implyState) (goalsState, *goal) {
	pendingSeen := false
	var pending *goal
	for i := range p.goals {
		g := &p.goals[i]
		v := st.good[g.net]
		switch v {
		case g.val:
			continue
		case logic.LX:
			if !pendingSeen {
				pending = g
				pendingSeen = true
			}
		default:
			return goalsConflict, nil
		}
	}
	if pendingSeen {
		return goalsPending, pending
	}
	return goalsSatisfied, nil
}

// frontierObjective picks a propagation objective from the D-frontier:
// a gate with a fault effect on an input whose output is still X, plus an
// X input of that gate to define.
func (p *podem) frontierObjective(st implyState) (goal, bool) {
	for _, gi := range p.c.Levelized() {
		g := &p.c.Gates[gi]
		outG, outF := st.good[g.Output], st.faulty[g.Output]
		if outG != logic.LX && outF != logic.LX {
			continue // output settled in both circuits: masked or propagated
		}
		// The fault-site gate carries the effect by construction: pin
		// forcing and behaviour overrides are invisible on the input nets.
		hasEffect := gi == p.faultGate
		for _, f := range g.Fanin {
			a, aok := st.good[f].Bool()
			b, bok := st.faulty[f].Bool()
			if aok && bok && a != b {
				hasEffect = true
				break
			}
		}
		if !hasEffect {
			continue
		}
		for _, f := range g.Fanin {
			if st.good[f] == logic.LX {
				return goal{net: f, val: nonControlling(g.Kind)}, true
			}
		}
	}
	return goal{}, false
}

// nonControlling returns the side-input value that lets a gate propagate.
func nonControlling(k gates.Kind) logic.V {
	switch k {
	case gates.NAND2, gates.NAND3:
		return logic.L1
	case gates.NOR2, gates.NOR3:
		return logic.L0
	default:
		return logic.L0 // XOR/MAJ: either value can work; search covers both
	}
}

// backtrace walks an objective back to an unassigned primary input.
func (p *podem) backtrace(obj goal, st implyState) (string, logic.V, bool) {
	net, val := obj.net, obj.val
	for depth := 0; depth < len(p.c.Gates)+len(p.c.Inputs)+1; depth++ {
		d, ok := p.c.Driver(net)
		if !ok {
			return "", logic.LX, false
		}
		if d < 0 { // primary input
			if _, assigned := p.assign[net]; assigned {
				return "", logic.LX, false
			}
			return net, val, true
		}
		g := &p.c.Gates[d]
		next := ""
		for _, f := range g.Fanin {
			if st.good[f] == logic.LX {
				next = f
				break
			}
		}
		if next == "" {
			return "", logic.LX, false
		}
		if inverting(g.Kind) {
			val = val.Not()
		}
		net = next
	}
	return "", logic.LX, false
}

func inverting(k gates.Kind) bool {
	switch k {
	case gates.INV, gates.NAND2, gates.NAND3, gates.NOR2, gates.NOR3:
		return true
	}
	return false
}

// run searches for an assignment meeting the goals (and the propagation
// requirement when set). Returns the PI pattern or ok=false.
func (p *podem) run() (faultsim.Pattern, bool) {
	if p.assign == nil {
		p.assign = map[string]logic.V{}
	}
	for {
		st := p.imply()
		// A definite PO difference between the good and faulty ternary
		// simulations is sound regardless of remaining X nets.
		if p.propagate && p.detected(st) {
			return p.extractPattern(), true
		}
		gs, pendingGoal := p.goalsStatus(st)
		if !p.propagate && gs == goalsSatisfied {
			return p.extractPattern(), true
		}
		dead := gs == goalsConflict

		if !dead {
			var obj goal
			var haveObj bool
			if gs == goalsPending {
				obj, haveObj = *pendingGoal, true
			} else if p.propagate {
				obj, haveObj = p.frontierObjective(st)
			}
			if !haveObj {
				dead = true
			} else {
				pi, val, ok := p.backtrace(obj, st)
				if !ok {
					dead = true
				} else {
					p.decisions = append(p.decisions, decision{pi: pi, value: val})
					p.assign[pi] = val
					continue
				}
			}
		}

		// Backtrack.
		for {
			if len(p.decisions) == 0 {
				return nil, false
			}
			p.backtracks++
			if p.backtracks > p.opt.MaxBacktracks {
				return nil, false
			}
			last := &p.decisions[len(p.decisions)-1]
			if !last.triedBoth {
				last.triedBoth = true
				last.value = last.value.Not()
				p.assign[last.pi] = last.value
				break
			}
			delete(p.assign, last.pi)
			p.decisions = p.decisions[:len(p.decisions)-1]
		}
	}
}

// extractPattern freezes the current assignment into a full pattern
// (unassigned inputs default to 0 for determinism).
func (p *podem) extractPattern() faultsim.Pattern {
	out := faultsim.Pattern{}
	for _, pi := range p.c.Inputs {
		if v, ok := p.assign[pi]; ok && v != logic.LX {
			out[pi] = v
		} else {
			out[pi] = logic.L0
		}
	}
	return out
}

// lineFaultHooks builds the faulty-circuit hooks for a stuck-at fault.
func lineFaultHooks(f core.Fault) logic.TernaryHooks {
	force := logic.L0
	if f.Kind == core.FaultSA1 {
		force = logic.L1
	}
	if f.Pin >= 0 {
		return logic.TernaryHooks{Pin: func(gi, pin int, v logic.V) logic.V {
			if gi == f.GateIdx && pin == f.Pin {
				return force
			}
			return v
		}}
	}
	return logic.TernaryHooks{Stem: func(net string, v logic.V) logic.V {
		if net == f.Net {
			return force
		}
		return v
	}}
}

// GenerateStuckAt runs PODEM for one line stuck-at fault. The returned
// pattern is guaranteed (by construction) to produce a PO difference.
func GenerateStuckAt(c *logic.Circuit, f core.Fault, opt Options) (faultsim.Pattern, bool) {
	if !f.Kind.IsLineFault() {
		return nil, false
	}
	activation := logic.L1
	if f.Kind == core.FaultSA1 {
		activation = logic.L0
	}
	p := &podem{
		c:         c,
		opt:       opt.withDefaults(),
		hooks:     lineFaultHooks(f),
		goals:     []goal{{net: f.Net, val: activation}},
		propagate: true,
		faultGate: -1,
	}
	if f.Pin >= 0 {
		p.faultGate = f.GateIdx
	}
	return p.run()
}

// Justify finds a PI pattern that sets the given nets to the given values
// in the fault-free circuit (used for IDDQ test generation, where
// observation is global and only the excitation needs justification).
func Justify(c *logic.Circuit, goals map[string]logic.V, opt Options) (faultsim.Pattern, bool) {
	p := &podem{c: c, opt: opt.withDefaults(), propagate: false, faultGate: -1}
	for net, val := range goals {
		p.goals = append(p.goals, goal{net: net, val: val})
	}
	return p.run()
}
