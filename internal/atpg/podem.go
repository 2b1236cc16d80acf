// Package atpg implements test generation for controllable-polarity
// circuits: a PODEM engine over the gate library (5-valued reasoning via
// good/faulty pair simulation), stuck-at and polarity-fault test
// generation, IDDQ justification for the leak-only faults, classical
// two-pattern stuck-open test generation for SP gates, and the paper's
// new channel-break detection procedure for DP gates (section V-C).
//
// PODEM implies on the dense logic.CompiledCircuit the fault engines
// share: net ids index reused good/faulty value slices, every gate
// evaluates through its per-kind ternary LUT, and the fault is data —
// a forced stem net, a forced gate pin, or a faulty-gate LUT taken from
// faultsim's cached behaviour tables. Implication is event-driven
// (selective trace): a decision or backtrack changes one primary input,
// and settle re-evaluates, in levelized order, only the gates whose
// inputs changed, in the good and faulty circuits at once. The
// map-based Circuit.Eval / EvalHooked implication it replaced stays in
// podem_oracle_test.go as the differential oracle, and the full
// levelized passes in imply_test.go as the reference state.
package atpg

import (
	"math/bits"
	"sort"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// Options bounds the search.
type Options struct {
	MaxBacktracks int // per PODEM attempt (default 4096)
	// Engine selects how the campaign's polarity and channel-break drop
	// sets (faultsim.DropSet) answer: packed lane blocks by default, or
	// the reference oracle, called with the one fault and the whole
	// vector list. Either way each fault is checked once, when the
	// campaign loop reaches it. Line stuck-at dropping always runs
	// packed.
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
// good circuit; net is a dense net id.
type goal struct {
	net int
	val logic.V
}

type decision struct {
	pi        int // net id of the primary input
	value     logic.V
	triedBoth bool
}

// faultSpec is the fault of one PODEM attempt, as data.
type faultSpec struct {
	propagate bool // require a PO difference (false: justification only)
	// effectGate carries the fault effect by construction (pin forcing
	// and behaviour overrides are invisible on the input nets), -1 none.
	effectGate int
	// site is the gate the faulty pass evaluates specially, -1 none: it
	// reads force on fanin pin (pin >= 0), evaluates lut (lut != nil),
	// or else drives force (a stem fault on its output net).
	site   int
	pin    int
	lut    logic.GateLUT
	stemPI int // primary-input net forced to force in the faulty circuit, -1 none
	force  logic.V
}

// noFault is the justification-only attempt.
var noFault = faultSpec{effectGate: -1, site: -1, pin: -1, stemPI: -1}

// Net driver markers beyond gate indices.
const (
	drivenByInput = -1 // primary input
	unknownNet    = -2 // the slot standing in for names the circuit lacks
)

// generator runs PODEM attempts over one circuit's compiled IR. One
// generator serves a whole campaign: every attempt reuses its value,
// assignment, goal and decision slices.
type generator struct {
	cc  *logic.CompiledCircuit
	sim *faultsim.Simulator
	opt Options

	driver []int // net id -> driving gate, drivenByInput or unknownNet

	// good and faulty hold one value per net id plus a last slot that
	// no gate writes: a goal on a net name the circuit lacks reads its
	// 0, so it holds for value 0 and conflicts for 1. base is the good
	// state with every input X, where each attempt starts.
	good, faulty, base []logic.V
	assign             []logic.V // net id -> decided primary-input value, X if unassigned
	decisions          []decision
	goals              []goal
	flt                faultSpec
	stale              logic.GateLUT // scratch: a faulty table with one patched entry

	// Event-driven implication: changed lists the inputs set since the
	// last settle; queue and cone are bitsets over cc.Pos, the gates
	// settle still has to evaluate and the attempt's fault cone (every
	// gate a fault effect can reach, the only D-frontier candidates).
	changed     []int
	queue, cone []uint64
	stack       []int // cone DFS scratch

	// Work counters over every attempt: implications counts imply
	// calls, backtracks the decisions undone, visits the gates settle
	// evaluated (good and faulty together count once).
	implications, backtracks, visits int
}

// newGenerator builds a generator over the simulator's compiled circuit
// and gate-name index.
func newGenerator(sim *faultsim.Simulator, opt Options) *generator {
	cc := sim.Compiled()
	n := cc.NumNets()
	words := (len(cc.Order) + 63) / 64
	g := &generator{
		cc:     cc,
		sim:    sim,
		opt:    opt.withDefaults(),
		driver: make([]int, n+1),
		good:   make([]logic.V, n+1),
		faulty: make([]logic.V, n+1),
		base:   make([]logic.V, n+1),
		assign: make([]logic.V, n),
		queue:  make([]uint64, words),
		cone:   make([]uint64, words),
	}
	for i := range g.driver {
		g.driver[i] = drivenByInput
	}
	for gi, on := range cc.GateOut {
		g.driver[on] = gi
	}
	g.driver[n] = unknownNet
	cc.EvalInto(nil, g.base)
	return g
}

// netID maps a net name to its id, or to the unknown-net slot.
func (g *generator) netID(name string) int {
	if id, ok := g.cc.NetID[name]; ok {
		return id
	}
	return g.cc.NumNets()
}

// begin resets the search state for a new attempt under g.flt: no
// input assigned, good at base, and for a propagating attempt faulty at
// base with the fault applied (the stem input forced, or the site gate
// queued) for the first imply to settle.
func (g *generator) begin() {
	for _, id := range g.cc.InputID {
		g.assign[id] = logic.LX
	}
	g.changed = g.changed[:0]
	copy(g.good, g.base)
	if !g.flt.propagate {
		return
	}
	f := &g.flt
	copy(g.faulty, g.base)
	clear(g.cone)
	switch {
	case f.stemPI >= 0:
		g.faulty[f.stemPI] = f.force
		g.queueFanouts(f.stemPI)
		g.markCone(f.stemPI)
	case f.site >= 0:
		g.addGate(g.queue, f.site)
		g.markCone(g.cc.GateOut[f.site])
	}
	if f.effectGate >= 0 && f.effectGate < len(g.cc.Pos) {
		g.addGate(g.cone, f.effectGate)
	}
}

// setInput is the one way an input's assignment changes: the next
// settle propagates it.
func (g *generator) setInput(pi int, v logic.V) {
	g.assign[pi] = v
	g.changed = append(g.changed, pi)
}

// imply brings the good circuit, and the faulty one when the attempt
// propagates, up to date with the current assignment.
func (g *generator) imply() {
	g.implications++
	g.settle()
}

// settle writes the inputs set since the last call and re-evaluates,
// in levelized order, every gate with a changed input. A gate's fanouts
// sit at later positions, so one forward scan of the queue settles the
// whole circuit; gates never queued keep values a full pass would
// recompute unchanged.
func (g *generator) settle() {
	cc, good, faulty, f := g.cc, g.good, g.faulty, &g.flt
	for _, pi := range g.changed {
		v := g.assign[pi]
		good[pi] = v
		if f.propagate && pi != f.stemPI {
			faulty[pi] = v
		}
		g.queueFanouts(pi)
	}
	g.changed = g.changed[:0]
	for w := range g.queue {
		for g.queue[w] != 0 {
			b := bits.TrailingZeros64(g.queue[w])
			g.queue[w] &^= 1 << uint(b)
			gi := cc.Order[w<<6|b]
			g.visits++
			on := cc.GateOut[gi]
			v := cc.LUT[gi][cc.GateInputIndex(gi, good)]
			moved := v != good[on]
			good[on] = v
			if f.propagate {
				// Off the site and outside the cone, the faulty inputs
				// are the good ones.
				if gi == f.site || g.cone[w]>>uint(b)&1 == 1 {
					v = g.faultyOut(gi)
				}
				moved = moved || v != faulty[on]
				faulty[on] = v
			}
			if moved {
				g.queueFanouts(on)
			}
		}
	}
}

// faultyOut evaluates gate gi on the faulty values, with the fault
// applied when gi is the site.
func (g *generator) faultyOut(gi int) logic.V {
	cc, faulty, f := g.cc, g.faulty, &g.flt
	switch {
	case gi != f.site:
		return cc.LUT[gi][cc.GateInputIndex(gi, faulty)]
	case f.lut != nil:
		return f.lut[cc.GateInputIndex(gi, faulty)]
	case f.pin >= 0:
		idx := 0
		for k, nid := range cc.Fanin[gi] {
			v := faulty[nid]
			if k == f.pin {
				v = f.force
			}
			idx += int(v) * logic.Pow3(k)
		}
		return cc.LUT[gi][idx]
	default:
		return f.force
	}
}

// addGate sets gate gi's position in a cc.Pos bitset, reporting
// whether it was clear.
func (g *generator) addGate(set []uint64, gi int) bool {
	p := g.cc.Pos[gi]
	w, bit := p>>6, uint64(1)<<uint(p&63)
	if set[w]&bit != 0 {
		return false
	}
	set[w] |= bit
	return true
}

// queueFanouts queues every gate reading net.
func (g *generator) queueFanouts(net int) {
	for _, gi := range g.cc.Fanouts[net] {
		g.addGate(g.queue, gi)
	}
}

// markCone adds every gate downstream of net to the cone.
func (g *generator) markCone(net int) {
	cc := g.cc
	g.stack = append(g.stack[:0], cc.Fanouts[net]...)
	for len(g.stack) > 0 {
		gi := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		if g.addGate(g.cone, gi) {
			g.stack = append(g.stack, cc.Fanouts[cc.GateOut[gi]]...)
		}
	}
}

// differs reports a definite good/faulty difference on a net.
func (g *generator) differs(net int) bool {
	a, b := g.good[net], g.faulty[net]
	return a != logic.LX && b != logic.LX && a != b
}

// detected reports a definite PO difference.
func (g *generator) detected() bool {
	for _, po := range g.cc.OutputID {
		if g.differs(po) {
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

// goalsStatus classifies the goals and returns the first pending one.
func (g *generator) goalsStatus() (goalsState, goal) {
	pending := -1
	for i, gl := range g.goals {
		switch g.good[gl.net] {
		case gl.val:
			continue
		case logic.LX:
			if pending < 0 {
				pending = i
			}
		default:
			return goalsConflict, goal{}
		}
	}
	if pending >= 0 {
		return goalsPending, g.goals[pending]
	}
	return goalsSatisfied, goal{}
}

// frontierObjective picks a propagation objective from the D-frontier:
// the first gate in levelized order with a fault effect on an input
// whose output is still X, plus that gate's first X input to define.
// Only the fault cone can hold a definite difference, so only its gates
// are scanned.
func (g *generator) frontierObjective() (goal, bool) {
	cc := g.cc
	for w, word := range g.cone {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			gi := cc.Order[w<<6|b]
			on := cc.GateOut[gi]
			if g.good[on] != logic.LX && g.faulty[on] != logic.LX {
				continue // output settled in both circuits: masked or propagated
			}
			fin := cc.Fanin[gi]
			hasEffect := gi == g.flt.effectGate
			for k := 0; !hasEffect && k < len(fin); k++ {
				hasEffect = g.differs(fin[k])
			}
			if !hasEffect {
				continue
			}
			for _, f := range fin {
				if g.good[f] == logic.LX {
					return goal{net: f, val: nonControlling(cc.Kinds[gi])}, true
				}
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

// backtrace walks an objective back to an unassigned primary input
// through each gate's first X fanin.
func (g *generator) backtrace(obj goal) (int, logic.V, bool) {
	net, val := obj.net, obj.val
	for depth := 0; depth < len(g.cc.Order)+len(g.cc.InputID)+1; depth++ {
		d := g.driver[net]
		switch d {
		case unknownNet:
			return 0, logic.LX, false
		case drivenByInput:
			if g.assign[net] != logic.LX {
				return 0, logic.LX, false
			}
			return net, val, true
		}
		next := -1
		for _, f := range g.cc.Fanin[d] {
			if g.good[f] == logic.LX {
				next = f
				break
			}
		}
		if next < 0 {
			return 0, logic.LX, false
		}
		if inverting(g.cc.Kinds[d]) {
			val = val.Not()
		}
		net = next
	}
	return 0, logic.LX, false
}

func inverting(k gates.Kind) bool {
	switch k {
	case gates.INV, gates.NAND2, gates.NAND3, gates.NOR2, gates.NOR3:
		return true
	}
	return false
}

// run searches for an assignment meeting g.goals under fault g.flt (and
// the propagation requirement when set), starting from no assignment.
// Returns the PI vector or ok=false.
func (g *generator) run() ([]logic.V, bool) {
	g.begin()
	g.decisions = g.decisions[:0]
	backtracks := 0
	defer func() { g.backtracks += backtracks }()
	for {
		g.imply()
		// A definite PO difference between the good and faulty ternary
		// simulations is sound regardless of remaining X nets.
		if g.flt.propagate && g.detected() {
			return g.extractPattern(), true
		}
		gs, pending := g.goalsStatus()
		if !g.flt.propagate && gs == goalsSatisfied {
			return g.extractPattern(), true
		}
		dead := gs == goalsConflict

		if !dead {
			obj, haveObj := pending, gs == goalsPending
			if !haveObj && g.flt.propagate {
				obj, haveObj = g.frontierObjective()
			}
			if !haveObj {
				dead = true
			} else if pi, val, ok := g.backtrace(obj); !ok {
				dead = true
			} else {
				g.decisions = append(g.decisions, decision{pi: pi, value: val})
				g.setInput(pi, val)
				continue
			}
		}

		// Backtrack.
		for {
			if len(g.decisions) == 0 {
				return nil, false
			}
			backtracks++
			if backtracks > g.opt.MaxBacktracks {
				return nil, false
			}
			last := &g.decisions[len(g.decisions)-1]
			if !last.triedBoth {
				last.triedBoth = true
				last.value = last.value.Not()
				g.setInput(last.pi, last.value)
				break
			}
			g.setInput(last.pi, logic.LX)
			g.decisions = g.decisions[:len(g.decisions)-1]
		}
	}
}

// extractPattern freezes the current assignment into a full vector, one
// value per primary input by input index (unassigned inputs default to
// 0 for determinism).
func (g *generator) extractPattern() []logic.V {
	vec := make([]logic.V, len(g.cc.InputID))
	for i, id := range g.cc.InputID {
		if v := g.assign[id]; v != logic.LX {
			vec[i] = v
		}
	}
	return vec
}

// patternOf renders a vector (one value per primary input, in C.Inputs
// order) as the Pattern map of the edges; no vector renders as nil.
func patternOf(c *logic.Circuit, vec []logic.V) faultsim.Pattern {
	if vec == nil {
		return nil
	}
	p := make(faultsim.Pattern, len(vec))
	for i, v := range vec {
		p[c.Inputs[i]] = v
	}
	return p
}

// stuckAt runs PODEM for one line stuck-at fault.
func (g *generator) stuckAt(f core.Fault) ([]logic.V, bool) {
	if !f.Kind.IsLineFault() {
		return nil, false
	}
	activation, force := logic.L1, logic.L0
	if f.Kind == core.FaultSA1 {
		activation, force = logic.L0, logic.L1
	}
	g.goals = append(g.goals[:0], goal{net: g.netID(f.Net), val: activation})
	g.flt = noFault
	g.flt.propagate, g.flt.force = true, force
	if f.Pin >= 0 {
		g.flt.effectGate = f.GateIdx
		if f.GateIdx >= 0 && f.GateIdx < len(g.cc.Fanin) {
			g.flt.site, g.flt.pin = f.GateIdx, f.Pin
		}
	} else if id, ok := g.cc.NetID[f.Net]; ok {
		if d := g.driver[id]; d == drivenByInput {
			g.flt.stemPI = id
		} else {
			g.flt.site = d
		}
	}
	return g.run()
}

// justify runs a justification-only attempt on goals, in net-name order.
func (g *generator) justify(goals map[string]logic.V) ([]logic.V, bool) {
	nets := make([]string, 0, len(goals))
	for net := range goals {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	g.goals = g.goals[:0]
	for _, net := range nets {
		g.goals = append(g.goals, goal{net: g.netID(net), val: goals[net]})
	}
	g.flt = noFault
	return g.run()
}

// GenerateStuckAt runs PODEM for one line stuck-at fault. The returned
// pattern is guaranteed (by construction) to produce a PO difference.
func GenerateStuckAt(c *logic.Circuit, f core.Fault, opt Options) (faultsim.Pattern, bool) {
	vec, ok := newGenerator(faultsim.New(c), opt).stuckAt(f)
	return patternOf(c, vec), ok
}

// Justify finds a PI pattern that sets the given nets to the given values
// in the fault-free circuit (used for IDDQ test generation, where
// observation is global and only the excitation needs justification).
// Goals are pursued in net-name order, so the result is deterministic.
func Justify(c *logic.Circuit, goals map[string]logic.V, opt Options) (faultsim.Pattern, bool) {
	vec, ok := newGenerator(faultsim.New(c), opt).justify(goals)
	return patternOf(c, vec), ok
}
