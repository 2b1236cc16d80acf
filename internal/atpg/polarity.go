package atpg

import (
	"fmt"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// setVectorGoals makes a local input vector of gate gi the goals: one
// per fanin net.
func (g *generator) setVectorGoals(gi, vec int) {
	g.goals = g.goals[:0]
	for i, f := range g.cc.Fanin[gi] {
		g.goals = append(g.goals, goal{net: f, val: logic.FromBool(vec>>uint(i)&1 == 1)})
	}
}

// justifyVector runs a justification-only attempt on a local vector of
// gate gi.
func (g *generator) justifyVector(gi, vec int) ([]logic.V, bool) {
	g.setVectorGoals(gi, vec)
	g.flt = noFault
	return g.run()
}

// propagateVector justifies a local vector of gate gi and propagates
// the effect of gi evaluating lut.
func (g *generator) propagateVector(gi, vec int, lut logic.GateLUT) ([]logic.V, bool) {
	g.setVectorGoals(gi, vec)
	g.flt = noFault
	g.flt.propagate, g.flt.effectGate, g.flt.site, g.flt.lut = true, gi, gi, lut
	return g.run()
}

// PolarityTest is a generated test for a stuck-at n/p-type fault. Its
// vector, like every vector of a TestSet, holds one value per primary
// input, in C.Inputs order.
type PolarityTest struct {
	Fault   core.Fault
	Pattern []logic.V
	Method  faultsim.DetectMethod // output or iddq
}

// GeneratePolarity generates a test for a stuck-at n-type / p-type fault:
// first it tries voltage observation (flip propagated to a PO); if the
// fault only manifests as a rail-to-rail leak (the paper's pull-up case),
// it generates an IDDQ excitation instead.
func GeneratePolarity(c *logic.Circuit, f core.Fault, opt Options) (PolarityTest, bool) {
	return newGenerator(faultsim.New(c), opt).polarity(f)
}

func (g *generator) polarity(f core.Fault) (PolarityTest, bool) {
	if !f.Kind.IsPolarityFault() {
		return PolarityTest{}, false
	}
	tf, _ := f.Kind.TFault()
	gi, ok := g.sim.GateIndex(f.Gate)
	if !ok {
		return PolarityTest{}, false
	}
	kind := g.cc.Kinds[gi]
	beh, err := core.GateBehavior(kind, f.Transistor, tf)
	if err != nil {
		return PolarityTest{}, false
	}
	lut, err := faultsim.FaultLUT(kind, f.Transistor, tf)
	if err != nil {
		return PolarityTest{}, false
	}

	// Voltage-observable attempt: justify a flipping local vector and
	// propagate the flip.
	for _, vec := range beh.OutputDetecting() {
		if pat, ok := g.propagateVector(gi, vec, lut); ok {
			return PolarityTest{Fault: f, Pattern: pat, Method: faultsim.ByOutput}, true
		}
	}
	// IDDQ attempt: justification is enough, the current measurement is
	// globally observable.
	for _, vec := range beh.LeakDetecting() {
		if pat, ok := g.justifyVector(gi, vec); ok {
			return PolarityTest{Fault: f, Pattern: pat, Method: faultsim.ByIDDQ}, true
		}
	}
	return PolarityTest{}, false
}

// TwoPatternTest is a generated stuck-open test: an initialisation
// pattern followed by a test pattern.
type TwoPatternTest struct {
	Fault core.Fault
	Init  []logic.V
	Test  []logic.V
}

// GenerateTwoPattern generates the classical two-pattern stuck-open test
// for a channel break in an SP gate: the test pattern exposes the
// floating output (justified + propagated assuming the retained value is
// the complement), and the initialisation pattern forces that complement
// beforehand.
func GenerateTwoPattern(c *logic.Circuit, f core.Fault, opt Options) (TwoPatternTest, bool) {
	return newGenerator(faultsim.New(c), opt).twoPattern(f)
}

func (g *generator) twoPattern(f core.Fault) (TwoPatternTest, bool) {
	if f.Kind != core.FaultChannelBreak {
		return TwoPatternTest{}, false
	}
	gi, ok := g.sim.GateIndex(f.Gate)
	if !ok {
		return TwoPatternTest{}, false
	}
	kind := g.cc.Kinds[gi]
	beh, err := core.GateBehavior(kind, f.Transistor, logic.TFaultOpen)
	if err != nil {
		return TwoPatternTest{}, false
	}
	open, err := faultsim.FaultLUT(kind, f.Transistor, logic.TFaultOpen)
	if err != nil {
		return TwoPatternTest{}, false
	}

	for _, v2 := range beh.FloatingVectors() {
		stale := core.GoodOut(kind, v2).Not()
		// Faulty circuit under the test pattern: the output holds the
		// stale value at v2 (its one fully-defined table entry), and
		// follows the open-transistor table elsewhere.
		g.stale = append(g.stale[:0], open...)
		g.stale[binaryIndex(v2, len(g.cc.Fanin[gi]))] = stale
		testPat, ok := g.propagateVector(gi, v2, g.stale)
		if !ok {
			continue
		}
		// Initialisation: any vector where the FAULTY gate still drives
		// the stale value.
		for v1, row := range beh.Rows {
			if row.Floating || row.Out != stale {
				continue
			}
			if initPat, ok := g.justifyVector(gi, v1); ok {
				return TwoPatternTest{Fault: f, Init: initPat, Test: testPat}, true
			}
		}
	}
	return TwoPatternTest{}, false
}

// binaryIndex is the ternary LUT index of an n-input binary vector
// (input i in bit i).
func binaryIndex(vec, n int) int {
	idx := 0
	for i := 0; i < n; i++ {
		idx += (vec >> uint(i) & 1) * logic.Pow3(i)
	}
	return idx
}

// ChannelBreakPlan is the paper's new test procedure for channel breaks
// in DP gates (section V-C): deliberately complement the polarity of the
// device under test (inject stuck-at n/p-type through the accessible
// polarity terminals), apply the corresponding detection vector, and
// observe. A healthy device makes the injected polarity fault manifest
// (flipped output or large IDDQ); a broken device masks it — a
// fault-free-looking response reveals the channel break.
type ChannelBreakPlan struct {
	Fault     core.Fault            // the targeted channel break
	Injection logic.TFault          // deliberate polarity complement
	Pattern   []logic.V             // PI vector to apply, in C.Inputs order
	Observe   faultsim.DetectMethod // output or iddq observation
	// HealthyFlips is set for output observation: the PO set where a
	// healthy device shows a flipped value.
	HealthyFlips []string
}

// GenerateChannelBreakDP builds the paper's channel-break test for a
// transistor inside a DP gate. It tries both polarity injections and both
// observation styles.
func GenerateChannelBreakDP(c *logic.Circuit, f core.Fault, opt Options) (ChannelBreakPlan, bool) {
	return newGenerator(faultsim.New(c), opt).channelBreakDP(f)
}

func (g *generator) channelBreakDP(f core.Fault) (ChannelBreakPlan, bool) {
	if f.Kind != core.FaultChannelBreak {
		return ChannelBreakPlan{}, false
	}
	gi, ok := g.sim.GateIndex(f.Gate)
	if !ok {
		return ChannelBreakPlan{}, false
	}
	kind := g.cc.Kinds[gi]
	if gates.Get(kind).Class != gates.DynamicPolarity {
		return ChannelBreakPlan{}, false
	}
	for _, inj := range []logic.TFault{logic.TFaultStuckAtN, logic.TFaultStuckAtP} {
		beh, err := core.GateBehavior(kind, f.Transistor, inj)
		if err != nil {
			continue
		}
		lut, err := faultsim.FaultLUT(kind, f.Transistor, inj)
		if err != nil {
			continue
		}
		// Output observation first: the injected flip must propagate.
		for _, vec := range beh.OutputDetecting() {
			pat, ok := g.propagateVector(gi, vec, lut)
			if !ok {
				continue
			}
			return ChannelBreakPlan{
				Fault:        f,
				Injection:    inj,
				Pattern:      pat,
				Observe:      faultsim.ByOutput,
				HealthyFlips: g.flippedOutputs(),
			}, true
		}
		// IDDQ observation: justify a leak vector.
		for _, vec := range beh.LeakDetecting() {
			if pat, ok := g.justifyVector(gi, vec); ok {
				return ChannelBreakPlan{
					Fault:     f,
					Injection: inj,
					Pattern:   pat,
					Observe:   faultsim.ByIDDQ,
				}, true
			}
		}
	}
	return ChannelBreakPlan{}, false
}

// flippedOutputs re-simulates the pattern the last successful attempt
// extracted (its unassigned inputs at 0) and lists the POs where the
// faulty circuit definitely differs from the good one.
func (g *generator) flippedOutputs() []string {
	for _, id := range g.cc.InputID {
		if g.assign[id] == logic.LX {
			g.setInput(id, logic.L0)
		}
	}
	g.settle()
	var out []string
	for i, po := range g.cc.OutputID {
		if g.differs(po) {
			out = append(out, g.cc.C.Outputs[i])
		}
	}
	return out
}

// VerifyChannelBreakPlan simulates the plan against both device states
// and reports whether the verdict separates them: with a healthy device
// the injected polarity fault manifests (flip or leak); with a broken
// device the response is fault-free (the break masks the injection).
func VerifyChannelBreakPlan(c *logic.Circuit, plan ChannelBreakPlan) (healthySignature, brokenSignature bool, err error) {
	gi, ok := faultsim.New(c).GateIndex(plan.Fault.Gate)
	if !ok {
		return false, false, fmt.Errorf("atpg: unknown gate %q", plan.Fault.Gate)
	}
	kind := c.Gates[gi].Kind
	spec := gates.Get(kind)
	pat := patternOf(c, plan.Pattern)

	signature := func(faults map[string]logic.TFault) (bool, error) {
		leak := false
		hooks := logic.TernaryHooks{Gate: func(idx int, in []logic.V) (logic.V, bool) {
			if idx != gi {
				return logic.LX, false
			}
			res := logic.EvalSwitch(spec, in, faults, nil)
			if res.Leak {
				leak = true
			}
			return res.Out, true
		}}
		faulty := c.EvalHooked(pat, hooks)
		if plan.Observe == faultsim.ByIDDQ {
			return leak, nil
		}
		good := c.Eval(pat)
		for _, po := range c.Outputs {
			g, gok := good[po].Bool()
			f, fok := faulty[po].Bool()
			if gok && fok && g != f {
				return true, nil
			}
		}
		return false, nil
	}

	healthy, err := signature(map[string]logic.TFault{plan.Fault.Transistor: plan.Injection})
	if err != nil {
		return false, false, err
	}
	// A broken device ignores the polarity injection entirely: the
	// channel break dominates (the device conducts nothing).
	broken, err := signature(map[string]logic.TFault{plan.Fault.Transistor: logic.TFaultOpen})
	if err != nil {
		return false, false, err
	}
	return healthy, broken, nil
}
