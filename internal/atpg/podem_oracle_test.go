package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// This file keeps the map-based PODEM the dense generator replaced: it
// implies with two whole-circuit Circuit.Eval / EvalHooked passes over
// named nets per decision and injects each fault through TernaryHooks
// closures. It is the oracle the dense generator must match decision
// for decision: same patterns, same verdicts, same implication and
// backtrack counts.

// oracleWork counts the search work of oracle calls: one implication is
// one good pass (plus one faulty pass when the attempt propagates).
type oracleWork struct {
	implications, backtracks int
}

type oracleGoal struct {
	net string
	val logic.V
}

type oracleDecision struct {
	pi        string
	value     logic.V
	triedBoth bool
}

type oraclePodem struct {
	c         *logic.Circuit
	opt       Options
	hooks     logic.TernaryHooks
	goals     []oracleGoal
	propagate bool
	faultGate int
	work      *oracleWork

	assign     map[string]logic.V
	decisions  []oracleDecision
	backtracks int
}

type oracleState struct {
	good, faulty map[string]logic.V
}

func (p *oraclePodem) imply() oracleState {
	p.work.implications++
	good := p.c.Eval(p.assign)
	faulty := good
	if p.propagate {
		faulty = p.c.EvalHooked(p.assign, p.hooks)
	}
	return oracleState{good: good, faulty: faulty}
}

func (p *oraclePodem) detected(st oracleState) bool {
	for _, po := range p.c.Outputs {
		g, gok := st.good[po].Bool()
		f, fok := st.faulty[po].Bool()
		if gok && fok && g != f {
			return true
		}
	}
	return false
}

func (p *oraclePodem) goalsStatus(st oracleState) (goalsState, *oracleGoal) {
	var pending *oracleGoal
	for i := range p.goals {
		g := &p.goals[i]
		switch st.good[g.net] {
		case g.val:
			continue
		case logic.LX:
			if pending == nil {
				pending = g
			}
		default:
			return goalsConflict, nil
		}
	}
	if pending != nil {
		return goalsPending, pending
	}
	return goalsSatisfied, nil
}

func (p *oraclePodem) frontierObjective(st oracleState) (oracleGoal, bool) {
	for _, gi := range p.c.Levelized() {
		g := &p.c.Gates[gi]
		if st.good[g.Output] != logic.LX && st.faulty[g.Output] != logic.LX {
			continue
		}
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
				return oracleGoal{net: f, val: nonControlling(g.Kind)}, true
			}
		}
	}
	return oracleGoal{}, false
}

func (p *oraclePodem) backtrace(obj oracleGoal, st oracleState) (string, logic.V, bool) {
	net, val := obj.net, obj.val
	for depth := 0; depth < len(p.c.Gates)+len(p.c.Inputs)+1; depth++ {
		d, ok := p.c.Driver(net)
		if !ok {
			return "", logic.LX, false
		}
		if d < 0 {
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

func (p *oraclePodem) run() (faultsim.Pattern, bool) {
	defer func() { p.work.backtracks += p.backtracks }()
	p.assign = map[string]logic.V{}
	for {
		st := p.imply()
		if p.propagate && p.detected(st) {
			return p.extractPattern(), true
		}
		gs, pendingGoal := p.goalsStatus(st)
		if !p.propagate && gs == goalsSatisfied {
			return p.extractPattern(), true
		}
		dead := gs == goalsConflict
		if !dead {
			var obj oracleGoal
			var haveObj bool
			if gs == goalsPending {
				obj, haveObj = *pendingGoal, true
			} else if p.propagate {
				obj, haveObj = p.frontierObjective(st)
			}
			if !haveObj {
				dead = true
			} else if pi, val, ok := p.backtrace(obj, st); !ok {
				dead = true
			} else {
				p.decisions = append(p.decisions, oracleDecision{pi: pi, value: val})
				p.assign[pi] = val
				continue
			}
		}
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

func (p *oraclePodem) extractPattern() faultsim.Pattern {
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

func oracleGateIndex(c *logic.Circuit, name string) (int, bool) {
	for i, g := range c.Gates {
		if g.Name == name {
			return i, true
		}
	}
	return 0, false
}

func oracleLineHooks(f core.Fault) logic.TernaryHooks {
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

// oracleBehaviorHooks overrides gate gi with a behaviour table; when
// stale is defined, local vector v2 drives stale instead of its row
// (the two-pattern test's retained value).
func oracleBehaviorHooks(gi int, beh *core.Behavior, v2 int, stale logic.V) logic.TernaryHooks {
	return logic.TernaryHooks{Gate: func(idx int, in []logic.V) (logic.V, bool) {
		if idx != gi {
			return logic.LX, false
		}
		vec := 0
		for i, v := range in {
			b, ok := v.Bool()
			if !ok {
				return logic.LX, true
			}
			if b {
				vec |= 1 << uint(i)
			}
		}
		if vec == v2 && stale != logic.LX {
			return stale, true
		}
		row := beh.Rows[vec]
		if row.Floating {
			return logic.LX, true
		}
		return row.Out, true
	}}
}

func oracleVectorGoals(c *logic.Circuit, gi, vec int) []oracleGoal {
	g := &c.Gates[gi]
	goals := make([]oracleGoal, len(g.Fanin))
	for i, f := range g.Fanin {
		goals[i] = oracleGoal{net: f, val: logic.FromBool(vec>>uint(i)&1 == 1)}
	}
	return goals
}

func oracleStuckAt(c *logic.Circuit, f core.Fault, opt Options, w *oracleWork) (faultsim.Pattern, bool) {
	if !f.Kind.IsLineFault() {
		return nil, false
	}
	activation := logic.L1
	if f.Kind == core.FaultSA1 {
		activation = logic.L0
	}
	p := &oraclePodem{c: c, opt: opt.withDefaults(), hooks: oracleLineHooks(f), work: w,
		goals: []oracleGoal{{net: f.Net, val: activation}}, propagate: true, faultGate: -1}
	if f.Pin >= 0 {
		p.faultGate = f.GateIdx
	}
	return p.run()
}

func oracleJustify(c *logic.Circuit, goals map[string]logic.V, opt Options, w *oracleWork) (faultsim.Pattern, bool) {
	p := &oraclePodem{c: c, opt: opt.withDefaults(), faultGate: -1, work: w}
	for net, val := range goals {
		p.goals = append(p.goals, oracleGoal{net: net, val: val})
	}
	sort.Slice(p.goals, func(i, j int) bool { return p.goals[i].net < p.goals[j].net })
	return p.run()
}

func oraclePolarity(c *logic.Circuit, f core.Fault, opt Options, w *oracleWork) (PolarityTest, bool) {
	if !f.Kind.IsPolarityFault() {
		return PolarityTest{}, false
	}
	tf, _ := f.Kind.TFault()
	gi, ok := oracleGateIndex(c, f.Gate)
	if !ok {
		return PolarityTest{}, false
	}
	beh, err := core.GateBehavior(c.Gates[gi].Kind, f.Transistor, tf)
	if err != nil {
		return PolarityTest{}, false
	}
	for _, vec := range beh.OutputDetecting() {
		p := &oraclePodem{c: c, opt: opt.withDefaults(), hooks: oracleBehaviorHooks(gi, beh, -1, logic.LX),
			goals: oracleVectorGoals(c, gi, vec), propagate: true, faultGate: gi, work: w}
		if pat, ok := p.run(); ok {
			return PolarityTest{Fault: f, Pattern: pat, Method: faultsim.ByOutput}, true
		}
	}
	for _, vec := range beh.LeakDetecting() {
		p := &oraclePodem{c: c, opt: opt.withDefaults(), goals: oracleVectorGoals(c, gi, vec), faultGate: -1, work: w}
		if pat, ok := p.run(); ok {
			return PolarityTest{Fault: f, Pattern: pat, Method: faultsim.ByIDDQ}, true
		}
	}
	return PolarityTest{}, false
}

func oracleTwoPattern(c *logic.Circuit, f core.Fault, opt Options, w *oracleWork) (TwoPatternTest, bool) {
	if f.Kind != core.FaultChannelBreak {
		return TwoPatternTest{}, false
	}
	gi, ok := oracleGateIndex(c, f.Gate)
	if !ok {
		return TwoPatternTest{}, false
	}
	kind := c.Gates[gi].Kind
	beh, err := core.GateBehavior(kind, f.Transistor, logic.TFaultOpen)
	if err != nil {
		return TwoPatternTest{}, false
	}
	for _, v2 := range beh.FloatingVectors() {
		stale := core.GoodOut(kind, v2).Not()
		p2 := &oraclePodem{c: c, opt: opt.withDefaults(), hooks: oracleBehaviorHooks(gi, beh, v2, stale),
			goals: oracleVectorGoals(c, gi, v2), propagate: true, faultGate: gi, work: w}
		testPat, ok := p2.run()
		if !ok {
			continue
		}
		for v1, row := range beh.Rows {
			if row.Floating || row.Out != stale {
				continue
			}
			p1 := &oraclePodem{c: c, opt: opt.withDefaults(), goals: oracleVectorGoals(c, gi, v1), faultGate: -1, work: w}
			if initPat, ok := p1.run(); ok {
				return TwoPatternTest{Fault: f, Init: initPat, Test: testPat}, true
			}
		}
	}
	return TwoPatternTest{}, false
}

func oracleChannelBreakDP(c *logic.Circuit, f core.Fault, opt Options, w *oracleWork) (ChannelBreakPlan, bool) {
	if f.Kind != core.FaultChannelBreak {
		return ChannelBreakPlan{}, false
	}
	gi, ok := oracleGateIndex(c, f.Gate)
	if !ok {
		return ChannelBreakPlan{}, false
	}
	kind := c.Gates[gi].Kind
	if gates.Get(kind).Class != gates.DynamicPolarity {
		return ChannelBreakPlan{}, false
	}
	for _, inj := range []logic.TFault{logic.TFaultStuckAtN, logic.TFaultStuckAtP} {
		beh, err := core.GateBehavior(kind, f.Transistor, inj)
		if err != nil {
			continue
		}
		hooks := oracleBehaviorHooks(gi, beh, -1, logic.LX)
		for _, vec := range beh.OutputDetecting() {
			p := &oraclePodem{c: c, opt: opt.withDefaults(), hooks: hooks,
				goals: oracleVectorGoals(c, gi, vec), propagate: true, faultGate: gi, work: w}
			pat, ok := p.run()
			if !ok {
				continue
			}
			plan := ChannelBreakPlan{Fault: f, Injection: inj, Pattern: pat, Observe: faultsim.ByOutput}
			good := c.Eval(pat)
			faulty := c.EvalHooked(pat, hooks)
			for _, po := range c.Outputs {
				g, gok := good[po].Bool()
				fv, fok := faulty[po].Bool()
				if gok && fok && g != fv {
					plan.HealthyFlips = append(plan.HealthyFlips, po)
				}
			}
			return plan, true
		}
		for _, vec := range beh.LeakDetecting() {
			p := &oraclePodem{c: c, opt: opt.withDefaults(), goals: oracleVectorGoals(c, gi, vec), faultGate: -1, work: w}
			if pat, ok := p.run(); ok {
				return ChannelBreakPlan{Fault: f, Injection: inj, Pattern: pat, Observe: faultsim.ByIDDQ}, true
			}
		}
	}
	return ChannelBreakPlan{}, false
}

// oracleGenerate is the campaign loop over the oracle entry points:
// the same classes, fault dropping and accounting as GenerateContext.
func oracleGenerate(c *logic.Circuit, faults []core.Fault, opt Options) *CampaignResult {
	ctx := context.Background()
	res := &CampaignResult{}
	w := &oracleWork{}
	defer func() { res.Implications, res.Backtracks = w.implications, w.backtracks }()
	sim := faultsim.New(c)
	sim.Engine = opt.Engine

	var saFaults []core.Fault
	for _, f := range faults {
		if f.Kind.IsLineFault() {
			saFaults = append(saFaults, f)
		}
	}
	res.StuckAtTargeted = len(saFaults)
	detected := make([]bool, len(saFaults))
	for i, f := range saFaults {
		if detected[i] {
			continue
		}
		pat, ok := oracleStuckAt(c, f, opt, w)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			continue
		}
		res.Set.Patterns = append(res.Set.Patterns, pat)
		ds := sim.RunStuckAt(saFaults, []faultsim.Pattern{pat})
		for j, d := range ds {
			if d.Detected() {
				detected[j] = true
			}
		}
	}
	for _, d := range detected {
		if d {
			res.StuckAtCovered++
		}
	}

	var polFaults []core.Fault
	for _, f := range faults {
		if f.Kind.IsPolarityFault() {
			polFaults = append(polFaults, f)
		}
	}
	res.PolarityTargeted = len(polFaults)
	polDetected := make([]bool, len(polFaults))
	markDetected := func(from int, patterns []faultsim.Pattern) {
		var idxs []int
		var sub []core.Fault
		for i := from; i < len(polFaults); i++ {
			f := polFaults[i]
			gi, ok := oracleGateIndex(c, f.Gate)
			if polDetected[i] || !ok || gates.Get(c.Gates[gi].Kind).Transistor(f.Transistor) == nil {
				continue
			}
			idxs = append(idxs, i)
			sub = append(sub, f)
		}
		if len(sub) == 0 || len(patterns) == 0 {
			return
		}
		ds, err := sim.RunTransistorParallel(ctx, sub, patterns, false, 1)
		if err != nil {
			return
		}
		for j, d := range ds {
			if d.Detected() {
				polDetected[idxs[j]] = true
			}
		}
	}
	markDetected(0, res.Set.Patterns)
	for i, f := range polFaults {
		if polDetected[i] {
			res.PolarityCovered++
			continue
		}
		t, ok := oraclePolarity(c, f, opt, w)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			continue
		}
		res.PolarityCovered++
		if t.Method == faultsim.ByIDDQ {
			res.Set.IDDQPatterns = append(res.Set.IDDQPatterns, t.Pattern)
		} else {
			res.Set.Patterns = append(res.Set.Patterns, t.Pattern)
			markDetected(i+1, res.Set.Patterns[len(res.Set.Patterns)-1:])
		}
	}

	var cbFaults []core.Fault
	for _, f := range faults {
		if f.Kind == core.FaultChannelBreak {
			cbFaults = append(cbFaults, f)
		}
	}
	cbDropped := make([]bool, len(cbFaults))
	markCBDetected := func(from int, pair [2]faultsim.Pattern) {
		var idxs []int
		var sub []core.Fault
		for i := from; i < len(cbFaults); i++ {
			gi, ok := oracleGateIndex(c, cbFaults[i].Gate)
			if cbDropped[i] || !ok || gates.Get(c.Gates[gi].Kind).Class == gates.DynamicPolarity {
				continue
			}
			idxs = append(idxs, i)
			sub = append(sub, cbFaults[i])
		}
		if len(sub) == 0 {
			return
		}
		ds, err := sim.RunTwoPatternContext(ctx, sub, [][2]faultsim.Pattern{pair})
		if err != nil {
			return
		}
		for j, d := range ds {
			if d.Detected() {
				cbDropped[idxs[j]] = true
			}
		}
	}
	for i, f := range cbFaults {
		gi, ok := oracleGateIndex(c, f.Gate)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			continue
		}
		if gates.Get(c.Gates[gi].Kind).Class == gates.DynamicPolarity {
			res.CBDPTargeted++
			plan, ok := oracleChannelBreakDP(c, f, opt, w)
			if !ok {
				res.Untestable = append(res.Untestable, f)
				continue
			}
			res.CBDPCovered++
			res.Set.CBPlans = append(res.Set.CBPlans, plan)
			continue
		}
		res.CBSPTargeted++
		if cbDropped[i] {
			res.CBSPCovered++
			continue
		}
		tp, ok := oracleTwoPattern(c, f, opt, w)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			continue
		}
		res.CBSPCovered++
		res.Set.TwoPattern = append(res.Set.TwoPattern, tp)
		markCBDetected(i+1, [2]faultsim.Pattern{tp.Init, tp.Test})
	}
	return res
}

// oracleCircuits is the differential corpus: the named circuits plus
// twenty small random ones.
func oracleCircuits(t *testing.T) []*logic.Circuit {
	t.Helper()
	var out []*logic.Circuit
	for _, name := range []string{"c17", "mult3", "parity32", "rca32", "alu6", "c432"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 20; i++ {
		out = append(out, bench.Random(rng.Int63(), 3+rng.Intn(5), 6+rng.Intn(20)))
	}
	return out
}

// checkWork compares the dense generator's counters against the
// oracle's for one entry-point call.
func checkWork(t *testing.T, what string, g *generator, w oracleWork) {
	t.Helper()
	if g.implications != w.implications || g.backtracks != w.backtracks {
		t.Errorf("%s: %d implications / %d backtracks, oracle %d / %d",
			what, g.implications, g.backtracks, w.implications, w.backtracks)
	}
}

// TestDensePODEMMatchesOracle runs every fault of every class through
// each exported entry point and through the oracle: the (result, ok)
// pairs must be identical and the one-shot generator must have done
// exactly the oracle's implications and backtracks. The per-fault
// backtrack budget is lowered so faults that exhaust it stay cheap
// while still crossing the budget path.
func TestDensePODEMMatchesOracle(t *testing.T) {
	opt := Options{MaxBacktracks: 64}
	for _, c := range oracleCircuits(t) {
		universe := core.Universe(c, core.AllFaults())
		sim := faultsim.New(c)
		for _, f := range universe {
			var w oracleWork
			g := newGenerator(sim, opt)
			switch {
			case f.Kind.IsLineFault():
				want, wantOK := oracleStuckAt(c, f, opt, &w)
				got, ok := g.stuckAt(f)
				pub, pubOK := GenerateStuckAt(c, f, opt)
				if ok != wantOK || pubOK != wantOK || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(pub, want) {
					t.Errorf("%s %v: stuck-at (%v, %v), exported (%v, %v), oracle (%v, %v)", c.Name, f, got, ok, pub, pubOK, want, wantOK)
				}
				checkWork(t, c.Name+" "+f.String(), g, w)
			case f.Kind.IsPolarityFault():
				want, wantOK := oraclePolarity(c, f, opt, &w)
				got, ok := g.polarity(f)
				pub, pubOK := GeneratePolarity(c, f, opt)
				if ok != wantOK || pubOK != wantOK || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(pub, want) {
					t.Errorf("%s %v: polarity (%+v, %v), exported (%+v, %v), oracle (%+v, %v)", c.Name, f, got, ok, pub, pubOK, want, wantOK)
				}
				checkWork(t, c.Name+" "+f.String(), g, w)
			case f.Kind == core.FaultChannelBreak:
				want, wantOK := oracleTwoPattern(c, f, opt, &w)
				got, ok := g.twoPattern(f)
				pub, pubOK := GenerateTwoPattern(c, f, opt)
				if ok != wantOK || pubOK != wantOK || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(pub, want) {
					t.Errorf("%s %v: two-pattern (%+v, %v), exported (%+v, %v), oracle (%+v, %v)", c.Name, f, got, ok, pub, pubOK, want, wantOK)
				}
				checkWork(t, c.Name+" two-pattern "+f.String(), g, w)

				w = oracleWork{}
				g = newGenerator(sim, opt)
				wantPlan, wantOK := oracleChannelBreakDP(c, f, opt, &w)
				gotPlan, ok := g.channelBreakDP(f)
				pubPlan, pubOK := GenerateChannelBreakDP(c, f, opt)
				if ok != wantOK || pubOK != wantOK || !reflect.DeepEqual(gotPlan, wantPlan) || !reflect.DeepEqual(pubPlan, wantPlan) {
					t.Errorf("%s %v: DP plan (%+v, %v), exported (%+v, %v), oracle (%+v, %v)", c.Name, f, gotPlan, ok, pubPlan, pubOK, wantPlan, wantOK)
				}
				checkWork(t, c.Name+" DP plan "+f.String(), g, w)
			default:
				// Stuck-on faults have no generator: every entry point
				// must reject them without searching.
				if _, ok := GenerateStuckAt(c, f, opt); ok {
					t.Errorf("%s %v: stuck-at generator accepted a stuck-on fault", c.Name, f)
				}
				if _, ok := GeneratePolarity(c, f, opt); ok {
					t.Errorf("%s %v: polarity generator accepted a stuck-on fault", c.Name, f)
				}
			}
		}

		// Multi-goal justification on random net subsets, including a
		// name the circuit does not have (it reads 0, as a missing map
		// key did).
		nets := c.Nets()
		rng := rand.New(rand.NewSource(int64(len(nets))))
		for k := 0; k < 40; k++ {
			goals := map[string]logic.V{}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				goals[nets[rng.Intn(len(nets))]] = logic.V(rng.Intn(2))
			}
			if k%10 == 0 {
				goals["no-such-net"] = logic.V(rng.Intn(2))
			}
			var w oracleWork
			g := newGenerator(sim, opt)
			want, wantOK := oracleJustify(c, goals, opt, &w)
			got, ok := g.justify(goals)
			pub, pubOK := Justify(c, goals, opt)
			if ok != wantOK || pubOK != wantOK || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(pub, want) {
				t.Errorf("%s justify %v: (%v, %v), exported (%v, %v), oracle (%v, %v)", c.Name, goals, got, ok, pub, pubOK, want, wantOK)
			}
			checkWork(t, c.Name+" justify", g, w)
		}
	}
}

// TestDensePODEMMalformedFaults pins the oracle's handling of faults
// naming nets, pins or gates the circuit does not have.
func TestDensePODEMMalformedFaults(t *testing.T) {
	c := parse(t, mixedCircuit)
	sim := faultsim.New(c)
	faults := []core.Fault{
		{Kind: core.FaultSA0, Net: "nope", GateIdx: -1, Pin: -1},
		{Kind: core.FaultSA1, Net: "nope", GateIdx: -1, Pin: -1},
		{Kind: core.FaultSA0, Net: "n1", GateIdx: 2, Pin: 7},
		{Kind: core.FaultSA1, Net: "n1", GateIdx: 99, Pin: 0},
		{Kind: core.FaultSA1, Net: "nope", GateIdx: 2, Pin: 0},
		{Kind: core.FaultSA0, Net: "n2", GateIdx: 2, Pin: 0},
		{Kind: core.FaultStuckAtN, Gate: "nope", Transistor: "t1"},
		{Kind: core.FaultStuckAtN, Gate: c.Gates[2].Name, Transistor: "nope"},
		{Kind: core.FaultChannelBreak, Gate: "nope", Transistor: "t1"},
		{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: "nope"},
	}
	for _, f := range faults {
		var w oracleWork
		g := newGenerator(sim, Options{})
		var got, want any
		var ok, wantOK bool
		switch {
		case f.Kind.IsLineFault():
			want, wantOK = oracleStuckAt(c, f, Options{}, &w)
			got, ok = g.stuckAt(f)
		case f.Kind.IsPolarityFault():
			want, wantOK = oraclePolarity(c, f, Options{}, &w)
			got, ok = g.polarity(f)
		default:
			want, wantOK = oracleTwoPattern(c, f, Options{}, &w)
			got, ok = g.twoPattern(f)
		}
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: (%v, %v), oracle (%v, %v)", f, got, ok, want, wantOK)
		}
		checkWork(t, f.String(), g, w)
	}
}

// TestGenerateMatchesOracle runs whole campaigns on the dense generator
// and on the oracle loop: the CampaignResults, counters included, must
// be identical.
func TestGenerateMatchesOracle(t *testing.T) {
	for _, c := range oracleCircuits(t) {
		universe := core.Universe(c, core.AllFaults())
		want := oracleGenerate(c, universe, Options{})
		got, err := GenerateContext(context.Background(), c, universe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: campaign differs from the oracle:\n got %d vectors, %d untestable, %d implications, %d backtracks\nwant %d vectors, %d untestable, %d implications, %d backtracks",
				c.Name, got.Set.TotalVectors(), len(got.Untestable), got.Implications, got.Backtracks,
				want.Set.TotalVectors(), len(want.Untestable), want.Implications, want.Backtracks)
		}
		if got.Implications == 0 {
			t.Errorf("%s: campaign counted no implications", c.Name)
		}
	}
}
