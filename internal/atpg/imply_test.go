package atpg

import (
	"context"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// fullGood and fullFaulty are the whole-circuit levelized passes the
// event-driven settle replaced: every gate in cc.Order, from the
// current assignment, into the given slices. They are the state settle
// must reach after every imply.
func fullGood(g *generator, good []logic.V) {
	cc := g.cc
	for _, id := range cc.InputID {
		good[id] = g.assign[id]
	}
	for _, gi := range cc.Order {
		good[cc.GateOut[gi]] = cc.LUT[gi][cc.GateInputIndex(gi, good)]
	}
}

func fullFaulty(g *generator, faulty []logic.V) {
	cc, f := g.cc, &g.flt
	for _, id := range cc.InputID {
		faulty[id] = g.assign[id]
	}
	if f.stemPI >= 0 {
		faulty[f.stemPI] = f.force
	}
	for _, gi := range cc.Order {
		if gi != f.site {
			faulty[cc.GateOut[gi]] = cc.LUT[gi][cc.GateInputIndex(gi, faulty)]
			continue
		}
		var out logic.V
		switch {
		case f.lut != nil:
			out = f.lut[cc.GateInputIndex(gi, faulty)]
		case f.pin >= 0:
			idx := 0
			for k, nid := range cc.Fanin[gi] {
				v := faulty[nid]
				if k == f.pin {
					v = f.force
				}
				idx += int(v) * logic.Pow3(k)
			}
			out = cc.LUT[gi][idx]
		default:
			out = f.force
		}
		faulty[cc.GateOut[gi]] = out
	}
}

// fullFrontier is the D-frontier scan over every gate in cc.Order, on
// the reference values.
func fullFrontier(g *generator, good, faulty []logic.V) (goal, bool) {
	cc := g.cc
	differs := func(net int) bool {
		a, b := good[net], faulty[net]
		return a != logic.LX && b != logic.LX && a != b
	}
	for _, gi := range cc.Order {
		on := cc.GateOut[gi]
		if good[on] != logic.LX && faulty[on] != logic.LX {
			continue
		}
		fin := cc.Fanin[gi]
		hasEffect := gi == g.flt.effectGate
		for k := 0; !hasEffect && k < len(fin); k++ {
			hasEffect = differs(fin[k])
		}
		if !hasEffect {
			continue
		}
		for _, f := range fin {
			if good[f] == logic.LX {
				return goal{net: f, val: nonControlling(cc.Kinds[gi])}, true
			}
		}
	}
	return goal{}, false
}

// namedSpec is one fault-spec shape of an imply walk.
type namedSpec struct {
	shape string
	spec  faultSpec
}

// implySpecs returns one fault spec of every shape PODEM builds, at a
// random site of the generator's circuit: justification only, a stem
// fault on a primary input, a stem fault on a gate output, a pin fault,
// a faulty-gate behaviour table, and the two-pattern test's table with
// one patched (stale) entry.
func implySpecs(t *testing.T, rng *rand.Rand, g *generator) []namedSpec {
	t.Helper()
	cc := g.cc
	force := logic.V(rng.Intn(2))
	gi := rng.Intn(len(cc.Order))
	kind := cc.Kinds[gi]
	trs := gates.Get(kind).Transistors
	tr := trs[rng.Intn(len(trs))].Name
	polarity, err := faultsim.FaultLUT(kind, tr, []logic.TFault{logic.TFaultStuckAtN, logic.TFaultStuckAtP}[rng.Intn(2)])
	if err != nil {
		t.Fatal(err)
	}
	open, err := faultsim.FaultLUT(kind, tr, logic.TFaultOpen)
	if err != nil {
		t.Fatal(err)
	}
	nIn := len(cc.Fanin[gi])
	stale := append(logic.GateLUT(nil), open...)
	stale[binaryIndex(rng.Intn(1<<nIn), nIn)] = force

	stem, out, pin, table := noFault, noFault, noFault, noFault
	stem.propagate, stem.force, stem.stemPI = true, force, cc.InputID[rng.Intn(len(cc.InputID))]
	out.propagate, out.force, out.site = true, force, gi
	pin.propagate, pin.force, pin.site, pin.effectGate, pin.pin = true, force, gi, gi, rng.Intn(nIn)
	table.propagate, table.effectGate, table.site, table.lut = true, gi, gi, polarity
	patched := table
	patched.lut = stale
	return []namedSpec{
		{"justify", noFault},
		{"stem input", stem},
		{"stem gate output", out},
		{"pin", pin},
		{"behaviour table", table},
		{"stale table", patched},
	}
}

// TestImplyMatchesFullPass drives random walks of input sets, flips and
// unsets, one to three per implication as decisions and backtracks make
// them, under every fault-spec shape. After every imply the incremental
// good values (and faulty values, when the attempt propagates) must
// equal the full levelized passes, and the cone-restricted D-frontier
// must pick the same objective as a scan of every gate.
func TestImplyMatchesFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range oracleCircuits(t) {
		g := newGenerator(faultsim.New(c), Options{})
		cc := g.cc
		good := make([]logic.V, len(g.good))
		faulty := make([]logic.V, len(g.faulty))
		for round := 0; round < 6; round++ {
			for _, ns := range implySpecs(t, rng, g) {
				shape, spec := ns.shape, ns.spec
				g.flt = spec
				g.begin()
				for step := 0; step < 60; step++ {
					for n := rng.Intn(3); step > 0 && n >= 0; n-- {
						pi := cc.InputID[rng.Intn(len(cc.InputID))]
						switch v := g.assign[pi]; {
						case v == logic.LX:
							g.setInput(pi, logic.V(rng.Intn(2)))
						case rng.Intn(2) == 0:
							g.setInput(pi, v.Not())
						default:
							g.setInput(pi, logic.LX)
						}
					}
					g.imply()
					fullGood(g, good)
					if net := firstDiff(g.good, good); net >= 0 {
						t.Fatalf("%s %s step %d: good net %d is %v, full pass %v", c.Name, shape, step, net, g.good[net], good[net])
					}
					if !spec.propagate {
						continue
					}
					fullFaulty(g, faulty)
					if net := firstDiff(g.faulty, faulty); net >= 0 {
						t.Fatalf("%s %s step %d: faulty net %d is %v, full pass %v", c.Name, shape, step, net, g.faulty[net], faulty[net])
					}
					gotObj, gotOK := g.frontierObjective()
					wantObj, wantOK := fullFrontier(g, good, faulty)
					if gotObj != wantObj || gotOK != wantOK {
						t.Fatalf("%s %s step %d: frontier (%v, %v), full scan (%v, %v)", c.Name, shape, step, gotObj, gotOK, wantObj, wantOK)
					}
				}
			}
		}
	}
}

// firstDiff returns the first net where got and want differ, or -1.
func firstDiff(got, want []logic.V) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestImplyIsIncremental guards the selective trace itself. The oracle
// tests compare outcomes and search counters, which full passes would
// reproduce exactly; here a campaign on each atpg_gen circuit must
// evaluate at most a quarter of the circuit's gates per implication.
func TestImplyIsIncremental(t *testing.T) {
	for _, name := range []string{"parity32", "rca32", "c432", "alu6"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		universe := core.Universe(c, core.UniverseOptions{LineStuckAt: true, Polarity: true, ChannelBreak: true})
		g := newGenerator(faultsim.New(c), Options{})
		res, err := g.generate(context.Background(), universe)
		if err != nil {
			t.Fatal(err)
		}
		limit := res.Implications * len(c.Gates) / 4
		t.Logf("%s: %d gate visits over %d implications, %.1f per implication (%d gates)",
			name, g.visits, res.Implications, float64(g.visits)/float64(res.Implications), len(c.Gates))
		if g.visits > limit {
			t.Errorf("%s: %d gate visits over %d implications, limit %d", name, g.visits, res.Implications, limit)
		}
	}
}
