package atpg

import (
	"testing"
	"testing/quick"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

// TestPODEMSoundnessProperty: on random circuits, every test PODEM
// generates must actually detect its fault under independent fault
// simulation, and every fault PODEM declares untestable must also be
// undetectable by exhaustive simulation (completeness on small circuits).
func TestPODEMSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := bench.Random(seed%1000, 5, 12)
		faults := core.Universe(c, core.ClassicalOnly())
		sim := faultsim.New(c)
		exhaustive := faultsim.ExhaustivePatterns(c)
		for _, fault := range faults {
			pat, ok := GenerateStuckAt(c, fault, Options{})
			if ok {
				ds := sim.RunStuckAt([]core.Fault{fault}, []faultsim.Pattern{pat})
				if !ds[0].Detected() {
					t.Logf("seed %d: unsound test for %v", seed, fault)
					return false
				}
			} else {
				ds := sim.RunStuckAt([]core.Fault{fault}, exhaustive)
				if ds[0].Detected() {
					t.Logf("seed %d: incomplete for testable %v", seed, fault)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPolarityATPGSoundnessProperty: generated polarity tests must detect
// their faults under the matching observation method.
func TestPolarityATPGSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := bench.Random(seed%1000, 5, 10)
		faults := core.Universe(c, core.UniverseOptions{Polarity: true})
		sim := faultsim.New(c)
		for _, fault := range faults {
			pt, ok := GeneratePolarity(c, fault, Options{})
			if !ok {
				continue
			}
			useIDDQ := pt.Method == faultsim.ByIDDQ
			ds, err := sim.RunTransistor([]core.Fault{fault}, []faultsim.Pattern{patternOf(c, pt.Pattern)}, useIDDQ)
			if err != nil {
				t.Log(err)
				return false
			}
			if !ds[0].Detected() {
				t.Logf("seed %d: polarity test for %v does not detect (method %v)", seed, fault, pt.Method)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestCBPlanVerdictProperty: the channel-break procedure must separate
// healthy from broken devices on every DP transistor of random circuits.
func TestCBPlanVerdictProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := bench.Random(seed%1000, 5, 8)
		faults := core.Universe(c, core.UniverseOptions{ChannelBreak: true})
		for _, fault := range faults {
			plan, ok := GenerateChannelBreakDP(c, fault, Options{})
			if !ok {
				continue
			}
			healthy, broken, err := VerifyChannelBreakPlan(c, plan)
			if err != nil {
				t.Log(err)
				return false
			}
			if !healthy || broken {
				t.Logf("seed %d: verdict fails for %v (healthy=%v broken=%v)", seed, fault, healthy, broken)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestProgramGoldenPassProperty: the assembled tester program must pass a
// golden device on random circuits (no overkill).
func TestProgramGoldenPassProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := bench.Random(seed%1000, 4, 8)
		universe := core.Universe(c, core.UniverseOptions{
			LineStuckAt: true, ChannelBreak: true, Polarity: true,
		})
		res := Generate(c, universe, Options{})
		p := BuildProgram(c, res)
		v := Execute(p, nil)
		if !v.Pass {
			t.Logf("seed %d: golden device fails: %s", seed, v.FailReason)
		}
		return v.Pass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestJustifyProperty: a justified goal must hold under plain simulation.
func TestJustifyProperty(t *testing.T) {
	f := func(seed int64, pick uint8, bit bool) bool {
		c := bench.Random(seed%1000, 5, 10)
		nets := c.Nets()
		net := nets[int(pick)%len(nets)]
		want := logic.FromBool(bit)
		pat, ok := Justify(c, map[string]logic.V{net: want}, Options{})
		if !ok {
			return true // possibly unsatisfiable; completeness checked elsewhere
		}
		vals := c.Eval(map[string]logic.V(pat))
		return vals[net] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
