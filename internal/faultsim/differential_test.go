package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// The bit-parallel packed PPSFP engine must be bit-identical to the
// serial EvalHooked reference engine: same Detection method AND same
// first detecting pattern for every fault, on arbitrary circuits, fault
// lists and pattern sets (including X and missing inputs). The
// reference engine stays available as the oracle via EngineReference.

// withEngine returns a fresh simulator on c running engine e.
func withEngine(c *logic.Circuit, e Engine) *Simulator {
	s := New(c)
	s.Engine = e
	return s
}

// randomTernaryPatterns draws patterns that exercise the ternary paths:
// mostly binary values, some explicit X, some inputs left unassigned.
func randomTernaryPatterns(rng *rand.Rand, c *logic.Circuit, n int) []Pattern {
	out := make([]Pattern, n)
	for k := range out {
		p := Pattern{}
		for _, pi := range c.Inputs {
			switch rng.Intn(10) {
			case 0:
				p[pi] = logic.LX
			case 1:
				// leave unassigned: defaults to X in ternary simulation
			default:
				p[pi] = logic.FromBool(rng.Intn(2) == 1)
			}
		}
		out[k] = p
	}
	return out
}

// subsample bounds a fault list while keeping its order (detections are
// positional, so order must be preserved for the comparison).
func subsample(rng *rand.Rand, faults []core.Fault, max int) []core.Fault {
	if len(faults) <= max {
		return faults
	}
	keep := make([]core.Fault, 0, max)
	// Reservoir-free order-preserving draw: accept with shrinking odds.
	for i, f := range faults {
		remain := len(faults) - i
		need := max - len(keep)
		if need <= 0 {
			break
		}
		if rng.Intn(remain) < need {
			keep = append(keep, f)
		}
	}
	return keep
}

// diffDetections requires got to match the reference answers ref, both
// aligned with faults (line or transistor faults, or bridges).
func diffDetections[F any](t *testing.T, label string, faults []F, ref, got []Detection) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d vs %d detections", label, len(ref), len(got))
	}
	for i := range ref {
		if ref[i].Method != got[i].Method || ref[i].Pattern != got[i].Pattern {
			t.Errorf("%s: fault %v: reference (%q, %d) vs packed (%q, %d)",
				label, faults[i], ref[i].Method, ref[i].Pattern, got[i].Method, got[i].Pattern)
		}
	}
}

// TestDifferentialTransistorEngines runs >= 200 random transistor-fault
// campaigns through both engines and requires identical results.
func TestDifferentialTransistorEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(20150709))
	cases := 120 // x2 IDDQ modes = 240 campaign comparisons
	if testing.Short() {
		cases = 30
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(7), 1+rng.Intn(28))
		universe := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		faults := subsample(rng, universe, 60)
		patterns := randomTernaryPatterns(rng, c, 1+rng.Intn(24))

		for _, useIDDQ := range []bool{false, true} {
			want, err := withEngine(c, EngineReference).RunTransistor(faults, patterns, useIDDQ)
			if err != nil {
				t.Fatalf("case %d: reference: %v", ci, err)
			}
			got, err := New(c).RunTransistor(faults, patterns, useIDDQ)
			if err != nil {
				t.Fatalf("case %d: packed: %v", ci, err)
			}
			diffDetections(t, c.Name, faults, want, got)
		}
	}
}

// TestDifferentialTwoPatternEngines compares the stuck-open transition
// LUT path against the stateful switch-level reference on random
// circuits and pattern pairs.
func TestDifferentialTwoPatternEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(42421337))
	cases := 80
	if testing.Short() {
		cases = 20
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(6), 1+rng.Intn(20))
		universe := core.Universe(c, core.UniverseOptions{ChannelBreak: true})
		faults := subsample(rng, universe, 40)
		nPairs := 1 + rng.Intn(10)
		pairs := make([][2]Pattern, nPairs)
		for k := range pairs {
			ps := randomTernaryPatterns(rng, c, 2)
			pairs[k] = [2]Pattern{ps[0], ps[1]}
		}

		want, err := withEngine(c, EngineReference).RunTwoPattern(faults, pairs)
		if err != nil {
			t.Fatalf("case %d: reference: %v", ci, err)
		}
		got, err := New(c).RunTwoPattern(faults, pairs)
		if err != nil {
			t.Fatalf("case %d: packed: %v", ci, err)
		}
		diffDetections(t, c.Name, faults, want, got)
	}
}

// TestDifferentialParallelPacked checks the pooled packed driver
// against the serial reference.
func TestDifferentialParallelPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for ci := 0; ci < 10; ci++ {
		c := bench.Random(rng.Int63(), 4+rng.Intn(5), 5+rng.Intn(25))
		faults := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		patterns := randomTernaryPatterns(rng, c, 16)

		want, err := withEngine(c, EngineReference).RunTransistor(faults, patterns, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(c).RunTransistorParallel(context.Background(), faults, patterns, true, 8)
		if err != nil {
			t.Fatal(err)
		}
		diffDetections(t, c.Name, faults, want, got)
	}
}

// TestDifferentialFaultPackingShapes runs small and skinny campaigns —
// few faults, few patterns: blocks made mostly of spare lanes, and
// faults that share a gate, and so a site mask — through both engines:
// every shape must stay bit-identical to the oracle.
func TestDifferentialFaultPackingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8088))
	sizes := []struct{ faults, patterns int }{
		{3, 64}, {4, 64}, {16, 8}, {16, 9}, {32, 32}, {31, 32}, {128, 9},
	}
	for si, sz := range sizes {
		c := bench.Random(rng.Int63(), 5, 20)
		universe := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		faults := subsample(rng, universe, sz.faults)
		patterns := randomTernaryPatterns(rng, c, sz.patterns)

		want, err := withEngine(c, EngineReference).RunTransistor(faults, patterns, true)
		if err != nil {
			t.Fatalf("size %d: reference: %v", si, err)
		}
		got, err := New(c).RunTransistor(faults, patterns, true)
		if err != nil {
			t.Fatalf("size %d: packed: %v", si, err)
		}
		diffDetections(t, c.Name, faults, want, got)
	}
}

// TestEngineErrorParity: both engines reject unknown gates and unknown
// transistors identically (and stay silent on empty pattern sets,
// where the reference never builds hooks).
func TestEngineErrorParity(t *testing.T) {
	c := bench.C17()
	bad := []core.Fault{
		{Kind: core.FaultStuckOn, Gate: "nope", Transistor: "t1"},
		{Kind: core.FaultStuckOn, Gate: "g10", Transistor: "t99"},
	}
	pats := ExhaustivePatterns(c)
	for _, f := range bad {
		for _, eng := range []Engine{EngineReference, EnginePacked} {
			s := withEngine(c, eng)
			if _, err := s.RunTransistor([]core.Fault{f}, pats, true); err == nil {
				t.Errorf("%v engine: no error for %v", eng, f)
			}
			if _, err := s.RunTransistor([]core.Fault{f}, nil, true); err != nil {
				t.Errorf("%v engine: error with empty pattern set for %v: %v", eng, f, err)
			}
		}
	}
}
