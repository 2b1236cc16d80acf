package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// The packed 64-way bridge engine must be bit-identical to the hooked
// fixpoint oracle: same Detected answer, same
// Method AND same first detecting pattern for every bridge, on
// arbitrary circuits, bridge lists (all four resolution kinds,
// including bridges naming nets absent from the circuit) and ternary
// pattern sets, with and without IDDQ observation.

// randomBridges draws bridge instances over the circuit's nets: every
// resolution kind, occasional self-bridges and occasional "ghost" ends
// naming no net at all (which the oracle reads as constant 0 — a
// semantics the packed engine must reproduce exactly).
func randomBridges(rng *rand.Rand, c *logic.Circuit, n int) []core.Bridge {
	nets := c.Nets()
	pick := func() string {
		if rng.Intn(20) == 0 {
			return "ghost_net"
		}
		return nets[rng.Intn(len(nets))]
	}
	out := make([]core.Bridge, n)
	for i := range out {
		out[i] = core.Bridge{
			Kind: core.BridgeKind(rng.Intn(4)),
			A:    pick(),
			B:    pick(),
		}
	}
	return out
}

// TestDifferentialBridgeEngines runs hundreds of random bridge
// campaigns through both engines and requires bit-identical
// detections.
func TestDifferentialBridgeEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	cases := 150 // x2 IDDQ modes = 300 campaign comparisons
	if testing.Short() {
		cases = 40
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(7), 1+rng.Intn(28))
		bridges := randomBridges(rng, c, 1+rng.Intn(30))
		patterns := randomTernaryPatterns(rng, c, 1+rng.Intn(24))

		for _, useIDDQ := range []bool{false, true} {
			want, err := withEngine(c, EngineReference).RunBridgesObserved(context.Background(), bridges, patterns, useIDDQ)
			if err != nil {
				t.Fatalf("case %d: reference: %v", ci, err)
			}
			got, err := New(c).RunBridgesObserved(context.Background(), bridges, patterns, useIDDQ)
			if err != nil {
				t.Fatalf("case %d: packed: %v", ci, err)
			}
			diffDetections(t, c.Name, bridges, want, got)
		}
	}
}

// TestDifferentialBridgesNeighbor locks the realistic workload: the
// neighbour-extracted bridge lists the campaigns actually run, against
// exhaustive patterns, on both engines.
func TestDifferentialBridgesNeighbor(t *testing.T) {
	for _, c := range []*logic.Circuit{bench.C17(), bench.FullAdderCP(), bench.TMRVoter()} {
		bridges := core.NeighborBridges(c, 3)
		patterns := ExhaustivePatterns(c)
		want, err := withEngine(c, EngineReference).RunBridgesObserved(context.Background(), bridges, patterns, true)
		if err != nil {
			t.Fatal(err)
		}
		if Summarise(want).Detected == 0 {
			t.Fatalf("%s: no bridge detected; the case proves nothing", c.Name)
		}
		got, err := New(c).RunBridgesObserved(context.Background(), bridges, patterns, true)
		if err != nil {
			t.Fatal(err)
		}
		diffDetections(t, c.Name, bridges, want, got)
	}
}
