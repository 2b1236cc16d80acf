package atpg

import (
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

// The generation campaign drops faults through the simulator selected
// by Options.Engine; since the packed engine is differentially proven
// bit-identical to the reference oracle, the whole CampaignResult —
// per-class coverage, generated pattern counts, untestable list — must
// not depend on the engine choice.
func TestGenerateEngineParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	circuits := []*logic.Circuit{
		bench.C17(),
		bench.FullAdderCP(),
		bench.Random(rng.Int63(), 5, 18),
		bench.Random(rng.Int63(), 6, 25),
	}
	for _, c := range circuits {
		universe := core.Universe(c, core.UniverseOptions{
			LineStuckAt: true, ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		ref := Generate(c, universe, Options{Engine: faultsim.EngineReference})
		got := Generate(c, universe, Options{Engine: faultsim.EnginePacked})
		if got.StuckAtCovered != ref.StuckAtCovered ||
			got.PolarityCovered != ref.PolarityCovered ||
			got.CBSPCovered != ref.CBSPCovered ||
			got.CBDPCovered != ref.CBDPCovered ||
			got.Coverage() != ref.Coverage() {
			t.Errorf("%s: coverage drift: packed %+v, reference %+v", c.Name, got, ref)
		}
		if len(got.Set.Patterns) != len(ref.Set.Patterns) ||
			len(got.Set.IDDQPatterns) != len(ref.Set.IDDQPatterns) ||
			len(got.Set.TwoPattern) != len(ref.Set.TwoPattern) ||
			len(got.Set.CBPlans) != len(ref.Set.CBPlans) {
			t.Errorf("%s: test-set drift: %d/%d/%d/%d vs %d/%d/%d/%d",
				c.Name,
				len(got.Set.Patterns), len(got.Set.IDDQPatterns), len(got.Set.TwoPattern), len(got.Set.CBPlans),
				len(ref.Set.Patterns), len(ref.Set.IDDQPatterns), len(ref.Set.TwoPattern), len(ref.Set.CBPlans))
		}
		if len(got.Untestable) != len(ref.Untestable) {
			t.Errorf("%s: untestable drift: %d vs %d", c.Name, len(got.Untestable), len(ref.Untestable))
		}
	}
}
