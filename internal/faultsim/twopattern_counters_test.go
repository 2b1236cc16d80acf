package faultsim

import (
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// TestTwoPatternCounters pins the engine counters of packed channel-break
// simulation on c432's channel breaks over 300 random ternary pairs: the
// pair lanes decoded (TwoPatternRuns), the fault runs and the packed gate
// evaluations, both for the batch entry point (two 256-lane chunks) and
// for a pair drop set grown to the same pairs (five 64-lane blocks) and
// asked about every fault. Some breaks are first detected past the first
// chunk, so the pinned counts cover a sweep that reads a second chunk's
// masks and decodes its lanes.
func TestTwoPatternCounters(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	faults := core.Universe(c, core.UniverseOptions{ChannelBreak: true})
	pairs := make([][2]Pattern, 300)
	tests := randomTernaryPatterns(rng, c, len(pairs))
	for k, init := range randomTernaryPatterns(rng, c, len(pairs)) {
		pairs[k] = [2]Pattern{init, tests[k]}
	}
	type counts struct{ lanes, runs, evals uint64 }
	measure := func(call func()) counts {
		before := ReadEngineStats()
		call()
		after := ReadEngineStats()
		return counts{
			after.TwoPatternRuns - before.TwoPatternRuns,
			after.PackedFaultRuns - before.PackedFaultRuns,
			after.PackedGateEvals - before.PackedGateEvals,
		}
	}

	var ds []Detection
	batch := measure(func() {
		ds, err = New(c).RunTwoPattern(faults, pairs)
	})
	if err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, d := range ds {
		if d.Pattern >= 256 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no channel break is first detected past the first chunk")
	}
	if want := (counts{132900, 476, 5326}); batch != want {
		t.Errorf("RunTwoPattern counters %+v, want %+v", batch, want)
	}

	detected := 0
	drops := measure(func() {
		set := New(c).PairDrops()
		for _, p := range pairs {
			set.AddPair(rowOf(c, p[0]), rowOf(c, p[1]))
		}
		for _, f := range faults {
			if set.Detects(f) {
				detected++
			}
		}
		set.Close()
	})
	if cov := Summarise(ds); detected != cov.Detected {
		t.Errorf("pair drop set detects %d breaks, RunTwoPattern %d", detected, cov.Detected)
	}
	if want := (counts{96996, 476, 4534}); drops != want {
		t.Errorf("PairDrops counters %+v, want %+v", drops, want)
	}
}
