package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// Lane invariance of EnginePacked: the 64-lane packing is an
// implementation detail, so reshaping the pattern set around the word
// boundary must never change what is detected. Three reshapes are
// checked on every random campaign:
//
//   - padding: appending repeats of earlier patterns (making the count
//     a non-multiple of 64 and spilling into a second chunk) leaves
//     every Detection bit-identical — later duplicates can never win;
//   - splitting: running the set as two packed calls and merging is
//     bit-identical to the single call (first half wins, second half
//     detections shift by the split point);
//   - permutation: reordering patterns preserves the *set* of detected
//     faults (method and first index legitimately move).
//
// The campaigns cycle through every lane-block width (1, 2 and 4 words
// of 64 lanes), so each reshape is checked at each block geometry.

func detectedSet(faults []core.Fault, ds []Detection) map[string]bool {
	out := map[string]bool{}
	for i, d := range ds {
		if d.Detected() {
			out[faults[i].String()] = true
		}
	}
	return out
}

func TestPackedLaneInvarianceTransistor(t *testing.T) {
	rng := rand.New(rand.NewSource(64646464))
	cases := 40
	if testing.Short() {
		cases = 10
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 4+rng.Intn(6), 5+rng.Intn(30))
		universe := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		faults := subsample(rng, universe, 50)
		// 65..120 patterns: always spills past one word, never a
		// multiple of 64.
		n := 65 + rng.Intn(56)
		if n%64 == 0 {
			n++
		}
		patterns := randomTernaryPatterns(rng, c, n)
		useIDDQ := ci%2 == 0

		sim := New(c)
		sim.Engine = EnginePacked
		sim.laneWords = []int{1, 2, 4}[ci%3]
		base, err := sim.RunTransistor(faults, patterns, useIDDQ)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}

		// Padding with repeats of already-present patterns.
		padded := append(append([]Pattern{}, patterns...), patterns[:7]...)
		got, err := sim.RunTransistor(faults, padded, useIDDQ)
		if err != nil {
			t.Fatalf("case %d: padded: %v", ci, err)
		}
		diffDetections(t, "padded", faults, base, got)

		// Splitting one packed call into two at an off-word boundary.
		split := 1 + rng.Intn(n-1)
		first, err := sim.RunTransistor(faults, patterns[:split], useIDDQ)
		if err != nil {
			t.Fatalf("case %d: split head: %v", ci, err)
		}
		second, err := sim.RunTransistor(faults, patterns[split:], useIDDQ)
		if err != nil {
			t.Fatalf("case %d: split tail: %v", ci, err)
		}
		merged := make([]Detection, len(faults))
		for i := range merged {
			switch {
			case first[i].Detected():
				merged[i] = first[i]
			case second[i].Detected():
				merged[i] = second[i]
				merged[i].Pattern += split
			default:
				merged[i] = Detection{Pattern: -1}
			}
		}
		diffDetections(t, "split-merge", faults, base, merged)

		// Permuting the pattern order preserves the detected set.
		perm := append([]Pattern{}, patterns...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, err = sim.RunTransistor(faults, perm, useIDDQ)
		if err != nil {
			t.Fatalf("case %d: permuted: %v", ci, err)
		}
		want, have := detectedSet(faults, base), detectedSet(faults, got)
		if len(want) != len(have) {
			t.Fatalf("case %d: permutation changed detections: %d vs %d", ci, len(want), len(have))
		}
		for f := range want {
			if !have[f] {
				t.Errorf("case %d: %s lost under permutation", ci, f)
			}
		}
	}
}

func TestPackedLaneInvarianceBridges(t *testing.T) {
	rng := rand.New(rand.NewSource(128128))
	cases := 25
	if testing.Short() {
		cases = 8
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 4+rng.Intn(6), 5+rng.Intn(25))
		bridges := randomBridges(rng, c, 2+rng.Intn(20))
		n := 65 + rng.Intn(40)
		patterns := randomTernaryPatterns(rng, c, n)
		useIDDQ := ci%2 == 0

		sim := New(c)
		sim.Engine = EnginePacked
		sim.laneWords = []int{1, 2, 4}[ci%3] // the bridge engine is fixed at width 1; pinning must be harmless
		base, err := sim.RunBridgesObserved(context.Background(), bridges, patterns, useIDDQ)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}

		padded := append(append([]Pattern{}, patterns...), patterns[:5]...)
		got, err := sim.RunBridgesObserved(context.Background(), bridges, padded, useIDDQ)
		if err != nil {
			t.Fatalf("case %d: padded: %v", ci, err)
		}
		diffDetections(t, "padded", bridges, base, got)

		split := 1 + rng.Intn(n-1)
		first, err := sim.RunBridgesObserved(context.Background(), bridges, patterns[:split], useIDDQ)
		if err != nil {
			t.Fatalf("case %d: split head: %v", ci, err)
		}
		second, err := sim.RunBridgesObserved(context.Background(), bridges, patterns[split:], useIDDQ)
		if err != nil {
			t.Fatalf("case %d: split tail: %v", ci, err)
		}
		merged := make([]Detection, len(bridges))
		for i := range merged {
			switch {
			case first[i].Detected():
				merged[i] = first[i]
			case second[i].Detected():
				merged[i] = second[i]
				merged[i].Pattern += split
			default:
				merged[i] = Detection{Pattern: -1}
			}
		}
		diffDetections(t, "split-merge", bridges, base, merged)
	}
}

// TestPackedLaneWidthInvariance: the lane-block width (1, 2 or 4 words
// of 64 lanes) is an implementation detail. Every width must return
// bit-identical detections on the same campaign, serial and parallel.
func TestPackedLaneWidthInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(256256))
	cases := 20
	if testing.Short() {
		cases = 6
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 4+rng.Intn(6), 5+rng.Intn(30))
		universe := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		faults := subsample(rng, universe, 50)
		// 65..200 patterns: at width 1 this spans 2-4 chunks, at width 4
		// a single block, so chunk iteration and tail masking both move.
		patterns := randomTernaryPatterns(rng, c, 65+rng.Intn(136))
		useIDDQ := ci%2 == 0

		var base []Detection
		for _, w := range []int{1, 2, 4} {
			sim := New(c)
			sim.Engine = EnginePacked
			sim.laneWords = w
			got, err := sim.RunTransistor(faults, patterns, useIDDQ)
			if err != nil {
				t.Fatalf("case %d: width %d: %v", ci, w, err)
			}
			if base == nil {
				base = got
				continue
			}
			diffDetections(t, c.Name+"/w1-vs-w"+string(rune('0'+w)), faults, base, got)

			par, err := sim.RunTransistorParallel(context.Background(), faults, patterns, useIDDQ, 4)
			if err != nil {
				t.Fatalf("case %d: width %d parallel: %v", ci, w, err)
			}
			diffDetections(t, c.Name+"/parallel-w"+string(rune('0'+w)), faults, base, par)
		}
	}
}

// TestFaultPackedParity: with few patterns (33 to 64) a block has
// spare lanes at every width: half of a 128-lane block and three
// quarters of a 256-lane one stay X. Every width, serial and parallel,
// must match the oracle exactly: spare lanes never flip a site, so they
// never reach a mask or a detection.
func TestFaultPackedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cases := 20
	if testing.Short() {
		cases = 6
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 4+rng.Intn(5), 8+rng.Intn(25))
		universe := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		faults := subsample(rng, universe, 40)
		// 33..64 patterns: one word at width 1, spare words at 2 and 4.
		nPats := 33 + rng.Intn(32)
		patterns := randomTernaryPatterns(rng, c, nPats)
		useIDDQ := ci%2 == 0

		ref := New(c)
		ref.Engine = EngineReference
		want, err := ref.RunTransistor(faults, patterns, useIDDQ)
		if err != nil {
			t.Fatalf("case %d: reference: %v", ci, err)
		}
		for _, w := range []int{1, 2, 4} {
			sim := New(c)
			sim.Engine = EnginePacked
			sim.laneWords = w
			got, err := sim.RunTransistor(faults, patterns, useIDDQ)
			if err != nil {
				t.Fatalf("case %d: width %d: %v", ci, w, err)
			}
			diffDetections(t, c.Name+"/serial", faults, want, got)
			got, err = sim.RunTransistorParallel(context.Background(), faults, patterns, useIDDQ, 4)
			if err != nil {
				t.Fatalf("case %d: width %d parallel: %v", ci, w, err)
			}
			diffDetections(t, c.Name+"/parallel", faults, want, got)
		}
	}
}
