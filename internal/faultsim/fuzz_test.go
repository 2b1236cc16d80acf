package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// FuzzPackedMatchesReference differentially fuzzes the packed engine
// against its oracles on random small circuits. The fuzz inputs pick a
// bench.Random circuit (3 to 8 inputs, 1 to 30 gates), 1 to 130 ternary
// patterns and 1 to 3 workers. Then:
//
//   - packed RunTransistorBoth equals the reference RunTransistor
//     without and with IDDQ;
//   - RunStuckAt equals the full-circuit stuck-at sweep
//     (oracleStuckAt);
//   - RunTwoPattern equals the reference on random init/test pairs;
//   - every DropSet kind, grown one entry at a time over the same
//     patterns or pairs, detects a fault exactly when the batch answer's
//     first detection lies among the entries added (checked at 1, 64,
//     65, 128 and 129 entries and at the end).
//
// The reference sweeps a fault sample, so each input stays fast.
func FuzzPackedMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(5), uint8(29), uint8(63), uint8(1))
	f.Add(int64(3), uint8(2), uint8(19), uint8(64), uint8(2))
	f.Add(int64(4), uint8(4), uint8(25), uint8(129), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, nPats, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := bench.Random(seed, 3+int(nIn)%6, 1+int(nGates)%30)
		n := 1 + int(nPats)%130
		nw := 1 + int(workers)%3
		patterns := randomTernaryPatterns(rng, c, n)

		faults := subsample(rng, transistorUniverse(c), 24)
		ref := withEngine(c, EngineReference)
		wantV, err := ref.RunTransistor(faults, patterns, false)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, err := ref.RunTransistor(faults, patterns, true)
		if err != nil {
			t.Fatal(err)
		}
		v, q, err := New(c).RunTransistorBoth(context.Background(), faults, patterns, nw)
		if err != nil {
			t.Fatal(err)
		}
		diffDetections(t, "transistor voltage", faults, wantV, v)
		diffDetections(t, "transistor +IDDQ", faults, wantQ, q)

		line := core.Universe(c, core.ClassicalOnly())
		wantSA := oracleStuckAt(c, line, patterns, nil)
		diffDetections(t, "stuck-at", line, wantSA, New(c).RunStuckAt(line, patterns))

		breaks := subsample(rng, core.Universe(c, core.UniverseOptions{ChannelBreak: true}), 12)
		pairs := make([][2]Pattern, n)
		for k, p := range randomTernaryPatterns(rng, c, n) {
			pairs[k] = [2]Pattern{p, patterns[k]}
		}
		wantP, err := ref.RunTwoPattern(breaks, pairs)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := New(c).RunTwoPattern(breaks, pairs)
		if err != nil {
			t.Fatal(err)
		}
		diffDetections(t, "two-pattern", breaks, wantP, gotP)

		s := New(c)
		for _, d := range []struct {
			label  string
			set    *DropSet
			faults []core.Fault
			want   []Detection
		}{
			{"stuck-at drops", s.StuckAtDrops(), line, wantSA},
			{"voltage drops", s.VoltageDrops(), faults, wantV},
			{"pair drops", s.PairDrops(), breaks, wantP},
		} {
			for k := 1; k <= n; k++ {
				if d.set.cls.pairs {
					d.set.AddPair(rowOf(c, pairs[k-1][0]), rowOf(c, pairs[k-1][1]))
				} else {
					d.set.Add(rowOf(c, patterns[k-1]))
				}
				if k < n && k%64 > 1 {
					continue
				}
				for i, f := range d.faults {
					want := d.want[i].Detected() && d.want[i].Pattern < k
					if got := d.set.Detects(f); got != want {
						t.Errorf("%s: %d entries: Detects(%v) = %v, batch first detection %d", d.label, k, f, got, d.want[i].Pattern)
					}
				}
			}
			d.set.Close()
		}
	})
}
