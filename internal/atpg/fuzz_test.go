package atpg

import (
	"context"
	"reflect"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// FuzzPODEMMatchesOracle differentially fuzzes the dense PODEM against
// the map-based oracle. The fuzz inputs pick a bench.Random circuit (3
// to 10 inputs, 1 to 40 gates) and a per-attempt backtrack budget of 1
// to 64; a whole campaign over every fault class must equal
// oracleGenerate's, implication and backtrack counts included.
func FuzzPODEMMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), uint8(63))
	f.Add(int64(2), uint8(7), uint8(39), uint8(0))
	f.Add(int64(3), uint8(3), uint8(20), uint8(7))
	f.Add(int64(4), uint8(5), uint8(0), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, backtracks uint8) {
		c := bench.Random(seed, 3+int(nIn)%8, 1+int(nGates)%40)
		opt := Options{MaxBacktracks: 1 + int(backtracks)%64}
		universe := core.Universe(c, core.AllFaults())
		want := oracleGenerate(c, universe, opt)
		got, err := GenerateContext(context.Background(), c, universe, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: campaign differs from the oracle:\n got %d vectors, %d untestable, %d implications, %d backtracks\nwant %d vectors, %d untestable, %d implications, %d backtracks",
				c.Name, got.Set.TotalVectors(), len(got.Untestable), got.Implications, got.Backtracks,
				want.Set.TotalVectors(), len(want.Untestable), want.Implications, want.Backtracks)
		}
	})
}
