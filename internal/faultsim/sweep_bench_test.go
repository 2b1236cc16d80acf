package faultsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// BenchmarkSweepLayout prices the chunk layouts of a shared sweep, the
// way a campaign shard runs its packed classes: one op is a stuck-at
// campaign and then a transistor campaign answering both classes (two
// workers) on one Sweep, over one pack laid out in uniform 4-word
// chunks (w4), uniform 1-word chunks (w1), or opening with a one-word
// head chunk and continuing at 4 words (head), with signature capture
// off and on. The sets are c432 with 256 and 4,096 random fully
// specified patterns and the exhaustive sets of alu4 (2,048 patterns)
// and mult6 (4,096). Campaigns pack as head without capture and as w4
// with it; the other rows force the layout. It reports the packed gate
// evaluations per op.
//
//	go test -run '^$' -bench BenchmarkSweepLayout -benchtime 30x -count 5 -cpu 2 ./internal/faultsim
func BenchmarkSweepLayout(b *testing.B) {
	type set struct {
		name string
		c    string
		n    int // random patterns; 0 for the exhaustive set
	}
	for _, st := range []set{{"c432-256", "c432", 256}, {"c432-4096", "c432", 4096}, {"alu4-exh", "alu4", 0}, {"mult6-exh", "mult6", 0}} {
		c, err := bench.Get(st.c)
		if err != nil {
			b.Fatal(err)
		}
		var ps *PatternSet
		if st.n > 0 {
			ps = PatternSetOf(c, randomBinaryPatterns(rand.New(rand.NewSource(7)), c, st.n))
		} else {
			ps = ExhaustivePatternSet(c)
		}
		saFaults := core.Universe(c, core.ClassicalOnly())
		trFaults := transistorUniverse(c)
		for _, layout := range []struct {
			name string
			w    int
			head bool
		}{{"w4", 4, false}, {"w1", 1, false}, {"head", 4, true}} {
			for _, capture := range []bool{false, true} {
				mode := "plain"
				if capture {
					mode = "capture"
				}
				b.Run(fmt.Sprintf("%s/%s/%s", st.name, layout.name, mode), func(b *testing.B) {
					s := New(c)
					ctx := context.Background()
					before := ReadEngineStats().PackedGateEvals
					for i := 0; i < b.N; i++ {
						sw := s.NewSweep(ps)
						sw.packs[0] = s.packChunks(ps, layout.w, layout.head, false)
						if capture {
							s.Signatures = NewSignatureCapture(len(saFaults), ps.Len())
						}
						if _, err := sw.RunStuckAt(ctx, saFaults); err != nil {
							b.Fatal(err)
						}
						if capture {
							s.Signatures = NewSignatureCapture(len(trFaults), ps.Len())
						}
						if _, _, err := sw.RunTransistorBoth(ctx, trFaults, 2); err != nil {
							b.Fatal(err)
						}
						s.Signatures = nil
						sw.Close()
					}
					b.ReportMetric(float64(ReadEngineStats().PackedGateEvals-before)/float64(b.N), "evals/op")
				})
			}
		}
	}
}
