package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/logic"
)

// TestObservabilityMatchesFlippedEval checks every observability mask
// against a scalar oracle. On random circuits, for every net (primary
// inputs and outputs included), every chunk and every lane-block width,
// a lane is in the net's mask iff the hooked reference evaluation of the
// lane's pattern, with a Stem hook flipping that net's known value,
// gives a definite primary-output difference. Lanes where the net is X
// and lanes past the last pattern never are, and a net with no known
// lane in a chunk costs no evaluation at all: X lanes are never flipped.
func TestObservabilityMatchesFlippedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1983))
	flip := func(v logic.V) logic.V {
		switch v {
		case logic.L0:
			return logic.L1
		case logic.L1:
			return logic.L0
		}
		return v
	}
	for ci := 0; ci < 6; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(6), 5+rng.Intn(26))
		s := New(c)
		cc := s.Compiled()
		for _, n := range []int{1, 63, 64, 65, 200, 300} {
			patterns := randomTernaryPatterns(rng, c, n)
			// want[net][k]: flipping net under pattern k reaches an output.
			want := make([][]bool, cc.NumNets())
			for net, name := range cc.NetName {
				want[net] = make([]bool, n)
				hooks := logic.TernaryHooks{Stem: func(at string, v logic.V) logic.V {
					if at == name {
						return flip(v)
					}
					return v
				}}
				for k, p := range patterns {
					good := c.Eval(map[string]logic.V(p))
					want[net][k] = s.outputsDiffer(good, c.EvalHooked(map[string]logic.V(p), hooks))
				}
			}
			for _, w := range []int{1, 2, 4} {
				bases := s.packedBaselines(patterns, w, false)
				sc := s.packedScratchOf()
				sc.begin(w)
				for ci := range bases {
					pb := &bases[ci]
					for net := range want {
						label := fmt.Sprintf("%s/%dpat/w%d chunk %d net %s", c.Name, n, w, ci, cc.NetName[net])
						known := false
						for j := 0; j < w; j++ {
							known = known || pb.vals[net*w+j].Known&pb.valid[j] != 0
						}
						before := sc.evals
						m := sc.observability(ci, pb, net)
						if !known && sc.evals != before {
							t.Errorf("%s: X in every lane, yet the mask cost %d evaluations", label, sc.evals-before)
						}
						for lane := 0; lane < 64*w; lane++ {
							k := pb.start + lane
							exp := k < n && want[net][k]
							if got := m[lane>>6]>>uint(lane&63)&1 == 1; got != exp {
								t.Errorf("%s: lane %d in mask %t, flipped evaluation detects %t", label, lane, got, exp)
							}
						}
					}
				}
				s.putPackedScratch(sc)
			}
		}
	}
}
