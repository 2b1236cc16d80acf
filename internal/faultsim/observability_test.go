package faultsim

import (
	"fmt"
	"math/rand"
	"slices"
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
				bases := s.packedBaselines(PatternSetOf(c, patterns), w, false)
				sc := s.packedScratchOf()
				for ci := range bases {
					pb := &bases[ci]
					for net := range want {
						label := fmt.Sprintf("%s/%dpat/w%d chunk %d net %s", c.Name, n, w, ci, cc.NetName[net])
						known := false
						for j := 0; j < w; j++ {
							known = known || pb.vals[net*w+j].Known&pb.valid[j] != 0
						}
						before := sc.evals
						m := sc.observability(pb, net)
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

// TestDerivedMasksMatchWalk checks the fanout-free-region derivation
// against the walk it replaces: for every net of the ISCAS and
// arithmetic circuits, a parity tree that is one region, a copy of c432
// whose every fifth gate output is also a primary output (an output read
// by one gate must still be walked), and random circuits (some read one
// net on two pins of a gate), over binary and ternary patterns (a
// partial last block included) at every uniform lane-block width and in
// packs that open with a one-word head chunk (300 patterns: chunks of 1
// and 4 words; 250: 1 and 3, the last one trimmed to the words left),
// the memoized mask must equal what propagate computes from that net. Nets are queried in a shuffled
// order, so climbs stop at memoized nets at every depth. A net that is
// X in every lane must cost no evaluation.
func TestDerivedMasksMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1983))
	var circuits []*logic.Circuit
	for _, name := range []string{"c432", "c499", "alu8", "parity32"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	c432 := circuits[0]
	outs := append([]string(nil), c432.Outputs...)
	for gi := 0; gi < len(c432.Gates); gi += 5 {
		if !slices.Contains(outs, c432.Gates[gi].Output) {
			outs = append(outs, c432.Gates[gi].Output)
		}
	}
	tapped, err := logic.NewCircuit("c432-tapped", c432.Inputs, outs, c432.Gates)
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, tapped)
	for i := 0; i < 4; i++ {
		circuits = append(circuits, bench.Random(rng.Int63(), 3+rng.Intn(8), 10+rng.Intn(60)))
	}
	for _, c := range circuits {
		s := New(c)
		cc := s.Compiled()
		for _, binary := range []bool{true, false} {
			patterns := randomTernaryPatterns(rng, c, 300)
			for _, l := range []struct {
				w    int
				head bool
				n    int
			}{{1, false, 300}, {2, false, 300}, {4, false, 300}, {4, true, 300}, {4, true, 250}} {
				bases := s.packChunks(PatternSetOf(c, patterns[:l.n]), l.w, l.head, binary).bases
				sc := s.packedScratchOf()
				for ci := range bases {
					pb := &bases[ci]
					w := pb.w
					walk := make([]uint64, w)
					for _, net := range rng.Perm(cc.NumNets()) {
						label := fmt.Sprintf("%s/%dpat binary=%t w%d head=%t chunk %d net %s", c.Name, l.n, binary, l.w, l.head, ci, cc.NetName[net])
						known := false
						for j := 0; j < w; j++ {
							known = known || pb.vals[net*w+j].Known&pb.valid[j] != 0
						}
						before := sc.evals
						m := sc.observability(pb, net)
						if !known && sc.evals != before {
							t.Errorf("%s: X in every lane, yet the mask cost %d evaluations", label, sc.evals-before)
						}
						got := append([]uint64(nil), m...)
						sc.propagate(pb, net, walk)
						if !wordsEqual(got, walk) {
							t.Errorf("%s: memoized mask %x, walk %x", label, got, walk)
						}
					}
				}
				s.putPackedScratch(sc)
			}
		}
	}
}
