package faultsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/logic"
)

// rowOf converts a Pattern to a row in c's input order, missing inputs
// X: the row a DropSet takes for the map the batch entry points take.
func rowOf(c *logic.Circuit, p Pattern) []logic.V {
	row := make([]logic.V, len(c.Inputs))
	for i, pi := range c.Inputs {
		v, ok := p[pi]
		if !ok {
			v = logic.LX
		}
		row[i] = v
	}
	return row
}

// normalized is what a Pattern means to every sweep: each input of c
// with its value, X where the map lacks it or holds anything but 0/1.
func normalized(c *logic.Circuit, p Pattern) Pattern {
	out := make(Pattern, len(c.Inputs))
	for _, pi := range c.Inputs {
		v, ok := p[pi]
		if !ok || v != logic.L0 && v != logic.L1 {
			v = logic.LX
		}
		out[pi] = v
	}
	return out
}

// checkRoundTrip converts patterns to a set and back: every map must
// come back normalized, and converting the result again must rebuild
// the same set.
func checkRoundTrip(t *testing.T, label string, c *logic.Circuit, patterns []Pattern) *PatternSet {
	t.Helper()
	ps := PatternSetOf(c, patterns)
	if ps.Len() != len(patterns) {
		t.Fatalf("%s: set of %d patterns from %d", label, ps.Len(), len(patterns))
	}
	back := ps.Patterns()
	for k, p := range patterns {
		if want := normalized(c, p); !reflect.DeepEqual(back[k], want) {
			t.Fatalf("%s: pattern %d round-trips to %v, want %v", label, k, back[k], want)
		}
	}
	if again := PatternSetOf(c, back); !reflect.DeepEqual(again, ps) {
		t.Fatalf("%s: converting the round-tripped maps built another set", label)
	}
	return ps
}

// TestPatternSetRoundTrip converts map patterns with missing inputs,
// explicit X, out-of-range values and names the circuit lacks through a
// set and back, at sizes around the 64-lane block boundary, and checks
// that rows appended directly build the same set as their maps.
func TestPatternSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	c := bench.C17()
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		patterns := randomTernaryPatterns(rng, c, n)
		for k, p := range patterns {
			switch k % 3 {
			case 0:
				p["no-such-input"] = logic.L1
			case 1:
				p[c.Inputs[0]] = logic.V(7)
			}
		}
		label := fmt.Sprintf("c17/%d", n)
		ps := checkRoundTrip(t, label, c, patterns)
		rows := NewPatternSet(c, n)
		for _, p := range patterns {
			rows.Append(rowOf(c, p))
		}
		if !reflect.DeepEqual(rows, ps) {
			t.Errorf("%s: appended rows built another set than the maps", label)
		}
	}
	ex := ExhaustivePatternSet(c)
	if ex.Len() != 32 || !reflect.DeepEqual(PatternSetOf(c, ExhaustivePatterns(c)), ex) {
		t.Errorf("exhaustive c17: %d patterns, maps and set disagree", ex.Len())
	}
}

// checkBaselines packs ps at every lane width, binary and ternary, and
// compares every lane of every net with CompiledCircuit.EvalInto on the
// pattern's map (binary: its X inputs set to 0). Lanes past the last
// pattern must be invalid and X at every input.
func checkBaselines(t *testing.T, label string, c *logic.Circuit, ps *PatternSet) {
	t.Helper()
	s := New(c)
	cc := s.Compiled()
	patterns := ps.Patterns()
	vals := make([]logic.V, cc.NumNets())
	for _, binary := range []bool{false, true} {
		want := make([][]logic.V, len(patterns))
		for k, p := range patterns {
			if binary {
				b := make(Pattern, len(p))
				for pi, v := range p {
					b[pi] = logic.L0
					if v == logic.L1 {
						b[pi] = logic.L1
					}
				}
				p = b
			}
			want[k] = append([]logic.V(nil), cc.EvalInto(p, vals)...)
		}
		for _, w := range []int{1, 2, 4} {
			bases := s.packedBaselines(ps, w, binary)
			if got, n := len(bases), (ps.Len()+64*w-1)/(64*w); got != n {
				t.Fatalf("%s binary=%t w%d: %d chunks, want %d", label, binary, w, got, n)
			}
			for ci, pb := range bases {
				for lane := 0; lane < 64*w; lane++ {
					k := pb.start + lane
					valid := pb.valid[lane>>6]>>uint(lane&63)&1 == 1
					if valid != (k < ps.Len()) {
						t.Fatalf("%s binary=%t w%d chunk %d lane %d: valid %t with %d patterns", label, binary, w, ci, lane, valid, ps.Len())
					}
					if !valid {
						for i := range c.Inputs {
							if v := pb.in[i*w+lane>>6].Get(lane & 63); v != logic.LX {
								t.Fatalf("%s binary=%t w%d chunk %d lane %d: input %d reads %v past the last pattern", label, binary, w, ci, lane, i, v)
							}
						}
						continue
					}
					for net, v := range want[k] {
						if got := pb.vals[net*w+lane>>6].Get(lane & 63); got != v {
							t.Fatalf("%s binary=%t w%d pattern %d net %s: packed %v, EvalInto %v", label, binary, w, k, cc.NetName[net], got, v)
						}
					}
				}
			}
		}
	}
}

// TestPackedBaselinesMatchEvalInto: baselines packed from a dense set
// equal the scalar evaluation lane by lane, binary and ternary, at lane
// widths 1, 2 and 4, on sets that end inside a block and on block
// boundaries.
func TestPackedBaselinesMatchEvalInto(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	c432, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*logic.Circuit{bench.C17(), c432, bench.Random(rng.Int63(), 6, 25)}
	for _, c := range circuits {
		for _, n := range []int{1, 64, 65, 200, 256} {
			checkBaselines(t, fmt.Sprintf("%s/%d", c.Name, n), c, PatternSetOf(c, randomTernaryPatterns(rng, c, n)))
		}
	}
}

// FuzzPatternSet draws a bench.Random circuit (3 to 8 inputs, 1 to 30
// gates) and 0 to 300 rows, so sets cross the 64-lane block boundary,
// with ternary values and missing inputs. It checks the round trip
// through Pattern maps and the packed baselines against EvalInto.
func FuzzPatternSet(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint16(0))
	f.Add(int64(2), uint8(5), uint8(29), uint16(64))
	f.Add(int64(3), uint8(2), uint8(19), uint16(129))
	f.Add(int64(4), uint8(4), uint8(25), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8, nRows uint16) {
		rng := rand.New(rand.NewSource(seed))
		c := bench.Random(seed, 3+int(nIn)%6, 1+int(nGates)%30)
		patterns := randomTernaryPatterns(rng, c, int(nRows)%301)
		ps := checkRoundTrip(t, c.Name, c, patterns)
		checkBaselines(t, c.Name, c, ps)
	})
}
