package logic

import (
	"math/rand"
	"testing"

	"cpsinw/internal/gates"
)

// TestPackedRoundTrip: WithLane/Get/PackVec/UnpackVec agree and stay
// canonical.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		vs := make([]V, n)
		for i := range vs {
			vs[i] = V(rng.Intn(3))
		}
		p := PackVec(vs)
		if p != p.Canon() {
			t.Fatalf("PackVec not canonical: %+v", p)
		}
		back := UnpackVec(p, n)
		for i := range vs {
			if back[i] != vs[i] {
				t.Fatalf("lane %d: packed %v, unpacked %v", i, vs[i], back[i])
			}
		}
		for k := n; k < 64; k++ {
			if p.Get(k) != LX {
				t.Fatalf("lane %d beyond count is %v, want X", k, p.Get(k))
			}
		}
	}
}

// TestPackedConstAndMasks pins ConstPacked, EqMask and DefiniteDiffMask.
func TestPackedConstAndMasks(t *testing.T) {
	zero, one, x := ConstPacked(L0), ConstPacked(L1), ConstPacked(LX)
	for k := 0; k < 64; k += 17 {
		if zero.Get(k) != L0 || one.Get(k) != L1 || x.Get(k) != LX {
			t.Fatalf("lane %d: const planes broken", k)
		}
	}
	if EqMask(zero, zero) != ^uint64(0) || EqMask(zero, one) != 0 || EqMask(x, zero) != 0 {
		t.Fatal("EqMask broken on const planes")
	}
	if DefiniteDiffMask(zero, one) != ^uint64(0) {
		t.Fatal("DefiniteDiffMask misses 0 vs 1")
	}
	if DefiniteDiffMask(zero, x) != 0 || DefiniteDiffMask(x, x) != 0 {
		t.Fatal("DefiniteDiffMask counts X")
	}
	if FirstLane(0) != 64 || FirstLane(1<<13) != 13 {
		t.Fatal("FirstLane broken")
	}
}

// TestEvalKindPackedMatchesLUT proves every specialized bitplane
// formula extensionally equal to the scalar gate LUT: all 3^n uniform
// input vectors, each checked on all 64 lanes at once, plus random
// mixed-lane planes.
func TestEvalKindPackedMatchesLUT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range gates.Kinds() {
		n := gates.Get(kind).NIn
		lut := CompileGateLUT(kind)
		// Uniform lanes: every ternary vector broadcast to 64 lanes.
		for idx := 0; idx < Pow3(n); idx++ {
			vec := TernaryVector(idx, n)
			in := make([]PackedVec, n)
			for i, v := range vec {
				in[i] = ConstPacked(v)
			}
			got := EvalGatePacked(kind, in)
			want := ConstPacked(lut[idx])
			if got != want {
				t.Errorf("%v%v: packed %+v, scalar %v", kind, vec, got, lut[idx])
			}
		}
		// Mixed lanes: random per-lane vectors, checked lane by lane.
		for trial := 0; trial < 50; trial++ {
			in := make([]PackedVec, n)
			for i := range in {
				in[i] = PackedVec{Val: rng.Uint64(), Known: rng.Uint64()}
			}
			got := EvalGatePacked(kind, in)
			if got != got.Canon() {
				t.Fatalf("%v: non-canonical output %+v", kind, got)
			}
			scalarIn := make([]V, n)
			for k := 0; k < 64; k++ {
				for i := range in {
					scalarIn[i] = in[i].Get(k)
				}
				want := lut[TernaryIndex(scalarIn)]
				if got.Get(k) != want {
					t.Fatalf("%v lane %d %v: packed %v, scalar %v",
						kind, k, scalarIn, got.Get(k), want)
				}
			}
		}
	}
}

// TestEvalLUTPackedGeneric: the generic mask-loop evaluator agrees with
// the specialized path (it is the fallback for fault behaviour tables).
func TestEvalLUTPackedGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range gates.Kinds() {
		n := gates.Get(kind).NIn
		lut := CompileGateLUT(kind)
		for trial := 0; trial < 30; trial++ {
			in := make([]PackedVec, n)
			for i := range in {
				in[i] = PackedVec{Val: rng.Uint64(), Known: rng.Uint64()}.Canon()
			}
			if got, want := EvalLUTPacked(lut, in), EvalGatePacked(kind, in); got != want {
				t.Fatalf("%v: generic %+v vs specialized %+v", kind, got, want)
			}
		}
	}
}

// TestEvalPackedMatchesEvalInto: full-circuit packed simulation is
// lane-for-lane identical to the scalar compiled evaluation.
func TestEvalPackedMatchesEvalInto(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(s)
OUTPUT(co)
n1 = NAND(a, b)
x1 = XOR(a, b, c)
s = NOT(x1)
co = MAJ(a, b, n1)
`
	c := mustParse(t, src)
	cc := c.Compiled()
	rng := rand.New(rand.NewSource(4))
	in := make([]PackedVec, len(c.Inputs))
	lanePatterns := make([]map[string]V, 64)
	for k := range lanePatterns {
		p := map[string]V{}
		for i, pi := range c.Inputs {
			v := V(rng.Intn(3))
			p[pi] = v
			in[i] = in[i].WithLane(k, v)
		}
		lanePatterns[k] = p
	}
	vals := cc.EvalBlock(in, 1, make([]PackedVec, cc.NumNets()))
	scratch := make([]V, cc.NumNets())
	for k, p := range lanePatterns {
		cc.EvalInto(p, scratch)
		for id, name := range cc.NetName {
			if vals[id].Get(k) != scratch[id] {
				t.Fatalf("lane %d net %s: packed %v, scalar %v",
					k, name, vals[id].Get(k), scratch[id])
			}
		}
	}
}
