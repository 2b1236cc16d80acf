package logic

import (
	"testing"
	"testing/quick"

	"cpsinw/internal/gates"
)

// TestHookedIdentityProperty: EvalHooked with identity hooks must equal
// Eval on every net for random assignments.
func TestHookedIdentityProperty(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	identity := TernaryHooks{
		Stem: func(_ string, v V) V { return v },
		Pin:  func(_, _ int, v V) V { return v },
	}
	f := func(a, b, ci uint8) bool {
		tern := func(x uint8) V {
			switch x % 3 {
			case 0:
				return L0
			case 1:
				return L1
			}
			return LX
		}
		assign := map[string]V{"a": tern(a), "b": tern(b), "cin": tern(ci)}
		plain := c.Eval(assign)
		hooked := c.EvalHooked(assign, identity)
		for net, v := range plain {
			if hooked[net] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTernaryMonotonicityProperty: refining an X input to a binary value
// must never change an already-defined net (ternary simulation is
// monotone in the information order) — the property PODEM's soundness
// argument rests on.
func TestTernaryMonotonicityProperty(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	f := func(a, b uint8, refined bool) bool {
		tern := func(x uint8) V {
			switch x % 3 {
			case 0:
				return L0
			case 1:
				return L1
			}
			return LX
		}
		partial := map[string]V{"a": tern(a), "b": tern(b), "cin": LX}
		full := map[string]V{"a": tern(a), "b": tern(b), "cin": FromBool(refined)}
		before := c.Eval(partial)
		after := c.Eval(full)
		for net, v := range before {
			if v == LX {
				continue
			}
			if after[net] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGateLUTMonotone: every known entry of every library gate's
// compiled ternary table equals the table at each binary completion of
// its X inputs, so refining an X input never changes a known output.
// The packed fault simulator's definite-flip rule rests on this
// (internal/faultsim credits a fault only in the lanes where it
// definitely flips its site, and its observability walk flips only a
// net's known lanes): by induction over a circuit's
// topological order, a lane whose faulty site value is X, or whose good
// value is, reaches every primary output as X or as the good value,
// never as a definite mismatch.
func TestGateLUTMonotone(t *testing.T) {
	refined := 0 // known entries with at least one X input
	for _, kind := range gates.Kinds() {
		lut := CompileGateLUT(kind)
		n := gates.Get(kind).NIn
		for idx, out := range lut {
			if out == LX {
				continue
			}
			in := TernaryVector(idx, n)
			var xs []int
			for i, v := range in {
				if v == LX {
					xs = append(xs, i)
				}
			}
			if len(xs) > 0 {
				refined++
			}
			for bits := 0; bits < 1<<len(xs); bits++ {
				comp := append([]V(nil), in...)
				for k, i := range xs {
					comp[i] = FromBool(bits>>k&1 == 1)
				}
				if got := lut[TernaryIndex(comp)]; got != out {
					t.Errorf("%v: %v gives %v, its completion %v gives %v", kind, in, out, comp, got)
				}
			}
		}
	}
	if refined == 0 {
		t.Fatal("no known entry has an X input: the check is vacuous")
	}
}

// TestSwitchMatchesGateFunctionProperty: the switch-level solver agrees
// with the Boolean function for every library gate under random binary
// vectors (randomised version of the exhaustive check).
func TestSwitchMatchesGateFunctionProperty(t *testing.T) {
	f := func(kidx uint8, vec uint8) bool {
		kinds := gates.Kinds()
		spec := gates.Get(kinds[int(kidx)%len(kinds)])
		v := int(vec) % (1 << spec.NIn)
		bits := spec.InputVector(v)
		in := make([]V, spec.NIn)
		for i, b := range bits {
			in[i] = FromBool(b)
		}
		res := EvalSwitch(spec, in, nil, nil)
		return res.Out == FromBool(spec.Eval(bits)) && !res.Leak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestChargeRetentionProperty: with every transistor broken, the gate
// output retains whatever the previous state held, for any library gate
// and any vector.
func TestChargeRetentionProperty(t *testing.T) {
	f := func(kidx, vec uint8, prevBit bool) bool {
		kinds := gates.Kinds()
		spec := gates.Get(kinds[int(kidx)%len(kinds)])
		faults := map[string]TFault{}
		for _, tr := range spec.Transistors {
			faults[tr.Name] = TFaultOpen
		}
		v := int(vec) % (1 << spec.NIn)
		bits := spec.InputVector(v)
		in := make([]V, spec.NIn)
		for i, b := range bits {
			in[i] = FromBool(b)
		}
		prev := map[string]V{"out": FromBool(prevBit)}
		res := EvalSwitch(spec, in, faults, prev)
		return res.Out == FromBool(prevBit) && res.OutStrength == SCharge
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPackedVsTernaryProperty: packed 64-way simulation over the
// compiled IR agrees with ternary simulation on binary assignments for
// the full adder.
func TestPackedVsTernaryProperty(t *testing.T) {
	c := mustParse(t, fullAdderBench)
	cc := c.Compile()
	f := func(wa, wb, wc uint64) bool {
		word := map[string]uint64{"a": wa, "b": wb, "cin": wc}
		in := make([]PackedVec, len(c.Inputs))
		for i, pi := range c.Inputs {
			in[i] = PackedVec{Val: word[pi], Known: ^uint64(0)}
		}
		vals := cc.EvalBlock(in, 1, make([]PackedVec, cc.NumNets()))
		for p := 0; p < 64; p += 11 {
			assign := map[string]V{
				"a":   FromBool(wa>>uint(p)&1 == 1),
				"b":   FromBool(wb>>uint(p)&1 == 1),
				"cin": FromBool(wc>>uint(p)&1 == 1),
			}
			serial := c.Eval(assign)
			for _, po := range c.Outputs {
				want, _ := serial[po].Bool()
				if (vals[cc.NetID[po]].Val>>uint(p)&1 == 1) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
