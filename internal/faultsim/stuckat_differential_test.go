package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// RunStuckAt reads each line stuck-at fault's detections off its site
// net's observability mask (the packed engine's event-driven walk). It
// must be bit-identical to the full-circuit sweep it replaced, kept
// here as the oracle: per 64-pattern chunk one
// fault-free evaluation, then one whole-circuit evaluation per line
// fault with the fault forced, fault dropping on unless a signature
// capture is attached. Same detection method, same first detecting
// pattern, same captured signature rows.

// oraclePackChunk packs up to 64 patterns into binary input planes:
// missing or X inputs read 0 and every lane is known.
func oraclePackChunk(c *logic.Circuit, patterns []Pattern) []logic.PackedVec {
	in := make([]logic.PackedVec, len(c.Inputs))
	for k, p := range patterns {
		for i, pi := range c.Inputs {
			if v, ok := p[pi]; ok && v == logic.L1 {
				in[i].Val |= 1 << uint(k)
			}
		}
	}
	for i := range in {
		in[i].Known = ^uint64(0)
	}
	return in
}

// oracleEvalChunk evaluates the whole circuit on one chunk with a line
// stuck-at forced: a stem fault overrides the net's plane wherever the
// net is produced (primary input or gate output), a pin fault
// overrides a single gate's fanin read.
func oracleEvalChunk(cc *logic.CompiledCircuit, in []logic.PackedVec, f core.Fault, force logic.PackedVec, vals []logic.PackedVec) {
	stem := -1
	if f.Pin < 0 {
		if id, ok := cc.NetID[f.Net]; ok {
			stem = id
		}
	}
	for i, id := range cc.InputID {
		v := in[i]
		if id == stem {
			v = force
		}
		vals[id] = v
	}
	var buf [3]logic.PackedVec
	for _, gi := range cc.Order {
		fin := cc.Fanin[gi]
		for k, nid := range fin {
			v := vals[nid]
			if gi == f.GateIdx && k == f.Pin {
				v = force
			}
			buf[k] = v
		}
		on := cc.GateOut[gi]
		nv := logic.EvalKindPacked(cc.Kinds[gi], cc.LUT[gi], buf[:len(fin)])
		if on == stem {
			nv = force
		}
		vals[on] = nv
	}
}

// oracleStuckAt is the pattern-outer full-circuit sweep. A non-nil sig
// records every detecting pattern and disables fault dropping.
func oracleStuckAt(c *logic.Circuit, faults []core.Fault, patterns []Pattern, sig *SignatureCapture) []Detection {
	out := make([]Detection, len(faults))
	for i := range out {
		out[i] = Detection{Pattern: -1}
	}
	cc := c.Compile()
	good := make([]logic.PackedVec, cc.NumNets())
	faulty := make([]logic.PackedVec, cc.NumNets())
	for base := 0; base < len(patterns); base += 64 {
		chunk := patterns[base:min(base+64, len(patterns))]
		in := oraclePackChunk(c, chunk)
		valid := ^uint64(0)
		if len(chunk) < 64 {
			valid = (1 << uint(len(chunk))) - 1
		}
		cc.EvalBlock(in, 1, good)
		for i, f := range faults {
			if !f.Kind.IsLineFault() || (out[i].Detected() && sig == nil) {
				continue
			}
			force := logic.ConstPacked(logic.L0)
			if f.Kind == core.FaultSA1 {
				force = logic.ConstPacked(logic.L1)
			}
			oracleEvalChunk(cc, in, f, force, faulty)
			var diff uint64
			for _, po := range cc.OutputID {
				diff |= logic.DefiniteDiffMask(good[po], faulty[po]) & valid
			}
			if diff == 0 {
				continue
			}
			if sig != nil {
				sig.out[i*sig.words+base>>6] |= diff
			}
			if !out[i].Detected() {
				out[i].Method, out[i].Pattern = ByOutput, base+logic.FirstLane(diff)
			}
		}
	}
	return out
}

// stuckAtCircuits are the differential suite's circuits: small
// reconvergent logic, arithmetic, the ISCAS-85-scale reconstructions
// and a wide parity tree.
var stuckAtCircuits = []string{"c17", "mult3", "c432", "c499", "alu8", "rca16", "parity32"}

// stuckAtPatternCounts straddle every lane-block boundary: one
// pattern, short lists that leave most lanes spare, one full 64-lane
// word, and the 128- and 256-lane blocks with their partial tails.
var stuckAtPatternCounts = []int{1, 3, 17, 64, 100, 256, 300}

// mixedLineFaults is the line stuck-at universe with non-line faults
// interleaved, which the sweep must leave undetected and skip. It
// leads with line faults naming no net of the circuit or an
// out-of-range pin: never excited, and swept beside real faults.
func mixedLineFaults(rng *rand.Rand, c *logic.Circuit) []core.Fault {
	line := core.Universe(c, core.ClassicalOnly())
	other := core.Universe(c, core.UniverseOptions{Polarity: true, GOS: true})
	out := []core.Fault{
		{Kind: core.FaultSA0, Net: "nope", GateIdx: -1, Pin: -1},
		{Kind: core.FaultSA1, Net: c.Inputs[0], GateIdx: 0, Pin: 7},
		{Kind: core.FaultSA1, Net: c.Inputs[0], GateIdx: len(c.Gates), Pin: 0},
	}
	for _, f := range line {
		out = append(out, f)
		if rng.Intn(8) == 0 && len(other) > 0 {
			out = append(out, other[rng.Intn(len(other))])
		}
	}
	return out
}

// diffStuckAt compares the packed engine against the sweep: detections,
// and signature rows when both captured.
func diffStuckAt(t *testing.T, label string, faults []core.Fault, want, got []Detection, wantSig, gotSig *SignatureCapture) {
	t.Helper()
	diffDetections(t, label, faults, want, got)
	if wantSig == nil {
		return
	}
	for i := range faults {
		if !slices.Equal(wantSig.Out(i), gotSig.Out(i)) {
			t.Errorf("%s: fault %v: sweep signature %x vs packed %x", label, faults[i], wantSig.Out(i), gotSig.Out(i))
		}
	}
}

// TestStuckAtSeedWalkMatchesSweep pins the packed engine to the old sweep
// on every suite circuit, pattern count and capture mode, with X and
// missing inputs in the patterns and non-line faults in the list.
func TestStuckAtSeedWalkMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20151020))
	for _, name := range stuckAtCircuits {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := mixedLineFaults(rng, c)
		for _, n := range stuckAtPatternCounts {
			patterns := randomTernaryPatterns(rng, c, n)
			for _, capture := range []bool{false, true} {
				label := fmt.Sprintf("%s/%dpat/capture=%t", name, n, capture)
				var wantSig, gotSig *SignatureCapture
				if capture {
					wantSig = NewSignatureCapture(len(faults), n)
					gotSig = NewSignatureCapture(len(faults), n)
				}
				want := oracleStuckAt(c, faults, patterns, wantSig)
				s := New(c)
				s.Signatures = gotSig
				got := s.RunStuckAt(faults, patterns)
				diffStuckAt(t, label, faults, want, got, wantSig, gotSig)
			}
		}
	}
}

// TestStuckAtSeedWalkLaneWidths repeats the comparison with the lane
// block pinned to each width, so multi-chunk sweeps and blocks mostly
// of spare lanes are both covered at 64, 128 and 256 lanes.
func TestStuckAtSeedWalkLaneWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(64256))
	for _, name := range []string{"c17", "mult3", "c432"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := mixedLineFaults(rng, c)
		for _, n := range stuckAtPatternCounts {
			patterns := randomTernaryPatterns(rng, c, n)
			want := oracleStuckAt(c, faults, patterns, nil)
			for _, w := range []int{1, 2, 4} {
				s := New(c)
				s.laneWords = w
				diffStuckAt(t, fmt.Sprintf("%s/%dpat/w%d", name, n, w), faults, want, s.RunStuckAt(faults, patterns), nil, nil)
			}
		}
	}
}

// TestStuckAtProgressCountsFaults: the stuck-at stage reports faults,
// not patterns — Done reaches the fault count, non-line faults land in
// Dropped — and its work is charged to the packed engine counters.
func TestStuckAtProgressCountsFaults(t *testing.T) {
	c, err := bench.Get("mult3")
	if err != nil {
		t.Fatal(err)
	}
	faults := mixedLineFaults(rand.New(rand.NewSource(3)), c)
	nonLine := 0
	for _, f := range faults {
		if !f.Kind.IsLineFault() {
			nonLine++
		}
	}
	// Only the circuit's own line faults run; the malformed ones are
	// done at resolution.
	runs := uint64(len(core.Universe(c, core.ClassicalOnly())))
	for _, n := range []int{1, 100} {
		patterns := randomTernaryPatterns(rand.New(rand.NewSource(int64(n))), c, n)
		var last Progress
		s := New(c)
		s.Progress = func(p Progress) {
			if p.Stage != "stuck_at" || p.Done < last.Done || p.GateEvals < last.GateEvals {
				t.Errorf("%d patterns: bad snapshot %+v after %+v", n, p, last)
			}
			last = p
		}
		before := ReadEngineStats()
		ds := s.RunStuckAt(faults, patterns)
		after := ReadEngineStats()
		cov := Summarise(ds)
		if last.Done != len(faults) || last.Total != len(faults) || last.Dropped != nonLine || last.Detected != cov.Detected {
			t.Errorf("%d patterns: final %+v, want done=total=%d dropped=%d detected=%d",
				n, last, len(faults), nonLine, cov.Detected)
		}
		if after.PackedGateEvals <= before.PackedGateEvals || after.PackedFaultRuns-before.PackedFaultRuns != runs {
			t.Errorf("%d patterns: packed counters moved %d evals / %d runs, want > 0 / %d",
				n, after.PackedGateEvals-before.PackedGateEvals, after.PackedFaultRuns-before.PackedFaultRuns, runs)
		}
	}
}

// TestTwoPatternCountsEngineWork: both two-pattern engines charge one
// fault run per simulated channel break to their own counters. The
// reference oracle charges its two faulty passes per swept pair to
// ReferenceGateEvals (progress also counts the good baseline pass);
// packed charges its propagation evals, which are the progress total
// minus the baseline evals reported before the first fault.
func TestTwoPatternCountsEngineWork(t *testing.T) {
	for _, eng := range []Engine{EngineReference, EnginePacked} {
		sim, faults, pairs := twoPatternCampaign(t)
		sim.Engine = eng
		var baseline uint64
		var last Progress
		sim.Progress = func(p Progress) {
			if p.Done == 0 {
				baseline = p.GateEvals
			}
			last = p
		}
		before := ReadEngineStats()
		ds, err := sim.RunTwoPattern(faults, pairs)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		after := ReadEngineStats()
		runs := uint64(len(faults)) // the universe holds channel breaks only
		refRuns := after.ReferenceFaultRuns - before.ReferenceFaultRuns
		refEvals := after.ReferenceGateEvals - before.ReferenceGateEvals
		packedRuns := after.PackedFaultRuns - before.PackedFaultRuns
		packedEvals := after.PackedGateEvals - before.PackedGateEvals
		if eng == EngineReference {
			swept := uint64(0)
			for _, d := range ds {
				if d.Detected() {
					swept += uint64(d.Pattern + 1)
				} else {
					swept += uint64(len(pairs))
				}
			}
			passes := swept * uint64(len(sim.C.Gates))
			if refRuns != runs || refEvals != 2*passes || last.GateEvals != 3*passes || packedRuns != 0 || packedEvals != 0 {
				t.Errorf("reference: %d runs / %d evals (progress %d), packed %d / %d; want %d / %d (progress %d), 0 / 0",
					refRuns, refEvals, last.GateEvals, packedRuns, packedEvals, runs, 2*passes, 3*passes)
			}
			continue
		}
		if packedRuns != runs || packedEvals == 0 || packedEvals != last.GateEvals-baseline || refRuns != 0 || refEvals != 0 {
			t.Errorf("packed: %d runs / %d evals (progress %d, baseline %d), reference %d / %d; want %d / progress minus baseline, 0 / 0",
				packedRuns, packedEvals, last.GateEvals, baseline, refRuns, refEvals, runs)
		}
	}
}

// TestStuckAtCancel: a canceled context stops the sweep with the
// context's error and every fault slot initialized.
func TestStuckAtCancel(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := core.Universe(c, core.ClassicalOnly())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 100} {
		ds, err := New(c).RunStuckAtContext(ctx, faults, randomTernaryPatterns(rand.New(rand.NewSource(1)), c, n))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d patterns: err = %v, want context.Canceled", n, err)
		}
		if len(ds) != len(faults) || ds[0] != (Detection{Pattern: -1}) {
			t.Errorf("%d patterns: partial detections not initialized: %+v", n, ds[:1])
		}
	}
}
