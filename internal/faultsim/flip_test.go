package faultsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// xOnlyCampaign is a c17 campaign whose every fault drives its gate's
// output to X or to the good value, never to a definite flip: the
// faults are gate g10's, and every (test) pattern leaves g10's input i1
// at X while i3 = 0 keeps the good NAND2 output at 1. A transistor
// fault's table gives X on any X input, and a channel break's pair ends
// on the same test vector, so no lane can ever be detected by voltage.
// The other inputs are random and binary, so n10's fanout cone is live.
func xOnlyCampaign(rng *rand.Rand, n int) (c *logic.Circuit, faults []core.Fault, patterns []Pattern) {
	c = bench.C17()
	for _, f := range transistorUniverse(c) {
		if f.Gate == "g10" {
			faults = append(faults, f)
		}
	}
	patterns = make([]Pattern, n)
	for k := range patterns {
		p := Pattern{"i3": logic.L0}
		for _, pi := range []string{"i2", "i4", "i5"} {
			p[pi] = logic.FromBool(rng.Intn(2) == 1)
		}
		patterns[k] = p
	}
	return c, faults, patterns
}

// TestXOnlyLanesNeverPropagate pins the definite-flip rule: a fault
// whose only effect is X never needs its site's observability mask. On
// one chunk (8 patterns) and two (300), in every sweep mode and with one
// and two workers, the campaign makes exactly one site evaluation per
// fault per lane word and no propagation, in the engine counter and in
// the progress stream (which adds the baseline passes, one per gate per
// lane word of each of the pack's chunks). The
// channel-break pair loop flips by the same rule, so its campaign makes
// no packed evaluation at all. Both engines must agree that nothing is
// detected by voltage.
func TestXOnlyLanesNeverPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	// measure runs one call on a fresh packed simulator and returns its
	// packed gate evaluations and its last progress snapshot.
	measure := func(c *logic.Circuit, call func(*Simulator) error) (uint64, Progress) {
		t.Helper()
		s := New(c)
		s.EnsureCompiled()
		var last Progress
		s.Progress = func(p Progress) { last = p }
		before := ReadEngineStats().PackedGateEvals
		if err := call(s); err != nil {
			t.Fatal(err)
		}
		return ReadEngineStats().PackedGateEvals - before, last
	}
	for _, n := range []int{8, 300} {
		c, faults, patterns := xOnlyCampaign(rng, n)
		seeds := uint64(len(faults) * ((n + 63) / 64))
		ref, err := withEngine(c, EngineReference).RunTransistor(faults, patterns, false)
		if err != nil {
			t.Fatal(err)
		}
		if cov := Summarise(ref); cov.Detected != 0 {
			t.Fatalf("%d patterns: the reference detects %d faults by voltage; the campaign is not X-only", n, cov.Detected)
		}
		for _, workers := range []int{1, 2} {
			for _, mode := range []sweepMode{voltageOnly, iddqOnly, bothAnswers} {
				label := fmt.Sprintf("%d patterns, mode %d, %d workers", n, mode, workers)
				var volt []Detection
				var base uint64
				evals, prog := measure(c, func(s *Simulator) (err error) {
					sw := s.NewSweep(PatternSetOf(c, patterns))
					defer sw.Close()
					out, v, err := sw.runTransistor(ctx, faults, mode, workers)
					for _, pb := range sw.packs[0].bases {
						base += uint64(len(c.Gates) * pb.w)
					}
					volt = v
					if mode != bothAnswers {
						volt = out
					}
					return err
				})
				sameDetections(t, label, faults, ref, volt)
				if evals != seeds || prog.GateEvals != base+seeds {
					t.Errorf("%s: %d packed evals (progress %d), want %d seed evals (progress %d with the baseline)",
						label, evals, prog.GateEvals, seeds, base+seeds)
				}
			}
		}
	}

	c, faults, tests := xOnlyCampaign(rng, 300)
	pairs := make([][2]Pattern, len(tests))
	for k, p := range tests {
		init := Pattern{}
		for _, pi := range c.Inputs {
			init[pi] = logic.FromBool(rng.Intn(2) == 1)
		}
		pairs[k] = [2]Pattern{init, p}
	}
	ref, err := withEngine(c, EngineReference).RunTwoPattern(faults, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(ref); cov.Detected != 0 {
		t.Fatalf("the reference detects %d channel breaks; the pair campaign is not X-only", cov.Detected)
	}
	var got []Detection
	evals, prog := measure(c, func(s *Simulator) (err error) {
		got, err = s.RunTwoPattern(faults, pairs)
		return err
	})
	sameDetections(t, "pairs", faults, ref, got)
	w := New(c).laneWordsFor(len(pairs))
	base := uint64(2 * ((len(pairs) + 64*w - 1) / (64 * w)) * len(c.Gates) * w)
	if evals != 0 || prog.GateEvals != base {
		t.Errorf("pairs: %d packed evals (progress %d), want none (progress %d, the two baselines)", evals, prog.GateEvals, base)
	}
}

// TestCaptureRetiresAtLastFlip pins that capture costs no propagation
// on a one-chunk campaign: a fault's full signature is its flip lanes
// ANDed with its site's observability mask, the same mask its first
// detection reads. On mult8 with 256 random patterns (one 256-lane
// chunk: both sweeps pin the width, or the uncaptured one would open
// with a head chunk) the captured one-sweep call makes exactly the
// packed evaluations of the uncaptured one.
func TestCaptureRetiresAtLastFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := bench.Multiplier(8)
	faults := transistorUniverse(c)
	patterns := make([]Pattern, 256)
	for k := range patterns {
		p := Pattern{}
		for _, pi := range c.Inputs {
			p[pi] = logic.FromBool(rng.Intn(2) == 1)
		}
		patterns[k] = p
	}
	sweep := func(capture bool) (uint64, []Detection) {
		s := New(c)
		s.EnsureCompiled()
		s.laneWords = 4
		if capture {
			s.Signatures = NewSignatureCapture(len(faults), len(patterns))
		}
		before := ReadEngineStats().PackedGateEvals
		v, _, err := s.RunTransistorBoth(context.Background(), faults, patterns, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ReadEngineStats().PackedGateEvals - before, v
	}
	plain, want := sweep(false)
	captured, got := sweep(true)
	sameDetections(t, "captured", faults, want, got)
	if captured != plain {
		t.Errorf("captured sweep made %d packed evals, uncaptured %d", captured, plain)
	}
}
