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

// bothCampaign is one (circuit, patterns) shape for the one-sweep
// tests: c17 exhaustive, then random pattern counts on one random
// circuit chosen to cover every lane-block width — one 64-lane word
// with spare lanes (1–40 patterns), 128 and 256 lanes, and two chunks at
// 300. The skewed list repeats one vector over its whole first chunk, so
// faults that leak there but only differ in the second chunk make the
// +IDDQ and voltage answers land in different chunks. The last shape is
// parity16, whose one fanout-free region spans the whole circuit, so
// every worker range cut at region boundaries holds all its faults.
type bothCampaign struct {
	name     string
	c        *logic.Circuit
	patterns []Pattern
}

func bothCampaigns(rng *rand.Rand) []bothCampaign {
	c17 := bench.C17()
	out := []bothCampaign{{"c17/exhaustive", c17, ExhaustivePatterns(c17)}}
	rc := bench.Random(rng.Int63(), 7, 24)
	for _, n := range []int{1, 7, 20, 40, 100, 256, 300} {
		out = append(out, bothCampaign{fmt.Sprintf("%s/%d", rc.Name, n), rc, randomTernaryPatterns(rng, rc, n)})
	}
	skewed := randomTernaryPatterns(rng, rc, 300)
	for k := 1; k < 256; k++ {
		skewed[k] = skewed[0]
	}
	parity := bench.ParityTree(16)
	return append(out,
		bothCampaign{rc.Name + "/300-skewed", rc, skewed},
		bothCampaign{parity.Name + "/100", parity, randomTernaryPatterns(rng, parity, 100)})
}

func transistorUniverse(c *logic.Circuit) []core.Fault {
	return core.Universe(c, core.UniverseOptions{ChannelBreak: true, StuckOn: true, Polarity: true})
}

func sameDetections(t *testing.T, label string, faults []core.Fault, want, got []Detection) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d detections, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: fault %v: got (%q, %d), want (%q, %d)",
				label, faults[i], got[i].Method, got[i].Pattern, want[i].Method, want[i].Pattern)
		}
	}
}

// TestRunTransistorBothMatchesSeparateSweeps is the one-sweep call's
// differential test: on both engines, every campaign shape, one and
// three workers, with and without signature capture, RunTransistorBoth must
// return exactly what the voltage-only and the +IDDQ RunTransistor
// sweeps return, and a capture must hold the planes the captured +IDDQ
// sweep records. The reference oracle sweeps a fault sample.
func TestRunTransistorBothMatchesSeparateSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(20150310))
	ctx := context.Background()
	for _, cs := range bothCampaigns(rng) {
		universe := transistorUniverse(cs.c)
		for _, eng := range []Engine{EnginePacked, EngineReference} {
			faults := universe
			if eng == EngineReference {
				faults = subsample(rng, universe, 48)
			}
			label := fmt.Sprintf("%s %v", cs.name, eng)
			wantV, err := withEngine(cs.c, eng).RunTransistor(faults, cs.patterns, false)
			if err != nil {
				t.Fatalf("%s: voltage sweep: %v", label, err)
			}
			ref := withEngine(cs.c, eng)
			wantSig := NewSignatureCapture(len(faults), len(cs.patterns))
			ref.Signatures = wantSig
			wantQ, err := ref.RunTransistor(faults, cs.patterns, true)
			if err != nil {
				t.Fatalf("%s: +IDDQ sweep: %v", label, err)
			}
			for _, workers := range []int{1, 3} {
				for _, capture := range []bool{false, true} {
					at := fmt.Sprintf("%s workers=%d capture=%t", label, workers, capture)
					s := withEngine(cs.c, eng)
					var sig *SignatureCapture
					if capture {
						sig = NewSignatureCapture(len(faults), len(cs.patterns))
						s.Signatures = sig
					}
					v, q, err := s.RunTransistorBoth(ctx, faults, cs.patterns, workers)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					sameDetections(t, at+" voltage", faults, wantV, v)
					sameDetections(t, at+" +IDDQ", faults, wantQ, q)
					if !capture {
						continue
					}
					for i := range faults {
						if !wordsEqual(sig.Out(i), wantSig.Out(i)) || !wordsEqual(sig.Leak(i), wantSig.Leak(i)) {
							t.Errorf("%s: fault %v: capture (%x, %x), +IDDQ sweep (%x, %x)",
								at, faults[i], sig.Out(i), sig.Leak(i), wantSig.Out(i), wantSig.Leak(i))
						}
					}
				}
			}
		}
	}
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

// TestRunTransistorBothCostsVoltageEvals pins that the +IDDQ answer
// costs no extra evaluation: for the same faults and patterns the
// one-sweep call makes exactly the packed gate evaluations of the
// voltage-only sweep, both in the engine counter and in the progress
// stream, on every campaign shape. Progress counts the voltage
// detections. Neither count may depend on the worker count: at one, two
// and three workers each fanout-free region's observability masks are
// computed once, by one worker, so the one-sweep call makes the same
// evaluations every time (perfbench's per-layer counts and /metrics read
// these counters).
func TestRunTransistorBothCostsVoltageEvals(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	ctx := context.Background()
	for _, cs := range bothCampaigns(rng) {
		faults := transistorUniverse(cs.c)
		var oneEvals uint64
		var oneProg Progress
		for _, workers := range []int{1, 2, 3} {
			// sweep runs one call on a fresh simulator and returns its
			// packed gate evaluations (engine counter delta) and its last
			// progress snapshot.
			sweep := func(call func(*Simulator) error) (uint64, Progress) {
				s := New(cs.c)
				var last Progress
				s.Progress = func(p Progress) { last = p }
				before := ReadEngineStats().PackedGateEvals
				if err := call(s); err != nil {
					t.Fatalf("%s workers=%d: %v", cs.name, workers, err)
				}
				return ReadEngineStats().PackedGateEvals - before, last
			}
			var volt []Detection
			wantEvals, wantProg := sweep(func(s *Simulator) (err error) {
				volt, err = s.RunTransistorParallel(ctx, faults, cs.patterns, false, workers)
				return err
			})
			gotEvals, gotProg := sweep(func(s *Simulator) error {
				_, _, err := s.RunTransistorBoth(ctx, faults, cs.patterns, workers)
				return err
			})
			if gotEvals != wantEvals || gotProg.GateEvals != wantProg.GateEvals {
				t.Errorf("%s workers=%d: one sweep made %d packed evals (progress %d), voltage sweep %d (%d)",
					cs.name, workers, gotEvals, gotProg.GateEvals, wantEvals, wantProg.GateEvals)
			}
			if gotProg.Stage != "transistor" || gotProg.Done != len(faults) || gotProg.Detected != Summarise(volt).Detected {
				t.Errorf("%s workers=%d: last progress %+v, want transistor %d/%d with %d detected",
					cs.name, workers, gotProg, len(faults), len(faults), Summarise(volt).Detected)
			}
			if workers == 1 {
				oneEvals, oneProg = gotEvals, gotProg
			} else if gotEvals != oneEvals || gotProg.GateEvals != oneProg.GateEvals {
				t.Errorf("%s workers=%d: one sweep made %d packed evals (progress %d), %d (%d) at one worker",
					cs.name, workers, gotEvals, gotProg.GateEvals, oneEvals, oneProg.GateEvals)
			}
		}
	}
}
