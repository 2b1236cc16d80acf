package faultsim_test

import (
	"context"
	"math/rand"
	"testing"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

// The signature sink must not perturb detections, and the harvested
// bitsets must be bit-identical to the atpg.ExecuteAll tester oracle
// (one StepLogic per pattern, plus one StepIDDQ per pattern when the
// campaign observes IDDQ) on every engine, every lane-block width and
// across the 64-lane chunk boundaries. Patterns are fully defined:
// the dictionary models tester responses, and a tester always drives
// every input.

// captureEngines spans every engine path: the serial oracle and the
// packed engine at each lane-block width (small pattern counts at w>=1
// also exercise the fault-packed grouped path).
var captureEngines = []struct {
	name      string
	engine    faultsim.Engine
	laneWords int
}{
	{"reference", faultsim.EngineReference, 0},
	{"packed-w1", faultsim.EnginePacked, 1},
	{"packed-w2", faultsim.EnginePacked, 2},
	{"packed-w4", faultsim.EnginePacked, 4},
}

// binaryPatterns draws fully-defined random patterns.
func binaryPatterns(rng *rand.Rand, c *logic.Circuit, n int) []faultsim.Pattern {
	out := make([]faultsim.Pattern, n)
	for k := range out {
		p := faultsim.Pattern{}
		for _, pi := range c.Inputs {
			p[pi] = logic.FromBool(rng.Intn(2) == 1)
		}
		out[k] = p
	}
	return out
}

// sampleFaults bounds a fault list while keeping its order.
func sampleFaults(rng *rand.Rand, faults []core.Fault, max int) []core.Fault {
	if len(faults) <= max {
		return faults
	}
	keep := make([]core.Fault, 0, max)
	for i, f := range faults {
		remain := len(faults) - i
		need := max - len(keep)
		if need <= 0 {
			break
		}
		if rng.Intn(remain) < need {
			keep = append(keep, f)
		}
	}
	return keep
}

// captureProgram builds the tester program the capture bitsets model:
// logic steps 0..P-1, then (when IDDQ is observed) IDDQ steps P..2P-1.
func captureProgram(c *logic.Circuit, patterns []faultsim.Pattern, useIDDQ bool) *atpg.Program {
	p := &atpg.Program{Circuit: c}
	for _, pat := range patterns {
		vals := c.Eval(map[string]logic.V(pat))
		expect := map[string]logic.V{}
		for _, po := range c.Outputs {
			expect[po] = vals[po]
		}
		p.Steps = append(p.Steps, atpg.Step{Kind: atpg.StepLogic, Pattern: pat, Expect: expect})
	}
	if useIDDQ {
		for _, pat := range patterns {
			p.Steps = append(p.Steps, atpg.Step{Kind: atpg.StepIDDQ, Pattern: pat})
		}
	}
	return p
}

// oracleBits splits an ExecuteAll signature into out/leak bitset rows.
func oracleBits(sig atpg.Signature, nPatterns int) (out, leak []uint64) {
	words := (nPatterns + 63) / 64
	out = make([]uint64, words)
	leak = make([]uint64, words)
	for _, step := range sig {
		if step < nPatterns {
			out[step>>6] |= 1 << uint(step&63)
		} else {
			k := step - nPatterns
			leak[k>>6] |= 1 << uint(k&63)
		}
	}
	return out, leak
}

func wordsEqual(a, b []uint64) bool {
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

func checkCapture(t *testing.T, label string, faults []core.Fault, sig *faultsim.SignatureCapture, wantOut, wantLeak [][]uint64) {
	t.Helper()
	for i := range faults {
		if !wordsEqual(sig.Out(i), wantOut[i]) {
			t.Errorf("%s: fault %v: out signature %x, oracle %x", label, faults[i], sig.Out(i), wantOut[i])
		}
		if !wordsEqual(sig.Leak(i), wantLeak[i]) {
			t.Errorf("%s: fault %v: leak signature %x, oracle %x", label, faults[i], sig.Leak(i), wantLeak[i])
		}
	}
}

func checkDetections(t *testing.T, label string, want, got []faultsim.Detection) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d detections", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Method != got[i].Method || want[i].Pattern != got[i].Pattern {
			t.Errorf("%s: fault %v: uncaptured (%q, %d) vs captured (%q, %d)",
				label, want[i].Fault, want[i].Method, want[i].Pattern, got[i].Method, got[i].Pattern)
		}
	}
}

// runCaptureCase proves one (circuit, faults, patterns, iddq) campaign:
// every engine's captured bitsets match the ExecuteAll oracle and its
// detections match an uncaptured reference run.
func runCaptureCase(t *testing.T, c *logic.Circuit, faults []core.Fault, patterns []faultsim.Pattern, useIDDQ bool) {
	t.Helper()
	ref := faultsim.New(c)
	ref.Engine = faultsim.EngineReference
	want, err := ref.RunTransistor(faults, patterns, useIDDQ)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	prog := captureProgram(c, patterns, useIDDQ)
	wantOut := make([][]uint64, len(faults))
	wantLeak := make([][]uint64, len(faults))
	for i := range faults {
		f := faults[i]
		wantOut[i], wantLeak[i] = oracleBits(atpg.ExecuteAll(prog, &f), len(patterns))
	}

	for _, en := range captureEngines {
		s := faultsim.New(c)
		s.Engine = en.engine
		s.LaneWords = en.laneWords
		sig := faultsim.NewSignatureCapture(len(faults), len(patterns))
		s.Signatures = sig
		got, err := s.RunTransistor(faults, patterns, useIDDQ)
		if err != nil {
			t.Fatalf("%s: %v", en.name, err)
		}
		checkDetections(t, en.name, want, got)
		checkCapture(t, en.name, faults, sig, wantOut, wantLeak)
	}
}

func TestSignatureCaptureDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20150809))
	cases := 24
	if testing.Short() {
		cases = 8
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(6), 1+rng.Intn(20))
		universe := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		faults := sampleFaults(rng, universe, 20)
		patterns := binaryPatterns(rng, c, 1+rng.Intn(140))
		runCaptureCase(t, c, faults, patterns, ci%2 == 1)
	}
}

// TestSignatureCaptureLaneBoundary pins the chunk edges explicitly: one
// pattern count on each side of the 64- and 128-lane boundaries.
func TestSignatureCaptureLaneBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(64128))
	c := bench.Random(rng.Int63(), 5, 12)
	universe := core.Universe(c, core.UniverseOptions{
		ChannelBreak: true, StuckOn: true, Polarity: true,
	})
	faults := sampleFaults(rng, universe, 12)
	for _, nPat := range []int{63, 64, 65, 127, 128, 129} {
		patterns := binaryPatterns(rng, c, nPat)
		runCaptureCase(t, c, faults, patterns, true)
	}
}

// TestStuckAtSignatureCapture proves the line-fault sweep against the
// same oracle: fault dropping is disabled while capturing, yet the
// detections match an uncaptured run.
func TestStuckAtSignatureCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(5015))
	cases := 12
	if testing.Short() {
		cases = 4
	}
	for ci := 0; ci < cases; ci++ {
		c := bench.Random(rng.Int63(), 3+rng.Intn(6), 1+rng.Intn(20))
		universe := core.Universe(c, core.ClassicalOnly())
		faults := sampleFaults(rng, universe, 24)
		patterns := binaryPatterns(rng, c, 1+rng.Intn(140))

		plain := faultsim.New(c)
		want := plain.RunStuckAt(faults, patterns)

		s := faultsim.New(c)
		sig := faultsim.NewSignatureCapture(len(faults), len(patterns))
		s.Signatures = sig
		got := s.RunStuckAt(faults, patterns)
		checkDetections(t, "stuck_at", want, got)

		prog := captureProgram(c, patterns, false)
		for i := range faults {
			f := faults[i]
			wantOut, _ := oracleBits(atpg.ExecuteAll(prog, &f), len(patterns))
			if !wordsEqual(sig.Out(i), wantOut) {
				t.Errorf("fault %v: out signature %x, oracle %x", f, sig.Out(i), wantOut)
			}
		}
	}
}

// TestParallelSignatureCapture proves the worker-pool drivers write the
// same bitsets as the serial path (disjoint fault rows, no locking).
func TestParallelSignatureCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	c := bench.Random(rng.Int63(), 6, 16)
	universe := core.Universe(c, core.UniverseOptions{
		ChannelBreak: true, StuckOn: true, Polarity: true,
	})
	patterns := binaryPatterns(rng, c, 48)
	for _, en := range captureEngines {
		serial := faultsim.New(c)
		serial.Engine = en.engine
		serial.LaneWords = en.laneWords
		wantSig := faultsim.NewSignatureCapture(len(universe), len(patterns))
		serial.Signatures = wantSig
		want, err := serial.RunTransistor(universe, patterns, true)
		if err != nil {
			t.Fatalf("%s serial: %v", en.name, err)
		}

		par := faultsim.New(c)
		par.Engine = en.engine
		par.LaneWords = en.laneWords
		sig := faultsim.NewSignatureCapture(len(universe), len(patterns))
		par.Signatures = sig
		got, err := par.RunTransistorParallel(context.Background(), universe, patterns, true, 4)
		if err != nil {
			t.Fatalf("%s parallel: %v", en.name, err)
		}
		checkDetections(t, en.name, want, got)
		for i := range universe {
			if !wordsEqual(sig.Out(i), wantSig.Out(i)) || !wordsEqual(sig.Leak(i), wantSig.Leak(i)) {
				t.Errorf("%s: fault %v: parallel capture diverges from serial", en.name, universe[i])
			}
		}
	}
}
