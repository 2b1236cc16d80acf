// Package faultsim provides the fault simulation engines of the
// reproduction: bit-parallel packed simulation for classical line
// stuck-at faults, behaviour-table injection for the CP transistor
// faults (channel break, stuck-on and the paper's stuck-at n-type /
// p-type polarity faults), IDDQ observability, and sequence-aware
// two-pattern simulation for stuck-open testing.
package faultsim

import (
	"context"
	"fmt"
	"sync"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// Pattern assigns logic values to primary inputs by name: the form of
// the edges (CLIs, JSON, examples, tests). Every sweep runs on a
// PatternSet; the []Pattern entry points convert once per call, under
// PatternSet's X rule for missing inputs.
type Pattern map[string]logic.V

// DetectMethod records how a fault was caught.
type DetectMethod string

const (
	ByNone       DetectMethod = ""
	ByOutput     DetectMethod = "output"
	ByIDDQ       DetectMethod = "iddq"
	ByTwoPattern DetectMethod = "two-pattern"
)

// Detection is the outcome for one fault or bridge: how it was caught
// and first at which pattern. Every class answers a list of them
// aligned by index with the fault or bridge slice the caller passed.
type Detection struct {
	Method  DetectMethod
	Pattern int // index of the (first) detecting pattern or pair
}

// Detected reports whether the fault was caught by any method.
func (d Detection) Detected() bool { return d.Method != ByNone }

// Simulator runs fault campaigns on one circuit.
type Simulator struct {
	C *logic.Circuit

	// Engine selects the transistor-fault, two-pattern and bridge
	// implementation: the zero value is the packed lane-block engine,
	// EngineReference the serial switch-level oracle. Line stuck-at
	// campaigns always run packed.
	Engine Engine

	// Progress, when set, receives monotone per-stage campaign snapshots
	// from every engine driver, a bounded number per stage: drivers
	// batch their per-unit deltas (see ProgressFunc for the delivery
	// contract). Set it before starting a campaign; drivers capture it
	// once at entry.
	Progress ProgressFunc

	// Signatures, when set, harvests per-fault pattern-detection bitsets
	// from the next campaign run (RunStuckAt* or the transistor
	// entry points). It must be sized for exactly that campaign's fault
	// and pattern counts; fault dropping is disabled while capturing so
	// the full signature is observed, and the returned Detections stay
	// bit-identical to an uncaptured run. Set it before starting the
	// campaign and clear it afterwards; drivers capture it once at entry.
	Signatures *SignatureCapture

	// laneWords, when 1, 2 or 4, pins the packed engine's lane-block
	// width (64, 128 or 256 ternary lanes per block); the lane-width
	// tests set it. Otherwise each campaign picks the width its pattern
	// count needs.
	laneWords int

	// Packed-engine scratch pool: the buffers and the scratch-local
	// LUT-resolution caches stay warm across the campaigns run on this
	// simulator (the service keeps a pool of simulators per circuit).
	scratchPool sync.Pool
}

// New returns a simulator for the circuit. It builds nothing: every
// simulator on the circuit shares the circuit's compiled form.
func New(c *logic.Circuit) *Simulator {
	return &Simulator{C: c}
}

// RunStuckAt fault-simulates line stuck-at faults against the pattern
// set on the packed engine. Patterns are binary here: missing or X
// inputs read 0. Non-line faults in the list are returned undetected.
// A signature capture sized for another campaign makes it return nil.
func (s *Simulator) RunStuckAt(faults []core.Fault, patterns []Pattern) []Detection {
	out, _ := s.RunStuckAtContext(context.Background(), faults, patterns)
	return out
}

// RunStuckAtContext is RunStuckAt with cooperative cancellation: it is
// RunStuckAtSet over the patterns converted to a PatternSet.
func (s *Simulator) RunStuckAtContext(ctx context.Context, faults []core.Fault, patterns []Pattern) ([]Detection, error) {
	return s.RunStuckAtSet(ctx, faults, PatternSetOf(s.C, patterns))
}

// RunStuckAtSet is RunStuckAt over a PatternSet, with cooperative
// cancellation checked between faults. With the context's error it
// returns the detections so far, every other fault undetected; with a
// signature capture sized for another campaign, nil. Each line fault
// changes one site net: a stem fault forces its net (a gate output or a
// primary input), a pin fault evaluates the reading gate with that pin
// forced, changing the gate's output. Its detecting lanes are the lanes
// where that definitely flips the site, ANDed with the site's
// observability mask, which the sweep computes once per net. Progress
// reports faults on the "stuck_at" stage (non-line faults count as
// Dropped); the engine counters charge the work to the packed engine,
// whatever the simulator's Engine.
func (s *Simulator) RunStuckAtSet(ctx context.Context, faults []core.Fault, patterns *PatternSet) ([]Detection, error) {
	out, _, err := s.runPool(ctx, s.stuckAtClass(), faults, patterns, nil, 1)
	return out, err
}

// stuckAtClass adapts line stuck-at faults to the packed driver, over
// binary baselines.
func (s *Simulator) stuckAtClass() *packedClass {
	return &packedClass{
		stage:     "stuck_at",
		binary:    true,
		simulable: func(f core.Fault) bool { return f.Kind.IsLineFault() },
		resolve:   s.stuckAtSite,
	}
}

// stuckAtSite resolves a line stuck-at fault to its seed site. A stem
// fault forces its net where it is produced: the driving gate's output,
// or a primary input (gi -1: no gate ever re-evaluates it). A pin fault
// forces one fanin read of the reading gate, whose output is the site.
// ok is false for a fault naming no net or pin of the circuit: it is
// never excited.
func (s *Simulator) stuckAtSite(sc *packedScratch, f core.Fault) (packedSite, bool, error) {
	cc := sc.cc
	st := packedSite{pin: -1, force: logic.ConstPacked(logic.L0)}
	if f.Kind == core.FaultSA1 {
		st.force = logic.ConstPacked(logic.L1)
	}
	if f.Pin < 0 {
		gi, ok := s.C.Driver(f.Net)
		if !ok {
			return st, false, nil
		}
		st.gi, st.onet = gi, cc.NetID[f.Net]
		return st, true, nil
	}
	if f.GateIdx < 0 || f.GateIdx >= len(cc.Fanin) || f.Pin >= len(cc.Fanin[f.GateIdx]) {
		return st, false, nil
	}
	st.gi, st.onet, st.pin = f.GateIdx, cc.GateOut[f.GateIdx], f.Pin
	return st, true, nil
}

// transistorHooks builds the ternary gate-override hook for a transistor
// fault plus a leak observer; floating rows evaluate to X (single-pattern
// semantics: the retained charge is unknown).
func (s *Simulator) transistorHooks(f core.Fault, leak *bool) (logic.TernaryHooks, error) {
	tf, ok := f.Kind.TFault()
	if !ok {
		return logic.TernaryHooks{}, fmt.Errorf("faultsim: %v has no switch-level model", f.Kind)
	}
	gi, ok := s.GateIndex(f.Gate)
	if !ok {
		return logic.TernaryHooks{}, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
	}
	kind := s.C.Gates[gi].Kind
	beh, err := core.GateBehavior(kind, f.Transistor, tf)
	if err != nil {
		return logic.TernaryHooks{}, err
	}
	return logic.TernaryHooks{
		Gate: func(idx int, in []logic.V) (logic.V, bool) {
			if idx != gi {
				return logic.LX, false
			}
			vec := 0
			for i, v := range in {
				b, def := v.Bool()
				if !def {
					return logic.LX, true // X at a faulty gate input: give up precision
				}
				if b {
					vec |= 1 << uint(i)
				}
			}
			row := beh.Rows[vec]
			if row.Leak && leak != nil {
				*leak = true
			}
			if row.Floating {
				return logic.LX, true
			}
			return row.Out, true
		},
	}, nil
}

// RunTransistor fault-simulates transistor faults over the pattern set.
// Output differences at POs detect by voltage; when useIDDQ is set, a
// leak signature detects by quiescent-current measurement (the paper's
// IDDQ observability for pull-up polarity faults). The simulator's
// Engine selects the implementation: bit-parallel PPSFP lane blocks by
// default, the serial hooked oracle under EngineReference; both return
// identical detections. RunTransistorParallel spreads the same work
// over a goroutine pool; RunTransistorBoth returns both answers from
// one sweep. With an error (an unknown gate, a fault kind the
// switch-level solver rejects, a mis-sized signature capture) it returns
// nil detections.
func (s *Simulator) RunTransistor(faults []core.Fault, patterns []Pattern, useIDDQ bool) ([]Detection, error) {
	out, _, err := s.runTransistor(context.Background(), faults, PatternSetOf(s.C, patterns), transistorMode(useIDDQ), 1)
	return out, err
}

// outputsDiffer reports a definite PO mismatch (X never counts).
func (s *Simulator) outputsDiffer(good, faulty map[string]logic.V) bool {
	for _, po := range s.C.Outputs {
		g, gok := good[po].Bool()
		f, fok := faulty[po].Bool()
		if gok && fok && g != f {
			return true
		}
	}
	return false
}

// RunTwoPattern simulates pattern pairs against channel-break faults with
// charge retention at the faulty gate: the first pattern initialises the
// gate output, the second exposes a floating output retaining the stale
// value. Detection requires a definite PO difference under the second
// pattern. The simulator's Engine selects the implementation: the packed
// driver over pair chunks, decoding each break's stuck-open transition
// table lane by lane, by default, the stateful switch-level oracle under
// EngineReference. With an error (an unknown gate) it returns nil
// detections.
func (s *Simulator) RunTwoPattern(faults []core.Fault, pairs [][2]Pattern) ([]Detection, error) {
	return s.RunTwoPatternContext(context.Background(), faults, pairs)
}

// RunTwoPatternContext is RunTwoPattern with cooperative cancellation
// checked between faults on both engines; with an error, the context's
// included, it returns nil detections. Both engines report progress in
// faults on the "two_pattern" stage and charge one fault run per
// simulated channel break to the engine counters.
func (s *Simulator) RunTwoPatternContext(ctx context.Context, faults []core.Fault, pairs [][2]Pattern) ([]Detection, error) {
	inits, tests := make([]Pattern, len(pairs)), make([]Pattern, len(pairs))
	for k, pair := range pairs {
		inits[k], tests[k] = pair[0], pair[1]
	}
	return s.runTwoPattern(ctx, faults, PatternSetOf(s.C, inits), PatternSetOf(s.C, tests))
}

// runTwoPattern is RunTwoPatternContext over the pairs' init and test
// patterns as two aligned sets.
func (s *Simulator) runTwoPattern(ctx context.Context, faults []core.Fault, inits, tests *PatternSet) ([]Detection, error) {
	if s.Engine == EngineReference {
		return s.runTwoPatternReference(ctx, faults, inits.Patterns(), tests.Patterns())
	}
	out, _, err := s.runPool(ctx, s.pairClass(), faults, tests, inits, 1)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].Detected() {
			out[i].Method = ByTwoPattern
		}
	}
	return out, nil
}

// runTwoPatternReference is the stateful switch-level oracle behind
// RunTwoPatternContext, one pair at a time in list order.
func (s *Simulator) runTwoPatternReference(ctx context.Context, faults []core.Fault, inits, tests []Pattern) ([]Detection, error) {
	sink := s.progressSink("two_pattern", len(faults))
	batch := progressBatch{sink: sink}
	defer batch.flush()
	out := make([]Detection, len(faults))
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = Detection{Pattern: -1}
		tf, ok := f.Kind.TFault()
		if !ok || tf != logic.TFaultOpen {
			batch.add(0, 1, 0)
			continue
		}
		gi, ok := s.GateIndex(f.Gate)
		if !ok {
			return nil, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
		}
		spec := gates.Get(s.C.Gates[gi].Kind)
		engineStats.referenceFaultRuns.Add(1)
		swept := uint64(0)
		for k := range tests {
			swept++
			if s.twoPatternDetects(spec, gi, f, inits[k], tests[k]) {
				out[i].Method = ByTwoPattern
				out[i].Pattern = k
				break
			}
		}
		// Each swept pair costs two faulty passes plus the good baseline.
		// Progress counts all three; the engine counter, like the
		// transistor oracle's, only the faulty ones.
		passes := swept * uint64(len(s.C.Gates))
		engineStats.referenceGateEvals.Add(2 * passes)
		batch.add(b2i(out[i].Detected()), 0, 3*passes)
	}
	return out, nil
}

// twoPatternDetects runs one init/test pair against one channel break.
func (s *Simulator) twoPatternDetects(spec *gates.Spec, gi int, f core.Fault, init, test Pattern) bool {
	faults := map[string]logic.TFault{f.Transistor: logic.TFaultOpen}
	var prev map[string]logic.V

	evalFaulty := func(p Pattern) map[string]logic.V {
		hooks := logic.TernaryHooks{
			Gate: func(idx int, in []logic.V) (logic.V, bool) {
				if idx != gi {
					return logic.LX, false
				}
				res := logic.EvalSwitch(spec, in, faults, prev)
				prev = res.Nodes
				return res.Out, true
			},
		}
		return s.C.EvalHooked(map[string]logic.V(p), hooks)
	}

	evalFaulty(init) // initialisation pattern
	faulty := evalFaulty(test)
	good := s.C.Eval(map[string]logic.V(test))
	return s.outputsDiffer(good, faulty)
}

// Coverage summarises a detection list. Undetected holds, ascending,
// the indices of the undetected entries: positions in the fault or
// bridge slice the list was simulated over.
type Coverage struct {
	Total      int
	Detected   int
	ByOutput   int
	ByIDDQ     int
	ByTwoPat   int
	Undetected []int
}

// Summarise builds coverage statistics for a detection list of any
// class. The undetected list is allocated once, at its final size, and
// is nil when every entry is detected.
func Summarise(ds []Detection) Coverage {
	c := Coverage{Total: len(ds)}
	for _, d := range ds {
		switch d.Method {
		case ByOutput:
			c.ByOutput++
		case ByIDDQ:
			c.ByIDDQ++
		case ByTwoPattern:
			c.ByTwoPat++
		}
	}
	c.Detected = c.ByOutput + c.ByIDDQ + c.ByTwoPat
	if c.Detected == c.Total {
		return c
	}
	c.Undetected = make([]int, 0, c.Total-c.Detected)
	for i, d := range ds {
		switch d.Method {
		case ByOutput, ByIDDQ, ByTwoPattern:
		default:
			c.Undetected = append(c.Undetected, i)
		}
	}
	return c
}

// Percent returns the fault coverage in percent.
func (c Coverage) Percent() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// ExhaustivePatterns enumerates all 2^n input patterns of a circuit
// (intended for small circuits; callers should bound n): the maps of
// ExhaustivePatternSet.
func ExhaustivePatterns(c *logic.Circuit) []Pattern {
	return ExhaustivePatternSet(c).Patterns()
}
