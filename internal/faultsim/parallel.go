// The one packed driver and the reference transistor driver. runPool
// runs every packed fault class — line stuck-at, CP transistor, channel
// breaks over pairs — for its batch entry point: the caller's goroutine
// with one worker, a pool of region-cut fault ranges with more. The
// reference oracle runs serially behind each entry point and ignores
// workers: it is the ground truth the differential suites compare
// against. The sweep modes say which answers a transistor sweep
// produces.
package faultsim

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// sweepMode selects the answers a transistor sweep produces. Every
// mode evaluates each fault's behaviour at every pattern it sweeps, so
// the leak observations are always at hand; the modes differ in whether
// they read them and where a fault's sweep may stop.
type sweepMode uint8

const (
	// voltageOnly answers the first primary-output difference; leaks
	// are ignored (RunTransistor without IDDQ, and the stuck-at class).
	voltageOnly sweepMode = iota
	// iddqOnly answers the +IDDQ detection alone: the first pattern that
	// leaks or differs, the leak winning within a pattern. A leak at or
	// before the first pattern where the fault definitely flips its
	// gate's output ends its sweep: no output can differ earlier.
	iddqOnly
	// bothAnswers answers both from one sweep: the voltage answer, and
	// as the +IDDQ answer the earliest leak seen up to it, the leak
	// winning ties. It never stops at a leak, so it evaluates exactly
	// the gates a voltageOnly sweep does.
	bothAnswers
)

// transistorMode is the single-answer mode behind RunTransistor's
// useIDDQ flag.
func transistorMode(useIDDQ bool) sweepMode {
	if useIDDQ {
		return iddqOnly
	}
	return voltageOnly
}

// observesLeaks reports whether the mode reads the leak observations.
func (m sweepMode) observesLeaks() bool { return m != voltageOnly }

// answers is one fault's outcome in a sweep, the two answers every
// mode tracks (patterns are -1 while undetected): method and pattern
// give the earliest leak or output difference, the leak winning ties
// (the d answer; without leaks observed, the voltage answer too), and
// voltage the first output difference alone (the v answer). It holds
// no fault, so the per-fault drivers pass it by value cheaply.
type answers struct {
	method  DetectMethod
	pattern int
	voltage int
}

var undetected = answers{pattern: -1, voltage: -1}

// stop is the pattern whose answer ends the fault's sweep under mode m,
// -1 while none has: the voltage answer under bothAnswers, else d.
// Progress counts a fault detected when it is set.
func (a *answers) stop(m sweepMode) int {
	if m == bothAnswers {
		return a.voltage
	}
	return a.pattern
}

// put stores fault i's answers: d in out and, when volt is non-nil, v
// in volt.
func (a *answers) put(out, volt []Detection, i int) {
	out[i] = Detection{Method: a.method, Pattern: a.pattern}
	if volt != nil {
		volt[i] = Detection{Pattern: a.voltage}
		if a.voltage >= 0 {
			volt[i].Method = ByOutput
		}
	}
}

// simulateTransistorFault runs one transistor fault against the pattern
// set, given the precomputed good-circuit responses, on the reference
// oracle. The hooks are built fresh per pattern, so concurrent
// invocations are independent. It returns the packed engine's answers —
// d, the first pattern that leaks (when the mode observes leaks) or
// differs, leak first within a pattern, and v, the first that differs —
// and stops at the mode's stop answer. A non-nil sig sweeps every
// pattern and records fault si's full signature.
func (s *Simulator) simulateTransistorFault(f core.Fault, patterns []Pattern, goods []map[string]logic.V, mode sweepMode, sig *SignatureCapture, si int) (answers, error) {
	a := undetected
	if !transistorSimulable(f) {
		return a, nil // line faults and analog-only faults are out of scope here
	}
	engineStats.referenceFaultRuns.Add(1)
	nGates := uint64(len(s.C.Gates))
	for k, p := range patterns {
		leak := false
		hooks, err := s.transistorHooks(f, &leak)
		if err != nil {
			return a, err
		}
		faulty := s.C.EvalHooked(map[string]logic.V(p), hooks)
		engineStats.referenceGateEvals.Add(nGates)
		leak = leak && mode.observesLeaks()
		differ := s.outputsDiffer(goods[k], faulty)
		if sig != nil {
			if leak {
				sig.setLeak(si, k)
			}
			if differ {
				sig.setOut(si, k)
			}
		}
		if a.pattern < 0 && (leak || differ) {
			a.method, a.pattern = ByOutput, k
			if leak {
				a.method = ByIDDQ
			}
		}
		if a.voltage < 0 && differ {
			a.voltage = k
		}
		if sig == nil && a.stop(mode) >= 0 {
			break
		}
	}
	return a, nil
}

// referenceFaultEvals reconstructs the hooked gate evaluations one
// reference fault run performed: one full-circuit pass per swept
// pattern, up to the stop pattern (a signature-capturing run, or one
// that never stopped, sweeps every pattern).
func (s *Simulator) referenceFaultEvals(f core.Fault, stop, nPatterns int, captured bool) uint64 {
	if !transistorSimulable(f) {
		return 0
	}
	swept := nPatterns
	if stop >= 0 && !captured {
		swept = stop + 1
	}
	return uint64(swept) * uint64(len(s.C.Gates))
}

// runTransistor runs a transistor campaign in one sweep mode and returns
// the d answers and, under bothAnswers, the v answers (volt is nil
// otherwise). The packed pool runs it, or under EngineReference the
// serial oracle, which ignores workers. With an error both lists are
// nil.
func (s *Simulator) runTransistor(ctx context.Context, faults []core.Fault, patterns *PatternSet, mode sweepMode, workers int) (out, volt []Detection, err error) {
	if s.Engine == EngineReference {
		return s.runTransistorReference(ctx, faults, patterns.Patterns(), mode)
	}
	out, volt, err = s.runPool(ctx, s.transistorClass(mode), faults, patterns, nil, workers)
	if err != nil {
		return nil, nil, err
	}
	return out, volt, nil
}

// runTransistorReference is the reference oracle's transistor driver,
// one goroutine in list order. Like runTransistor it returns the d
// answers and, under bothAnswers, the v answers, and nil lists with an
// error. Cancellation is checked between faults: a fault's pattern sweep
// is the unit of work.
func (s *Simulator) runTransistorReference(ctx context.Context, faults []core.Fault, patterns []Pattern, mode sweepMode) (out, volt []Detection, err error) {
	sink := s.progressSink("transistor", len(faults))
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, nil, err
		}
	}
	out = make([]Detection, len(faults))
	if mode == bothAnswers {
		volt = make([]Detection, len(faults))
	}
	goods := make([]map[string]logic.V, len(patterns))
	for k, p := range patterns {
		goods[k] = s.C.Eval(map[string]logic.V(p))
	}
	// Baseline (good-circuit) evals count toward campaign progress but
	// not the per-engine faulty-evaluation counters, mirroring the
	// packed engine.
	sink.add(0, 0, 0, uint64(len(patterns))*uint64(len(s.C.Gates)))
	batch := progressBatch{sink: sink}
	defer batch.flush()
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		a, err := s.simulateTransistorFault(f, patterns, goods, mode, sig, i)
		if err != nil {
			return nil, nil, err
		}
		a.put(out, volt, i)
		stop := a.stop(mode)
		batch.add(b2i(stop >= 0), b2i(!transistorSimulable(f)), s.referenceFaultEvals(f, stop, len(patterns), sig != nil))
	}
	return out, volt, nil
}

// sortByRegion sorts the fault indices ord by the topological position
// of each fault's fanout-free region root, then of its gate, and returns
// each fault's region key (its root's position; unknown gates and line
// faults share the largest key and sort last, in list order). Contiguous
// worker ranges then share cone locality, each gate's faults sit
// together, and a range cut where the key changes hands every region to
// one worker: every observability mask a fault at a gate reads lies in
// the gate's region (packedScratch.observability), so each mask is
// computed once.
func (s *Simulator) sortByRegion(faults []core.Fault, ord []int) (region []int) {
	cc := s.Compiled()
	region = make([]int, len(faults))
	pos := make([]int, len(faults))
	for i, f := range faults {
		region[i], pos[i] = len(cc.Pos), len(cc.Pos)
		if gi, ok := cc.GateID[f.Gate]; ok {
			region[i], pos[i] = cc.Pos[cc.Root[gi]], cc.Pos[gi]
		}
	}
	sort.SliceStable(ord, func(a, b int) bool {
		i, j := ord[a], ord[b]
		return region[i] < region[j] || region[i] == region[j] && pos[i] < pos[j]
	})
	return region
}

// RunTransistorParallel is RunTransistor with the per-fault work of the
// packed engine spread over a pool of workers: RunTransistorSet over the
// patterns converted to a PatternSet.
func (s *Simulator) RunTransistorParallel(ctx context.Context, faults []core.Fault, patterns []Pattern, useIDDQ bool, workers int) ([]Detection, error) {
	return s.RunTransistorSet(ctx, faults, PatternSetOf(s.C, patterns), useIDDQ, workers)
}

// RunTransistorSet is RunTransistor over a PatternSet, with the per-fault
// work of the packed engine spread over a pool of workers (GOMAXPROCS
// when workers is 0 or less, never more than len(faults)); the reference
// oracle ignores workers. The context cancels between faults. With an
// error it returns nil detections.
func (s *Simulator) RunTransistorSet(ctx context.Context, faults []core.Fault, patterns *PatternSet, useIDDQ bool, workers int) ([]Detection, error) {
	out, _, err := s.runTransistor(ctx, faults, patterns, transistorMode(useIDDQ), workers)
	return out, err
}

// RunTransistorBoth is RunTransistorBothSet over the patterns converted
// to a PatternSet.
func (s *Simulator) RunTransistorBoth(ctx context.Context, faults []core.Fault, patterns []Pattern, workers int) (voltage, withIDDQ []Detection, err error) {
	return s.RunTransistorBothSet(ctx, faults, PatternSetOf(s.C, patterns), workers)
}

// RunTransistorBothSet answers a transistor campaign with and without
// IDDQ observation from one sweep, on the same workers as
// RunTransistorSet: voltage equals what RunTransistor(…, false)
// returns and withIDDQ what RunTransistor(…, true) returns, on either
// engine, with or without signature capture. The +IDDQ answer costs no
// extra evaluation: the sweep evaluates exactly the gates the
// voltage-only sweep does and reads each fault's leak lanes off the
// behaviour-table evaluation it already makes. Progress reports on the
// "transistor" stage and counts voltage detections. A capture records
// both planes, the leak plane included. With an error both lists are
// nil.
func (s *Simulator) RunTransistorBothSet(ctx context.Context, faults []core.Fault, patterns *PatternSet, workers int) (voltage, withIDDQ []Detection, err error) {
	withIDDQ, voltage, err = s.runTransistor(ctx, faults, patterns, bothAnswers, workers)
	return voltage, withIDDQ, err
}

// runPool is the one packed driver: every packed batch entry point runs
// its class through it. It packs the chunks once — for a pair class the
// test patterns' chunks, carrying the init patterns' — unless no fault
// of the list is simulable, and returns each fault's d answer and, under
// bothAnswers, its v answer (volt is nil otherwise; see
// simulateFaultPacked). Every fault starts undetected, so with an error
// the lists hold the answers resolved so far.
//
// One worker runs the faults in list order on the caller's goroutine.
// More workers (GOMAXPROCS when workers is 0 or less, never more than
// len(faults)) take contiguous ranges of the region order
// (sortByRegion), cut at fanout-free region boundaries: each worker's
// scratch stays warm on one part of the circuit, and each region's
// observability masks are computed by one worker, so the packed
// evaluations do not depend on the worker count. The context cancels
// between faults; after the first engine error the remaining ranges are
// drained without simulating. A single-pattern class honours the
// simulator's signature capture; a pair class ignores it, as the
// reference two-pattern oracle does.
func (s *Simulator) runPool(ctx context.Context, cls *packedClass, faults []core.Fault, patterns, inits *PatternSet, workers int) (out, volt []Detection, err error) {
	var sig *SignatureCapture
	if !cls.pairs {
		sig = s.Signatures
	}
	if sig != nil {
		if err := sig.check(len(faults), patterns.Len()); err != nil {
			return nil, nil, err
		}
	}
	sink := s.progressSink(cls.stage, len(faults))
	out = make([]Detection, len(faults))
	if cls.mode == bothAnswers {
		volt = make([]Detection, len(faults))
	}
	for i := range faults {
		undetected.put(out, volt, i)
	}
	if !slices.ContainsFunc(faults, cls.simulable) {
		sink.add(len(faults), 0, len(faults), 0)
		return out, volt, ctx.Err() // nothing to simulate: skip the baselines
	}
	w := s.laneWordsFor(patterns.Len())
	bases := s.packedBaselines(patterns, w, cls.binary)
	if cls.pairs {
		ib := s.packedBaselines(inits, w, false)
		for ci := range bases {
			bases[ci].init = &ib[ci]
		}
	}
	sink.add(0, 0, 0, baseEvals(bases, len(s.C.Gates)))

	var failed atomic.Pointer[error] // the first engine error
	// work simulates the ranges it receives on one scratch and one
	// progress batch; once the campaign is canceled or has failed it
	// drains them without simulating.
	work := func(ranges <-chan []int) {
		sc := s.packedScratchOf()
		sc.begin(w)
		defer s.putPackedScratch(sc)
		batch := progressBatch{sink: sink}
		defer batch.flush()
		for r := range ranges {
			for _, i := range r {
				if ctx.Err() != nil || failed.Load() != nil {
					break
				}
				before := sc.lifetimeEvals()
				a, err := s.simulateFaultPacked(cls, faults[i], i, bases, sc, sig)
				if err != nil {
					first := err // a copy, so only a failing fault allocates
					failed.CompareAndSwap(nil, &first)
					break
				}
				a.put(out, volt, i)
				batch.add(b2i(a.stop(cls.mode) >= 0), b2i(!cls.simulable(faults[i])), sc.lifetimeEvals()-before)
			}
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(faults))
	ord := make([]int, len(faults))
	for i := range ord {
		ord[i] = i
	}
	ranges := make(chan []int, 1)
	if workers == 1 {
		ranges <- ord // the whole list as one range
		close(ranges)
		work(ranges)
	} else {
		region := s.sortByRegion(faults, ord)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(ranges)
			}()
		}
		chunk := max(1, (len(faults)+workers*4-1)/(workers*4))
	dispatch:
		for lo := 0; lo < len(ord); {
			hi := min(lo+chunk, len(ord))
			for hi < len(ord) && region[ord[hi]] == region[ord[hi-1]] {
				hi++ // keep a region's faults, and so its masks, in one range
			}
			select {
			case ranges <- ord[lo:hi]:
			case <-ctx.Done():
				break dispatch
			}
			lo = hi
		}
		close(ranges)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return out, volt, err
	}
	if err := failed.Load(); err != nil {
		return out, volt, *err
	}
	return out, volt, nil
}
