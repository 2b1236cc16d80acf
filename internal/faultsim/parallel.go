package faultsim

import (
	"context"
	"runtime"
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
func (a *answers) put(out, volt []Detection, i int, f core.Fault) {
	out[i] = Detection{Fault: f, Method: a.method, Pattern: a.pattern}
	if volt != nil {
		volt[i] = Detection{Fault: f, Pattern: a.voltage}
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

// runTransistorSerial is the single-goroutine transistor driver behind
// RunTransistor and the single-worker pool: the packed driver, or the
// reference oracle under EngineReference. Like the pool it returns the
// d answers and, under bothAnswers, the v answers (nil otherwise).
// Cancellation is checked between faults: a fault's pattern sweep is
// the unit of work.
func (s *Simulator) runTransistorSerial(ctx context.Context, faults []core.Fault, patterns []Pattern, mode sweepMode) (out, volt []Detection, err error) {
	if s.Engine != EngineReference {
		return s.runPacked(ctx, s.transistorClass(mode), faults, patterns)
	}
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
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		a, err := s.simulateTransistorFault(f, patterns, goods, mode, sig, i)
		if err != nil {
			return nil, nil, err
		}
		a.put(out, volt, i, f)
		stop := a.stop(mode)
		sink.add(1, b2i(stop >= 0), b2i(!transistorSimulable(f)), s.referenceFaultEvals(f, stop, len(patterns), sig != nil))
	}
	return out, volt, nil
}

// faultOrder returns the fault indices sorted by the topological
// position of each fault's fanout-free region root, then of its gate, and
// each fault's region key (its root's position; unknown gates and line
// faults share the largest key and sort last, in list order). Contiguous
// worker ranges then share cone locality, each gate's faults sit
// together, and a range cut where the key changes hands every region to
// one worker: every observability mask a fault at a gate reads lies in
// the gate's region (packedScratch.observability), so each mask is
// computed once. The reference engine memoizes no mask and keeps list
// order, each fault its own region: it has no compiled positions and
// must not trigger a compile.
func (s *Simulator) faultOrder(faults []core.Fault) (ord, region []int) {
	ord = make([]int, len(faults))
	for i := range ord {
		ord[i] = i
	}
	if s.Engine == EngineReference {
		return ord, ord
	}
	cc := s.Compiled()
	region = make([]int, len(faults))
	pos := make([]int, len(faults))
	for i, f := range faults {
		region[i], pos[i] = len(cc.Pos), len(cc.Pos)
		if gi, ok := s.gateIdx[f.Gate]; ok {
			region[i], pos[i] = cc.Pos[cc.Root[gi]], cc.Pos[gi]
		}
	}
	sort.SliceStable(ord, func(a, b int) bool {
		i, j := ord[a], ord[b]
		return region[i] < region[j] || region[i] == region[j] && pos[i] < pos[j]
	})
	return ord, region
}

// RunTransistorParallel is RunTransistor with the per-fault work spread
// over a goroutine pool. Work is dispatched as contiguous ranges of the
// cone-locality fault order, cut at fanout-free region boundaries, rather
// than single striped faults: each worker's scratch stays warm on one
// part of the circuit, and each region's observability masks are
// computed by one worker, so the packed evaluations do not depend on the
// worker count.
// The pool never exceeds len(faults) workers; the context cancels
// in-flight campaigns between faults, and after the first engine error
// the remaining work is drained without simulating.
func (s *Simulator) RunTransistorParallel(ctx context.Context, faults []core.Fault, patterns []Pattern, useIDDQ bool, workers int) ([]Detection, error) {
	out, _, err := s.runTransistorPool(ctx, faults, patterns, transistorMode(useIDDQ), workers)
	return out, err
}

// RunTransistorBoth answers a transistor campaign with and without IDDQ
// observation from one sweep, on the same worker pool as
// RunTransistorParallel: voltage equals what RunTransistor(…, false)
// returns and withIDDQ what RunTransistor(…, true) returns, on either
// engine, with or without signature capture. The +IDDQ answer costs no
// extra evaluation: the sweep evaluates exactly the gates the
// voltage-only sweep does and reads each fault's leak lanes off the
// behaviour-table evaluation it already makes. Progress reports on the
// "transistor" stage and counts voltage detections. A capture records
// both planes, the leak plane included.
func (s *Simulator) RunTransistorBoth(ctx context.Context, faults []core.Fault, patterns []Pattern, workers int) (voltage, withIDDQ []Detection, err error) {
	withIDDQ, voltage, err = s.runTransistorPool(ctx, faults, patterns, bothAnswers, workers)
	return voltage, withIDDQ, err
}

// runTransistorPool is the pooled transistor driver of every mode: it
// returns each fault's d answer and, under bothAnswers, its v answer
// (volt is nil otherwise; see simulateFaultPacked). A single worker
// runs runTransistorSerial.
func (s *Simulator) runTransistorPool(ctx context.Context, faults []core.Fault, patterns []Pattern, mode sweepMode, workers int) (out, volt []Detection, err error) {
	if len(faults) == 0 {
		if mode == bothAnswers {
			volt = []Detection{}
		}
		return []Detection{}, volt, ctx.Err()
	}
	reference := s.Engine == EngineReference
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, nil, err
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers == 1 || len(faults) < 2 {
		return s.runTransistorSerial(ctx, faults, patterns, mode)
	}

	// Good-circuit responses are computed once and shared read-only:
	// hooked maps for the reference engine, packed lane blocks for the
	// packed one (each worker carries its own scratch).
	cls := s.transistorClass(mode)
	sink := s.progressSink("transistor", len(faults))
	var goods []map[string]logic.V
	var bases []packedBase
	width := s.laneWordsFor(len(patterns))
	if reference {
		goods = make([]map[string]logic.V, len(patterns))
		for k, p := range patterns {
			goods[k] = s.C.Eval(map[string]logic.V(p))
		}
		sink.add(0, 0, 0, uint64(len(patterns))*uint64(len(s.C.Gates)))
	} else {
		bases = s.packedBaselines(patterns, width, cls.binary)
		sink.add(0, 0, 0, baseEvals(bases, len(s.C.Gates)))
	}

	ord, region := s.faultOrder(faults)
	out = make([]Detection, len(faults))
	if mode == bothAnswers {
		volt = make([]Detection, len(faults))
	}
	ranges := make(chan [2]int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var errSet atomic.Bool
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			errSet.Store(true)
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var psc *packedScratch
			if !reference {
				psc = s.packedScratchOf()
				psc.begin(width)
				defer s.putPackedScratch(psc)
			}
			for r := range ranges {
				if ctx.Err() != nil || errSet.Load() {
					continue // drain without working once canceled or failed
				}
				for _, i := range ord[r[0]:r[1]] {
					if ctx.Err() != nil || errSet.Load() {
						break
					}
					var a answers
					var err error
					var evals uint64
					if reference {
						a, err = s.simulateTransistorFault(faults[i], patterns, goods, mode, sig, i)
						evals = s.referenceFaultEvals(faults[i], a.stop(mode), len(patterns), sig != nil)
					} else {
						before := psc.lifetimeEvals()
						a, err = s.simulateFaultPacked(cls, faults[i], i, bases, psc, sig)
						evals = psc.lifetimeEvals() - before
					}
					if err != nil {
						fail(err)
						continue
					}
					a.put(out, volt, i, faults[i])
					sink.add(1, b2i(a.stop(mode) >= 0), b2i(!transistorSimulable(faults[i])), evals)
				}
			}
		}()
	}
	chunk := (len(faults) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
dispatch:
	for lo := 0; lo < len(ord); {
		hi := min(lo+chunk, len(ord))
		for hi < len(ord) && region[ord[hi]] == region[ord[hi-1]] {
			hi++ // keep a region's faults, and so its masks, in one range
		}
		select {
		case ranges <- [2]int{lo, hi}:
		case <-ctx.Done():
			break dispatch
		}
		lo = hi
	}
	close(ranges)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return out, volt, nil
}
