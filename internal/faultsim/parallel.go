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

// simulateTransistorFault runs one transistor fault against the pattern
// set, given the precomputed good-circuit responses. The hooks are built
// fresh per call, so concurrent invocations are independent. A non-nil
// sig disables the early exit and records fault si's full signature;
// the Detection is then derived with the same per-pattern observation
// order (leak before output compare, earliest pattern wins).
func (s *Simulator) simulateTransistorFault(f core.Fault, patterns []Pattern, goods []map[string]logic.V, useIDDQ bool, sig *SignatureCapture, si int) (Detection, error) {
	d := Detection{Fault: f, Pattern: -1}
	if f.Kind.IsLineFault() {
		return d, nil
	}
	if _, ok := f.Kind.TFault(); !ok {
		return d, nil // analog-only faults are out of scope here
	}
	engineStats.referenceFaultRuns.Add(1)
	nGates := uint64(len(s.C.Gates))
	for k, p := range patterns {
		leak := false
		hooks, err := s.transistorHooks(f, &leak)
		if err != nil {
			return d, err
		}
		faulty := s.C.EvalHooked(map[string]logic.V(p), hooks)
		engineStats.referenceGateEvals.Add(nGates)
		if sig == nil {
			if useIDDQ && leak {
				d.Method = ByIDDQ
				d.Pattern = k
				return d, nil
			}
			if s.outputsDiffer(goods[k], faulty) {
				d.Method = ByOutput
				d.Pattern = k
				return d, nil
			}
			continue
		}
		if useIDDQ && leak {
			sig.setLeak(si, k)
			if !d.Detected() {
				d.Method, d.Pattern = ByIDDQ, k
			}
		}
		if s.outputsDiffer(goods[k], faulty) {
			sig.setOut(si, k)
			if !d.Detected() {
				d.Method, d.Pattern = ByOutput, k
			}
		}
	}
	return d, nil
}

// referenceFaultEvals reconstructs the hooked gate evaluations one
// reference fault run performed: one full-circuit pass per swept
// pattern, stopping at the detecting pattern (a signature-capturing
// run sweeps every pattern).
func (s *Simulator) referenceFaultEvals(f core.Fault, d Detection, nPatterns int, captured bool) uint64 {
	if !transistorSimulable(f) {
		return 0
	}
	swept := nPatterns
	if d.Detected() && !captured {
		swept = d.Pattern + 1
	}
	return uint64(swept) * uint64(len(s.C.Gates))
}

// runTransistorSerial is the context-aware serial engine behind both
// RunTransistor and the single-worker parallel fallback. Cancellation is
// checked between faults: a fault's pattern sweep is the unit of work.
func (s *Simulator) runTransistorSerial(ctx context.Context, faults []core.Fault, patterns []Pattern, useIDDQ bool) ([]Detection, error) {
	sink := s.progressSink("transistor", len(faults))
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, err
		}
	}
	out := make([]Detection, len(faults))
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
			return nil, err
		}
		d, err := s.simulateTransistorFault(f, patterns, goods, useIDDQ, sig, i)
		if err != nil {
			return nil, err
		}
		out[i] = d
		sink.add(1, b2i(d.Detected()), b2i(!transistorSimulable(f)), s.referenceFaultEvals(f, d, len(patterns), sig != nil))
	}
	return out, nil
}

// faultOrder returns the fault indices sorted by the topological
// position of each fault's gate, so contiguous worker ranges share cone
// locality (downstream propagation repeatedly touches the same region)
// and fault-packed batches group physically close faults. The reference
// engine keeps list order: it has no compiled positions and must not
// trigger a compile.
func (s *Simulator) faultOrder(faults []core.Fault) []int {
	ord := make([]int, len(faults))
	for i := range ord {
		ord[i] = i
	}
	if s.Engine == EngineReference {
		return ord
	}
	cc := s.Compiled()
	key := make([]int, len(faults))
	for i, f := range faults {
		if gi, ok := s.gateIdx[f.Gate]; ok {
			key[i] = cc.Pos[gi]
		} else {
			key[i] = len(cc.Pos) // unknown gates and line faults sort last, in list order
		}
	}
	sort.SliceStable(ord, func(a, b int) bool { return key[ord[a]] < key[ord[b]] })
	return ord
}

// RunTransistorParallel is RunTransistor with the per-fault work spread
// over a goroutine pool. Work is dispatched as contiguous ranges of the
// cone-locality fault order rather than single striped faults, so each
// worker's scratch stays warm on one region of the circuit and the
// packed engine can fault-pack whole batches inside a range. The pool
// never exceeds len(faults) workers; the context cancels in-flight
// campaigns between faults, and after the first engine error the
// remaining work is drained without simulating.
func (s *Simulator) RunTransistorParallel(ctx context.Context, faults []core.Fault, patterns []Pattern, useIDDQ bool, workers int) ([]Detection, error) {
	if len(faults) == 0 {
		return []Detection{}, ctx.Err()
	}
	reference := s.Engine == EngineReference
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, err
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	cls := s.transistorClass(useIDDQ)
	if workers == 1 || len(faults) < 2 {
		if reference {
			return s.runTransistorSerial(ctx, faults, patterns, useIDDQ)
		}
		return s.runPacked(ctx, cls, faults, patterns)
	}

	// Good-circuit responses are computed once and shared read-only:
	// hooked maps for the reference engine, packed lane blocks for the
	// packed one (each worker carries its own scratch).
	sink := s.progressSink("transistor", len(faults))
	var goods []map[string]logic.V
	var pl packedPlan
	if reference {
		goods = make([]map[string]logic.V, len(patterns))
		for k, p := range patterns {
			goods[k] = s.C.Eval(map[string]logic.V(p))
		}
		sink.add(0, 0, 0, uint64(len(patterns))*uint64(len(s.C.Gates)))
	} else {
		pl = s.packedPlanFor(cls, faults, patterns)
		sink.add(0, 0, 0, pl.baseEvals(len(s.C.Gates)))
	}

	ord := s.faultOrder(faults)
	out := make([]Detection, len(faults))
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
				psc.ensure(pl.w)
				defer s.putPackedScratch(psc)
			}
			for r := range ranges {
				if ctx.Err() != nil || errSet.Load() {
					continue // drain without working once canceled or failed
				}
				idxs := ord[r[0]:r[1]]
				if pl.gb != nil {
					if err := s.runPackedGrouped(ctx, cls, faults, idxs, pl.gb, psc, sig, sink, out); err != nil && ctx.Err() == nil {
						fail(err)
					}
					continue
				}
				for _, i := range idxs {
					if ctx.Err() != nil || errSet.Load() {
						break
					}
					var d Detection
					var err error
					var evals uint64
					if reference {
						d, err = s.simulateTransistorFault(faults[i], patterns, goods, useIDDQ, sig, i)
						evals = s.referenceFaultEvals(faults[i], d, len(patterns), sig != nil)
					} else {
						before := psc.lifetimeEvals()
						d, err = s.simulateFaultPacked(cls, faults[i], i, pl.bases, psc, sig)
						evals = psc.lifetimeEvals() - before
					}
					if err != nil {
						fail(err)
						continue
					}
					out[i] = d
					sink.add(1, b2i(d.Detected()), b2i(!transistorSimulable(faults[i])), evals)
				}
			}
		}()
	}
	chunk := (len(faults) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
dispatch:
	for lo := 0; lo < len(faults); lo += chunk {
		select {
		case ranges <- [2]int{lo, min(lo+chunk, len(faults))}:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ranges)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
