// The shared packed state of the campaigns run over one pattern set.
// Every fault of the paper's classes flips one net — the SA-n/SA-p
// polarity faults, channel breaks and stuck-on devices as well as line
// stuck-at faults — so every fault simulated over a set reads the same
// per-net observability masks over the same baselines. A Sweep packs
// the set once per kind and keeps each chunk's mask memo, so its
// stuck-at and transistor campaigns share both: the masks the first
// computes, the second reads.
package faultsim

import (
	"context"

	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// Sweep is a pattern set prepared for the packed campaigns run over
// it: RunStuckAt, RunTransistor and RunTransistorBoth share its packs
// and their observability masks, in any order and any number of times,
// with the same answers as on fresh sweeps. It packs on first use, one
// pack per kind: binary for line stuck-at faults (X inputs read 0),
// ternary for transistor faults. A fully specified set has one kind, so
// its campaigns share one pack.
//
// The chunk layout is fixed by the campaign that packs: a pack built
// under a signature capture (or at a pinned width) keeps the uniform
// width laneWordsFor picks, since a signature reads every lane; any
// other opens with a one-word head chunk, so a fault one of the first
// 64 patterns detects never touches the other lanes. Layouts differ in
// cost only, never in answers.
//
// A Sweep is used by one goroutine at a time (a campaign's workers run
// inside it). Close returns its packs to the simulator's pool.
type Sweep struct {
	s     *Simulator
	set   *PatternSet
	inits *PatternSet // a pair sweep's init patterns, aligned with set
	// full is set when no pattern has an X input: the binary pack is
	// the ternary one.
	full bool
	// packs holds the ternary pack, the binary pack of a set with X
	// lanes, and a pair sweep's init chunks; each nil until first used.
	packs [3]*chunkPack
}

// NewSweep prepares a sweep over the pattern set. It packs nothing
// until a campaign runs. The set must not change while the sweep is in
// use.
func (s *Simulator) NewSweep(set *PatternSet) *Sweep {
	return &Sweep{s: s, set: set, full: set.specified()}
}

// pairSweep prepares a sweep of channel breaks over init/test pairs:
// its pack is the test patterns' chunks carrying the init patterns'.
func (s *Simulator) pairSweep(inits, tests *PatternSet) *Sweep {
	return &Sweep{s: s, set: tests, inits: inits}
}

// chunks returns the chunks a class's faults run over, packing them on
// first use, and whether this call packed them: the caller's stage then
// reports their baseline evaluations. Pair chunks keep one width.
func (sw *Sweep) chunks(cls *packedClass, capture bool) (bases []packedBase, packed bool) {
	binary := cls.binary && !sw.full
	k := b2i(binary)
	if p := sw.packs[k]; p != nil {
		return p.bases, false
	}
	s := sw.s
	w := s.laneWordsFor(sw.set.Len())
	head := !cls.pairs && !capture && !logic.ValidLaneWords(s.laneWords)
	p := s.packChunks(sw.set, w, head, binary)
	sw.packs[k] = p
	if cls.pairs {
		ip := s.packChunks(sw.inits, w, false, false)
		sw.packs[2] = ip
		for ci := range p.bases {
			p.bases[ci].init = &ip.bases[ci]
		}
	}
	return p.bases, true
}

// Close returns the sweep's packs to the simulator's pool. The sweep
// must not be used afterwards; Close is idempotent.
func (sw *Sweep) Close() {
	for k, p := range sw.packs {
		if p != nil {
			sw.s.putPack(p)
			sw.packs[k] = nil
		}
	}
}

// RunStuckAt fault-simulates line stuck-at faults over the sweep's
// binary pack, with cooperative cancellation checked between faults.
// With the context's error it returns the detections so far, every
// other fault undetected; with a signature capture sized for another
// campaign, nil. Each line fault changes one site net: a stem fault
// forces its net (a gate output or a primary input), a pin fault
// evaluates the reading gate with that pin forced, changing the gate's
// output. Its detecting lanes are the lanes where that definitely flips
// the site, ANDed with the site's observability mask. Progress reports
// faults on the "stuck_at" stage (non-line faults count as Dropped);
// the engine counters charge the work to the packed engine, whatever
// the simulator's Engine.
func (sw *Sweep) RunStuckAt(ctx context.Context, faults []core.Fault) ([]Detection, error) {
	out, _, err := sw.s.runPool(ctx, sw.s.stuckAtClass(), faults, sw, 1)
	return out, err
}

// RunTransistor is Simulator.RunTransistor over the sweep, with the
// per-fault work of the packed engine spread over a pool of workers
// (GOMAXPROCS when workers is 0 or less, never more than len(faults));
// the reference oracle ignores workers and the packs. The context
// cancels between faults. With an error it returns nil detections.
func (sw *Sweep) RunTransistor(ctx context.Context, faults []core.Fault, useIDDQ bool, workers int) ([]Detection, error) {
	out, _, err := sw.runTransistor(ctx, faults, transistorMode(useIDDQ), workers)
	return out, err
}

// RunTransistorBoth answers a transistor campaign with and without IDDQ
// observation from one sweep, on the same workers as RunTransistor:
// voltage equals what RunTransistor(…, false, …) returns and withIDDQ
// what RunTransistor(…, true, …) returns, on either engine, with or
// without signature capture. The +IDDQ answer costs no extra
// evaluation: the sweep evaluates exactly the gates the voltage-only
// sweep does and reads each fault's leak lanes off the behaviour-table
// evaluation it already makes. Progress reports on the "transistor"
// stage and counts voltage detections. A capture records both planes,
// the leak plane included. With an error both lists are nil.
func (sw *Sweep) RunTransistorBoth(ctx context.Context, faults []core.Fault, workers int) (voltage, withIDDQ []Detection, err error) {
	withIDDQ, voltage, err = sw.runTransistor(ctx, faults, bothAnswers, workers)
	return voltage, withIDDQ, err
}

// runTransistor runs a transistor campaign in one sweep mode and returns
// the d answers and, under bothAnswers, the v answers (volt is nil
// otherwise). The packed pool runs it, or under EngineReference the
// serial oracle, which ignores workers. With an error both lists are
// nil.
func (sw *Sweep) runTransistor(ctx context.Context, faults []core.Fault, mode sweepMode, workers int) (out, volt []Detection, err error) {
	s := sw.s
	if s.Engine == EngineReference {
		return s.runTransistorReference(ctx, faults, sw.set.Patterns(), mode)
	}
	out, volt, err = s.runPool(ctx, s.transistorClass(mode), faults, sw, workers)
	if err != nil {
		return nil, nil, err
	}
	return out, volt, nil
}
