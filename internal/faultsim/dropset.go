// Fault dropping for test generation. A generation campaign reaches its
// faults one at a time and only needs one answer per fault: does any
// vector generated so far detect it? A DropSet holds those vectors in
// fixed-width packed lane blocks and answers that question through
// simulateFaultPacked, the per-fault routine the batch driver runs, with
// the kind's packed class (a pair set's blocks are pair chunks), so each
// fault is simulated once, against every vector at once, instead of
// every new vector being simulated against every still-undetected fault.
package faultsim

import (
	"context"

	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// DropSet is the growing vector set of a test-generation campaign, kept
// for fault dropping. There are three kinds: line stuck-at faults over
// binary patterns (StuckAtDrops), CP transistor faults observed at the
// primary outputs over ternary patterns (VoltageDrops) and channel
// breaks over init/test pairs (PairDrops). Detects gives the answer the
// kind's batch entry point — RunStuckAt, RunTransistorParallel without
// IDDQ, RunTwoPattern — gives on the same list.
//
// Entries are rows (one value per primary input, in C.Inputs order),
// appended to a PatternSet and packed from it into fixed-width lane
// blocks, each with its own observability-mask memo. Add and AddPair
// only append rows, opening a block at each block boundary, and mark
// the blocks they touch stale. Detects first packs each stale block
// once, re-evaluates its good circuit and forgets its observability
// masks; a block that stays unchanged is never packed or evaluated
// again, and its masks serve every later Detects. A set is used by one
// goroutine at a time; Close releases it.
type DropSet struct {
	s     *Simulator
	cls   *packedClass // the class Detects simulates
	ref   bool         // answer through the reference oracle entry points
	w     int
	set   *PatternSet  // the entries; a pair set's test patterns
	inits *PatternSet  // a pair set's init patterns, aligned with set
	base  []packedBase // packed blocks, pair chunks in a pair set
	stale int          // first block with rows not yet packed; len(base) when none
	sc    *packedScratch
}

// StuckAtDrops returns an empty drop set for line stuck-at faults.
// Patterns are binary, as in RunStuckAt (X inputs read 0), and the set
// always runs packed.
func (s *Simulator) StuckAtDrops() *DropSet {
	return s.newDropSet(s.stuckAtClass(), false)
}

// VoltageDrops returns an empty drop set for CP transistor faults
// observed by voltage at the primary outputs, over ternary patterns.
// Under EngineReference it answers through the serial oracle.
func (s *Simulator) VoltageDrops() *DropSet {
	return s.newDropSet(s.transistorClass(voltageOnly), s.Engine == EngineReference)
}

// PairDrops returns an empty drop set for channel breaks over init/test
// pattern pairs. Under EngineReference it answers through the stateful
// switch-level oracle.
func (s *Simulator) PairDrops() *DropSet {
	return s.newDropSet(s.pairClass(), s.Engine == EngineReference)
}

func (s *Simulator) newDropSet(cls *packedClass, ref bool) *DropSet {
	d := &DropSet{s: s, cls: cls, ref: ref, w: 1, set: NewPatternSet(s.C, 0)}
	if cls.pairs {
		d.inits = NewPatternSet(s.C, 0)
	}
	if logic.ValidLaneWords(s.laneWords) {
		d.w = s.laneWords
	}
	if !ref {
		d.sc = s.packedScratchOf()
	}
	return d
}

// Add appends one pattern row to a stuck-at or voltage set.
func (d *DropSet) Add(row []logic.V) {
	if d.cls.pairs {
		panic("faultsim: Add on a pair drop set")
	}
	d.set.Append(row)
	d.grow()
}

// AddPair appends one init/test pair of rows to a pair set.
func (d *DropSet) AddPair(init, test []logic.V) {
	if !d.cls.pairs {
		panic("faultsim: AddPair on a pattern drop set")
	}
	d.inits.Append(init)
	d.set.Append(test)
	d.grow()
}

// grow opens a block when the entry just appended starts one and marks
// the tail block stale. A reference set keeps only the entries.
func (d *DropSet) grow() {
	if d.ref {
		return
	}
	if n := d.set.Len() - 1; n%(64*d.w) == 0 {
		d.base = append(d.base, d.block(n))
		if d.cls.pairs {
			ib := d.block(n)
			d.base[len(d.base)-1].init = &ib
		}
	}
	d.stale = min(d.stale, len(d.base)-1)
}

// refresh packs every stale block from the entries once, re-evaluates
// its good circuit and forgets its masks.
func (d *DropSet) refresh() {
	for ci := d.stale; ci < len(d.base); ci++ {
		pb := &d.base[ci]
		d.setBlock(pb, d.set, d.cls.binary)
		if pb.init != nil {
			d.setBlock(pb.init, d.inits, false)
		}
		clear(pb.seen)
	}
	d.stale = len(d.base)
}

// block opens an empty block starting at entry n.
func (d *DropSet) block(n int) packedBase {
	nets := d.sc.cc.NumNets()
	return packedBase{
		start: n,
		w:     d.w,
		valid: make([]uint64, d.w),
		in:    make([]logic.PackedVec, len(d.s.C.Inputs)*d.w),
		vals:  make([]logic.PackedVec, nets*d.w),
		obs:   make([]uint64, nets*d.w),
		seen:  make([]bool, nets),
	}
}

// setBlock gathers block pb's input words from ps and re-evaluates the
// block's good circuit.
func (d *DropSet) setBlock(pb *packedBase, ps *PatternSet, binary bool) {
	ps.gather(pb.in, pb.valid, pb.start>>6, d.w, binary)
	d.sc.cc.EvalBlock(pb.in, d.w, pb.vals)
}

// Detects reports whether any entry added so far detects f, stopping at
// the first detecting block. A fault the set's class cannot resolve (an
// unknown gate, transistor or net, or a fault of another class) reports
// undetected.
func (d *DropSet) Detects(f core.Fault) bool {
	if !d.ref {
		d.refresh()
		a, err := d.s.simulateFaultPacked(d.cls, f, 0, d.base, d.sc, nil)
		return err == nil && a.pattern >= 0
	}
	var ds []Detection
	var err error
	if d.cls.pairs {
		ds, err = d.s.runTwoPattern(context.Background(), []core.Fault{f}, d.inits, d.set)
	} else {
		ds, err = d.s.NewSweep(d.set).RunTransistor(context.Background(), []core.Fault{f}, false, 1)
	}
	return err == nil && ds[0].Detected()
}

// Close releases the set's packed scratch and publishes its engine
// counters. The set must not be used afterwards; Close is idempotent.
func (d *DropSet) Close() {
	if d.sc != nil {
		d.s.putPackedScratch(d.sc)
		d.sc = nil
	}
}
