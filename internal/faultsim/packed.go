// Packed PPSFP engine, the one fast engine of the package: N×64
// ternary patterns per lane block (two bitplane words per 64 lanes),
// evaluated through the compiled gate LUTs and the per-fault behaviour
// LUTs of engine.go. Baselines are packed once per campaign; each
// fault then needs one packed behaviour-LUT evaluation plus, when some
// lane flips its site, one event-driven packed propagation per block,
// instead of one full circuit pass per pattern. Only definite flips
// propagate: every fault-free gate table is monotone (a known entry
// holds at every binary completion of its X inputs), so a lane whose
// faulty site value is X, or whose good value is, can only give primary
// outputs that are X or equal to the good ones, never a definite
// mismatch. When the campaign has fewer patterns than lanes,
// independent faults are packed into the spare lanes and share a
// single propagation pass. Defined to be bit-identical to the
// reference oracle (same detection method, same first detecting
// pattern), which the differential suites enforce. Line stuck-at
// faults ride the same drivers as seeds forcing a constant at their
// site, over binary baselines.
package faultsim

import (
	"context"
	"fmt"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// maxPackGroups bounds how many faults share one propagation pass.
// Beyond a handful of groups the union of the faults' cones approaches
// the whole circuit and the shared walk stops saving work.
const maxPackGroups = 8

// packedBase is the fault-free response of one lane-block chunk:
// vals is net-major with stride w (w words of 64 lanes per net).
type packedBase struct {
	start int               // index of the chunk's first pattern
	w     int               // lane words per net
	valid []uint64          // lanes backed by a real pattern, one word per lane word
	in    []logic.PackedVec // per primary input, input-major stride w
	vals  []logic.PackedVec // per net id, net-major stride w, canonical planes
}

// packBlock packs patterns into width-w input blocks, replicating the
// whole pattern list `copies` times across consecutive lane groups
// (copies > 1 builds the shared baseline of a fault-packed batch).
// Lanes beyond the replicated patterns stay X.
func (s *Simulator) packBlock(patterns []Pattern, w, copies int, binary bool) []logic.PackedVec {
	in := make([]logic.PackedVec, len(s.C.Inputs)*w)
	for g := 0; g < copies; g++ {
		for k, p := range patterns {
			s.packLane(in, w, g*len(patterns)+k, p, binary)
		}
	}
	return in
}

// packLane writes one pattern into one lane of a width-w input block.
// Inputs missing from the pattern are X, matching the scalar map-based
// evaluation; binary packing reads missing and X inputs as 0 instead
// (the line stuck-at semantics).
func (s *Simulator) packLane(in []logic.PackedVec, w, lane int, p Pattern, binary bool) {
	word, bit := lane>>6, lane&63
	for i, pi := range s.C.Inputs {
		v, ok := p[pi]
		switch {
		case binary && v != logic.L1:
			v = logic.L0
		case !ok:
			v = logic.LX
		}
		in[i*w+word] = in[i*w+word].WithLane(bit, v)
	}
}

// laneMask builds a w-word mask of n consecutive lanes starting at from.
func laneMask(from, n, w int) []uint64 {
	m := make([]uint64, w)
	for l := from; l < from+n; l++ {
		m[l>>6] |= 1 << uint(l&63)
	}
	return m
}

// packedBaselines memoizes the good-circuit planes per 64w-pattern
// chunk, packed as packBlock does. All chunk planes share one backing
// array (one allocation to scan instead of one per chunk).
func (s *Simulator) packedBaselines(patterns []Pattern, w int, binary bool) []packedBase {
	cc := s.Compiled()
	lanes := 64 * w
	nChunks := (len(patterns) + lanes - 1) / lanes
	stride := cc.NumNets() * w
	backing := make([]logic.PackedVec, nChunks*stride)
	out := make([]packedBase, 0, nChunks)
	for base := 0; base < len(patterns); base += lanes {
		chunk := patterns[base:min(base+lanes, len(patterns))]
		pb := packedBase{
			start: base,
			w:     w,
			valid: laneMask(0, len(chunk), w),
			in:    s.packBlock(chunk, w, 1, binary),
		}
		pb.vals = cc.EvalBlock(pb.in, w, backing[:stride:stride])
		backing = backing[stride:]
		out = append(out, pb)
	}
	return out
}

// packedGroupBase is the shared baseline of a fault-packed batch: the
// whole pattern list replicated across `groups` disjoint lane groups of
// span lanes each, so every group sees identical fault-free planes and
// a batch of faults propagates in one pass.
type packedGroupBase struct {
	w      int
	span   int // lanes per group (= the campaign's pattern count)
	groups int
	masks  [][]uint64 // per group, its lanes
	in     []logic.PackedVec
	vals   []logic.PackedVec
}

// packedGroupedBase evaluates the replicated baseline once.
func (s *Simulator) packedGroupedBase(patterns []Pattern, w, groups int, binary bool) *packedGroupBase {
	cc := s.Compiled()
	gb := &packedGroupBase{
		w:      w,
		span:   len(patterns),
		groups: groups,
		masks:  make([][]uint64, groups),
		in:     s.packBlock(patterns, w, groups, binary),
	}
	for g := 0; g < groups; g++ {
		gb.masks[g] = laneMask(g*len(patterns), len(patterns), w)
	}
	gb.vals = cc.EvalBlock(gb.in, w, make([]logic.PackedVec, cc.NumNets()*w))
	return gb
}

// packGroups sizes a fault-packed batch: how many whole pattern-list
// copies fit in 64w lanes, clamped by the simulable fault count and
// maxPackGroups. 1 means no packing.
func packGroups(nPatterns, nSimulable, w int) int {
	if nSimulable < 2 || nPatterns == 0 || nPatterns > 32*w {
		return 1
	}
	g := 64 * w / nPatterns
	if g > maxPackGroups {
		g = maxPackGroups
	}
	if g > nSimulable {
		g = nSimulable
	}
	if g < 2 {
		return 1
	}
	return g
}

// laneWordsFor picks the lane-block width of a campaign: an explicit
// Simulator.LaneWords wins; otherwise scale with the pattern count, and
// with the fault count when spare width buys fault packing.
func (s *Simulator) laneWordsFor(nPatterns, nFaults int) int {
	if logic.ValidLaneWords(s.LaneWords) {
		return s.LaneWords
	}
	switch {
	case nPatterns > 128:
		return 4
	case nPatterns > 64:
		return 2
	case nFaults >= 2 && nPatterns > 32:
		return 4
	case nFaults >= 2 && nPatterns > 16:
		return 2
	}
	return 1
}

// packedClass adapts one fault class to the packed drivers: the stage
// its progress reports under, how baselines pack, which answers its
// sweep produces (mode), which faults it simulates (the rest count as
// Dropped) and how a simulable fault resolves to its seed site.
type packedClass struct {
	stage     string
	binary    bool
	mode      sweepMode
	simulable func(core.Fault) bool
	resolve   func(*packedScratch, core.Fault) (packedSite, bool, error)
}

// leakDecides reports whether a seed's sweep may stop before
// propagation: only an iddqOnly sweep without capture may, once a leak
// lands at or before the seed's first flip lane (no output difference
// can come earlier). Every other sweep still needs the voltage answer
// or the full signature.
func (cls *packedClass) leakDecides(sd *packedSeed, w int, capturing bool) bool {
	return cls.mode == iddqOnly && !capturing && logic.FirstLaneBlock(sd.leak[:w]) <= sd.floor
}

// packedSite is one fault resolved against the compiled circuit: the
// gate whose output the fault deviates (gi, -1 for a primary-input
// stem), that output net, and how the faulty plane is formed — the
// transistor behaviour table lut, or the stuck-at constant force read
// at fanin pin (pin -1: forced onto the net itself).
type packedSite struct {
	gi, onet int
	lut      *faultLUT
	pin      int
	force    logic.PackedVec
}

// packedPlan is the per-campaign packing decision plus its baselines.
type packedPlan struct {
	w      int
	groups int
	bases  []packedBase     // groups == 1: plain chunked sweep
	gb     *packedGroupBase // groups > 1: fault-packed batches
}

// packedPlanFor sizes the lane blocks and fault-packing of a campaign
// and evaluates the matching baselines.
func (s *Simulator) packedPlanFor(cls *packedClass, faults []core.Fault, patterns []Pattern) packedPlan {
	sim := 0
	for _, f := range faults {
		if cls.simulable(f) {
			sim++
		}
	}
	w := s.laneWordsFor(len(patterns), sim)
	pl := packedPlan{w: w, groups: packGroups(len(patterns), sim, w)}
	if pl.groups > 1 {
		pl.gb = s.packedGroupedBase(patterns, w, pl.groups, cls.binary)
	} else {
		pl.bases = s.packedBaselines(patterns, w, cls.binary)
	}
	return pl
}

// baseEvals counts the baseline word evaluations of the plan, reported
// to the progress sink before the fault sweep starts.
func (pl *packedPlan) baseEvals(nGates int) uint64 {
	if pl.gb != nil {
		return uint64(nGates) * uint64(pl.w)
	}
	return uint64(len(pl.bases)) * uint64(nGates) * uint64(pl.w)
}

// evalFaultLUTPacked evaluates one per-fault behaviour table across all
// lanes: the faulty gate's output planes plus the lanes carrying the
// IDDQ-leak signature (only fully-defined input vectors can leak, by
// construction of the table). The nested per-digit loops prune whole
// subtables whose lane mask is already empty and avoid the radix-3
// divisions of a flat index walk (this runs once per fault per word,
// right on the packed hot path).
func evalFaultLUTPacked(lut *faultLUT, in []logic.PackedVec) (logic.PackedVec, uint64) {
	// Digit masks computed in place (the [3][3]uint64 of
	// logic.TernaryLaneMasks is a 72-byte copy per call, once per fault
	// per word).
	var masks [3][3]uint64
	for i := range in {
		p := in[i].Canon()
		masks[i][0] = p.Known &^ p.Val
		masks[i][1] = p.Val
		masks[i][2] = ^p.Known
	}
	var out logic.PackedVec
	var leak uint64
	accum := func(idx int, m uint64) {
		if lut.leak[idx] {
			leak |= m
		}
		switch lut.out[idx] {
		case logic.L1:
			out.Val |= m
			out.Known |= m
		case logic.L0:
			out.Known |= m
		}
	}
	switch len(in) {
	case 1:
		for d0 := 0; d0 < 3; d0++ {
			if m := masks[0][d0]; m != 0 {
				accum(d0, m)
			}
		}
	case 2:
		for d1 := 0; d1 < 3; d1++ {
			m1 := masks[1][d1]
			if m1 == 0 {
				continue
			}
			for d0 := 0; d0 < 3; d0++ {
				if m := m1 & masks[0][d0]; m != 0 {
					accum(3*d1+d0, m)
				}
			}
		}
	default:
		for d2 := 0; d2 < 3; d2++ {
			m2 := masks[2][d2]
			if m2 == 0 {
				continue
			}
			for d1 := 0; d1 < 3; d1++ {
				m1 := m2 & masks[1][d1]
				if m1 == 0 {
					continue
				}
				for d0 := 0; d0 < 3; d0++ {
					if m := m1 & masks[0][d0]; m != 0 {
						accum(9*d2+3*d1+d0, m)
					}
				}
			}
		}
	}
	return out, leak
}

// packedSeed is one fault's state inside a propagation pass. mask holds
// its flip lanes: the lanes of its group where the faulty site value
// definitely differs from the good one. Its site plane is the baseline
// with those lanes inverted, so it needs no plane of its own. leak holds
// the group's IDDQ lanes, diff the primary-output deviation lanes
// accumulated so far (always within mask). floor is the first flip
// lane: no detection can land earlier, so the seed resolves the moment
// diff gains that lane. pattern = patOff + lane maps a lane back to the
// campaign's pattern index.
type packedSeed struct {
	out    int // index into the campaign's detection slice
	gi     int // faulted gate
	onet   int // its output net
	floor  int
	patOff int
	live   bool
	mask   [logic.MaxLaneWords]uint64
	leak   [logic.MaxLaneWords]uint64
	diff   [logic.MaxLaneWords]uint64
}

// answer folds a seed's lanes into its fault's answers, each kept once
// set (an earlier chunk wins): the d answer takes the earliest lane of
// the combined leak/diff mask, leak beating output at equal lanes (the
// per-pattern observation order of the reference oracle), and the
// voltage answer the earliest diff lane.
func (sd *packedSeed) answer(w int, a *answers) {
	if a.pattern < 0 {
		var m [logic.MaxLaneWords]uint64
		for j := 0; j < w; j++ {
			m[j] = sd.leak[j] | sd.diff[j]
		}
		if lane := logic.FirstLaneBlock(m[:w]); lane < w<<6 {
			a.method, a.pattern = ByOutput, sd.patOff+lane
			if sd.leak[lane>>6]>>uint(lane&63)&1 == 1 {
				a.method = ByIDDQ
			}
		}
	}
	if a.voltage < 0 {
		if lane := logic.FirstLaneBlock(sd.diff[:w]); lane < w<<6 {
			a.voltage = sd.patOff + lane
		}
	}
}

// packedScratch is the reusable per-worker state of the packed engine:
// epoch-stamped faulty lane blocks over the chunk baseline, per-net
// dirty word masks and a topological-position min-heap of pending
// gates. The event-driven walk evaluates only gates with a dirty fanin
// word, and only the dirty words of those gates, so sparse campaigns
// never touch the static all-gates cone tables.
type packedScratch struct {
	cc    *logic.CompiledCircuit
	w     int               // current lane-block width of fval
	fval  []logic.PackedVec // net-major stride w, valid where stamp/dirty say so
	stamp []int64           // net touched-epoch
	dirty []uint8           // net -> word mask of deviations vs baseline
	gq    []int64           // gate queued-marker epoch
	epoch int64
	heap  []int // pending gate indices, min-heap by topological position
	inbuf [3]logic.PackedVec
	seeds []packedSeed // reusable batch buffer

	// capture, while set, retires a seed only once every flip lane has
	// detected, so the walk accumulates each seed's full deviation mask
	// (signature capture needs all detecting lanes, not just the
	// earliest one).
	capture bool

	// Scratch-local resolution caches — lock-free because a scratch is
	// owned by exactly one goroutine at a time, and warm across
	// campaigns because scratches are pooled on the Simulator. The
	// 1-entry memos exploit fault-list locality (faults group by gate
	// and iterate the fault kinds of one transistor consecutively; the
	// name strings share backing, so equality is a pointer comparison);
	// luts replaces the process-wide sync.Map, whose interface-key
	// hashing costs more than the whole packed evaluation of one fault.
	lastGate  string
	lastGI    int
	lastTr    string
	lastKind  gates.Kind
	lastSlots *[8]*faultLUT
	luts      [16]map[string]*[8]*faultLUT // [kind][transistor][tfault]

	evals, runs uint64 // packed word evals / fault runs, flushed per campaign
	pairLanes   uint64 // two-pattern lanes decoded, flushed with them
	life        uint64 // flushed evals, so life + evals is monotone for progress
}

// lifetimeEvals is the monotone packed-eval count of this scratch.
func (sc *packedScratch) lifetimeEvals() uint64 { return sc.life + sc.evals }

// packedScratchOf hands out a reusable scratch (the per-net plane and
// stamp slices dominate the allocation cost of small campaigns).
func (s *Simulator) packedScratchOf() *packedScratch {
	if v := s.scratchPool.Get(); v != nil {
		return v.(*packedScratch)
	}
	cc := s.Compiled()
	return &packedScratch{
		cc:     cc,
		w:      1,
		fval:   make([]logic.PackedVec, cc.NumNets()),
		stamp:  make([]int64, cc.NumNets()),
		dirty:  make([]uint8, cc.NumNets()),
		gq:     make([]int64, len(cc.C.Gates)),
		lastGI: -1,
	}
}

func (s *Simulator) putPackedScratch(sc *packedScratch) {
	sc.flushStats()
	s.scratchPool.Put(sc)
}

// ensure resizes the faulty-plane buffer to lane width w. Stale stamps
// from another width are harmless: propagateSeeds bumps the epoch.
func (sc *packedScratch) ensure(w int) {
	if sc.w == w {
		return
	}
	sc.w = w
	if n := sc.cc.NumNets() * w; cap(sc.fval) < n {
		sc.fval = make([]logic.PackedVec, n)
	} else {
		sc.fval = sc.fval[:n]
	}
}

// seedBuf hands out n reusable seed slots.
func (sc *packedScratch) seedBuf(n int) []packedSeed {
	if cap(sc.seeds) < n {
		sc.seeds = make([]packedSeed, n)
	}
	return sc.seeds[:n]
}

// gateIndex memoizes the instance-name lookup behind the 1-entry cache.
func (sc *packedScratch) gateIndex(s *Simulator, name string) (int, bool) {
	if sc.lastGI >= 0 && name == sc.lastGate {
		return sc.lastGI, true
	}
	gi, ok := s.gateIdx[name]
	if ok {
		sc.lastGate, sc.lastGI = name, gi
	}
	return gi, ok
}

func (sc *packedScratch) push(gi int) {
	if sc.gq[gi] == sc.epoch {
		return
	}
	sc.gq[gi] = sc.epoch
	sc.heap = append(sc.heap, gi)
	pos := sc.cc.Pos
	i := len(sc.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pos[sc.heap[parent]] <= pos[sc.heap[i]] {
			break
		}
		sc.heap[parent], sc.heap[i] = sc.heap[i], sc.heap[parent]
		i = parent
	}
}

func (sc *packedScratch) pop() int {
	top := sc.heap[0]
	last := len(sc.heap) - 1
	sc.heap[0] = sc.heap[last]
	sc.heap = sc.heap[:last]
	pos := sc.cc.Pos
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(sc.heap) && pos[sc.heap[l]] < pos[sc.heap[smallest]] {
			smallest = l
		}
		if r < len(sc.heap) && pos[sc.heap[r]] < pos[sc.heap[smallest]] {
			smallest = r
		}
		if smallest == i {
			break
		}
		sc.heap[i], sc.heap[smallest] = sc.heap[smallest], sc.heap[i]
		i = smallest
	}
	return top
}

// flushStats publishes the accumulated packed counters (once per
// campaign or worker, not per fault: two uncontended atomics per fault
// are measurable at packed speeds).
func (sc *packedScratch) flushStats() {
	if sc.evals > 0 {
		engineStats.packedGateEvals.Add(sc.evals)
		sc.life += sc.evals
		sc.evals = 0
	}
	if sc.runs > 0 {
		engineStats.packedFaultRuns.Add(sc.runs)
		sc.runs = 0
	}
	if sc.pairLanes > 0 {
		engineStats.twoPatternRuns.Add(sc.pairLanes)
		sc.pairLanes = 0
	}
}

// resolveFaultLUT memoizes compiledFaultLUT resolutions in the scratch.
func (sc *packedScratch) resolveFaultLUT(key faultLUTKey) (*faultLUT, error) {
	if int(key.kind) >= len(sc.luts) || int(key.tf) >= 8 {
		return compiledFaultLUT(key.kind, key.tr, key.tf) // out-of-range enums: no memo
	}
	byTr := sc.luts[key.kind]
	if byTr == nil {
		byTr = map[string]*[8]*faultLUT{}
		sc.luts[key.kind] = byTr
	}
	slots := byTr[key.tr]
	if slots == nil {
		slots = new([8]*faultLUT)
		byTr[key.tr] = slots
	}
	sc.lastKind, sc.lastTr, sc.lastSlots = key.kind, key.tr, slots
	if lut := slots[key.tf]; lut != nil {
		return lut, nil
	}
	lut, err := compiledFaultLUT(key.kind, key.tr, key.tf)
	if err != nil {
		return nil, err
	}
	slots[key.tf] = lut
	return lut, nil
}

// resolvePackedFault resolves a simulable fault's gate and behaviour
// LUT through the scratch memos.
func (s *Simulator) resolvePackedFault(f core.Fault, sc *packedScratch) (int, *faultLUT, error) {
	tf, _ := f.Kind.TFault()
	gi, ok := sc.gateIndex(s, f.Gate)
	if !ok {
		return 0, nil, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
	}
	kind := s.C.Gates[gi].Kind
	if sc.lastSlots != nil && kind == sc.lastKind && f.Transistor == sc.lastTr && int(tf) < 8 {
		if lut := sc.lastSlots[tf]; lut != nil {
			return gi, lut, nil
		}
	}
	lut, err := sc.resolveFaultLUT(faultLUTKey{kind, f.Transistor, tf})
	return gi, lut, err
}

// transistorClass adapts the CP transistor faults to the packed
// drivers, over ternary baselines.
func (s *Simulator) transistorClass(mode sweepMode) *packedClass {
	return &packedClass{
		stage:     "transistor",
		mode:      mode,
		simulable: transistorSimulable,
		resolve: func(sc *packedScratch, f core.Fault) (packedSite, bool, error) {
			gi, lut, err := s.resolvePackedFault(f, sc)
			if err != nil {
				return packedSite{}, false, err
			}
			return packedSite{gi: gi, onet: sc.cc.GateOut[gi], lut: lut, pin: -1}, true, nil
		},
	}
}

// siteWord evaluates word j of a site's faulty plane over the baseline
// block, plus its IDDQ-leak lanes (transistor faults only).
func (sc *packedScratch) siteWord(st *packedSite, base []logic.PackedVec, j int) (logic.PackedVec, uint64) {
	if st.lut == nil && st.pin < 0 {
		return st.force, 0 // a stem: the net itself is stuck
	}
	cc, w := sc.cc, sc.w
	fin := cc.Fanin[st.gi]
	in := sc.inbuf[:len(fin)]
	for k, nid := range fin {
		in[k] = base[nid*w+j]
	}
	sc.evals++
	if st.lut != nil {
		return evalFaultLUTPacked(st.lut, in)
	}
	in[st.pin] = st.force
	return logic.EvalKindPacked(cc.Kinds[st.gi], cc.LUT[st.gi], in), 0
}

// seedChunk fills sd with a resolved fault's behaviour over the baseline
// block, restricted to the lanes of group: the IDDQ leak lanes (when
// leaks are observed), the flip lanes and their floor. live is set when
// at least one lane flips (the seed needs propagation to resolve); leak
// lanes are reported either way. A lane where the faulty site is X never
// flips: it cannot reach a definite output mismatch (see the package
// doc), so it is neither propagated nor credited.
func (sc *packedScratch) seedChunk(sd *packedSeed, st *packedSite, group []uint64, patOff int, base []logic.PackedVec, leaks bool) {
	w := sc.w
	sd.gi, sd.onet, sd.patOff = st.gi, st.onet, patOff
	for j := 0; j < w; j++ {
		sd.mask[j], sd.leak[j], sd.diff[j] = 0, 0, 0
		if group[j] == 0 {
			continue
		}
		fo, leak := sc.siteWord(st, base, j)
		if leaks {
			sd.leak[j] = leak & group[j]
		}
		sd.mask[j] = logic.DefiniteDiffMask(base[st.onet*w+j], fo) & group[j]
	}
	sd.floor = logic.FirstLaneBlock(sd.mask[:w])
	sd.live = sd.floor < w<<6
}

// propagateSeeds pushes the live seeds' flip lanes through the
// event-driven block walk, accumulating each seed's masked
// primary-output deviations into its diff words. Seeds carry disjoint
// lane groups, evaluation is lane-wise, and every seed's fanins sit
// upstream of its own fault, so within one group the only deviation
// source is that group's seed: each seed's diff is exactly what a solo
// propagation over its lanes would produce, and the walk stops as soon
// as every seed has resolved its floor lane. Faulted gates re-assert
// their flips whenever another seed's effects wash over them, so
// batches need no structural disjointness — faults may even share a
// gate.
func (sc *packedScratch) propagateSeeds(seeds []packedSeed, base []logic.PackedVec) {
	cc, w := sc.cc, sc.w
	stamp, dirty := sc.stamp, sc.dirty
	sc.epoch++
	epoch := sc.epoch
	sc.heap = sc.heap[:0]

	live := 0
	// done accumulates, per word, the lanes whose detection is already
	// recorded under capture. A lane's signature bit is boolean — once a
	// definite PO diff credited it, further deviation spread on that
	// lane carries no information — so the walk forces completed lanes
	// back to baseline below. Lane-wise evaluation keeps this exact:
	// suppressing one lane cannot perturb any other.
	var done [logic.MaxLaneWords]uint64
	// credit distributes a changed output net's definite diff lanes to
	// the live seeds, retiring seeds that gain their floor lane (or,
	// under capture, whose every flip lane has detected).
	credit := func(on int) {
		var dm [logic.MaxLaneWords]uint64
		any := uint64(0)
		for j := 0; j < w; j++ {
			if dirty[on]>>uint(j)&1 == 1 {
				dm[j] = logic.DefiniteDiffMask(base[on*w+j], sc.fval[on*w+j])
				any |= dm[j]
			}
		}
		if any == 0 {
			return
		}
		for si := range seeds {
			sd := &seeds[si]
			if !sd.live {
				continue
			}
			gained := false
			for j := 0; j < w; j++ {
				if nd := dm[j] & sd.mask[j] &^ sd.diff[j]; nd != 0 {
					sd.diff[j] |= nd
					if sc.capture {
						done[j] |= nd
					}
					gained = true
				}
			}
			if !gained {
				continue
			}
			if sc.capture {
				complete := true
				for j := 0; j < w; j++ {
					if sd.diff[j] != sd.mask[j] {
						complete = false
						break
					}
				}
				if complete {
					sd.live = false
					live--
				}
				continue
			}
			if sd.diff[sd.floor>>6]>>uint(sd.floor&63)&1 == 1 {
				sd.live = false
				live--
			}
		}
	}

	// Seed phase: invert each seed's flip lanes on its site net (groups
	// are disjoint, so flips never collide), then stamp, credit and
	// schedule each distinct site net once.
	var sitebuf [maxPackGroups]int
	sites := sitebuf[:0]
	for si := range seeds {
		sd := &seeds[si]
		if !sd.live {
			continue
		}
		live++
		on := sd.onet
		if stamp[on] != epoch {
			stamp[on], dirty[on] = epoch, 0
			for j := 0; j < w; j++ {
				sc.fval[on*w+j] = base[on*w+j]
			}
			sites = append(sites, on)
		}
		for j := 0; j < w; j++ {
			sc.fval[on*w+j].Val ^= sd.mask[j]
		}
	}
	for _, on := range sites {
		d := uint8(0)
		for j := 0; j < w; j++ {
			if sc.fval[on*w+j] != base[on*w+j] {
				d |= 1 << uint(j)
			}
		}
		dirty[on] = d
		if d == 0 {
			continue
		}
		if cc.IsOutput[on] {
			credit(on)
		}
		for _, g := range cc.Fanouts[on] {
			sc.push(g)
		}
	}

	// Event-driven walk: the min-heap pops gates in topological order,
	// so each gate's fanins are final when it is evaluated and no gate
	// runs twice per epoch. Only dirty fanin words are re-evaluated;
	// words that return to baseline drop their dirty bit.
	for len(sc.heap) > 0 && live > 0 {
		g := sc.pop()
		fin := cc.Fanin[g]
		dw := uint8(0)
		for _, nid := range fin {
			if stamp[nid] == epoch {
				dw |= dirty[nid]
			}
		}
		if dw == 0 {
			continue
		}
		on := cc.GateOut[g]
		prev := uint8(0)
		if stamp[on] == epoch { // a seeded site: keep non-evaluated words' deviations
			prev = dirty[on] &^ dw
		} else {
			stamp[on] = epoch
		}
		blend := false
		for si := range seeds {
			if seeds[si].gi == g {
				blend = true
				break
			}
		}
		nd := prev
		kind, lut := cc.Kinds[g], cc.LUT[g]
		for j := 0; j < w; j++ {
			if dw>>uint(j)&1 == 0 {
				continue
			}
			in := sc.inbuf[:len(fin)]
			for k, nid := range fin {
				if stamp[nid] == epoch && dirty[nid]>>uint(j)&1 == 1 {
					in[k] = sc.fval[nid*w+j]
				} else {
					in[k] = base[nid*w+j]
				}
			}
			nv := logic.EvalKindPacked(kind, lut, in)
			sc.evals++
			if blend {
				// A faulted gate's output is flipped within its seed's
				// flip lanes regardless of what washed over its inputs.
				b := base[on*w+j]
				for si := range seeds {
					if sd := &seeds[si]; sd.gi == g {
						m := sd.mask[j]
						nv.Val = nv.Val&^m | ^b.Val&m
						nv.Known |= m
					}
				}
			}
			if dn := done[j]; dn != 0 {
				// Capture mode: lanes whose detection is recorded stop
				// deviating, so the walk converges at the per-lane rate
				// of an uncaptured sweep instead of running every
				// deviation to quiescence.
				b := base[on*w+j]
				nv.Val = nv.Val&^dn | b.Val&dn
				nv.Known = nv.Known&^dn | b.Known&dn
			}
			if nv != base[on*w+j] {
				sc.fval[on*w+j] = nv
				nd |= 1 << uint(j)
			}
		}
		dirty[on] = nd
		if nd == 0 {
			continue
		}
		if cc.IsOutput[on] {
			credit(on)
			if live == 0 {
				return
			}
		}
		for _, fg := range cc.Fanouts[on] {
			sc.push(fg)
		}
	}
}

// simulateFaultPacked runs one fault of a class chunk by chunk: one
// seed evaluation plus one event-driven block pass per chunk with a
// flip lane. It returns the fault's answers (packedSeed.answer) and
// stops at the class mode's stop answer; under iddqOnly, the voltage
// answer is not swept to. A non-nil sig disables the chunk early exits,
// retires the seed only once all its flip lanes have detected, and
// records fault si's full signature from the propagated lane masks,
// from which the answers are read.
func (s *Simulator) simulateFaultPacked(cls *packedClass, f core.Fault, si int, bases []packedBase, sc *packedScratch, sig *SignatureCapture) (answers, error) {
	a := undetected
	if !cls.simulable(f) || len(bases) == 0 {
		return a, nil
	}
	st, ok, err := cls.resolve(sc, f)
	if !ok {
		return a, err
	}
	sc.runs++
	w := sc.w
	seeds := sc.seedBuf(1)
	sd := &seeds[0]
	for ci := range bases {
		pb := &bases[ci]
		sc.seedChunk(sd, &st, pb.valid, pb.start, pb.vals, cls.mode.observesLeaks())
		if sd.live && !cls.leakDecides(sd, w, sig != nil) {
			sc.capture = sig != nil
			sc.propagateSeeds(seeds, pb.vals)
			sc.capture = false
		}
		if sig != nil {
			sig.orLanes(si, pb.start, sd.diff[:w], false)
			sig.orLanes(si, pb.start, sd.leak[:w], true)
		}
		sd.answer(w, &a)
		if sig == nil && a.stop(cls.mode) >= 0 {
			break
		}
	}
	return a, nil
}

// runPackedGrouped sweeps the faults selected by idxs with fault
// packing: up to plan.groups simulable faults seed disjoint lane groups
// of the replicated baseline and resolve in one shared propagation
// pass. Faults that never flip a lane (or, under iddqOnly, whose leak
// decides) resolve at seed time and never occupy a group slot. Each
// fault's answers land in out and volt (answers.put). A non-nil sig
// keeps every flipping fault in its slot until all its flip lanes have
// detected or the walk ends, and records each fault's full signature
// from its group's lane masks before reading the same answers.
func (s *Simulator) runPackedGrouped(ctx context.Context, cls *packedClass, faults []core.Fault, idxs []int, gb *packedGroupBase, sc *packedScratch, sig *SignatureCapture, sink *progressSink, out, volt []Detection) error {
	w := sc.w
	seeds := sc.seedBuf(gb.groups)[:0]
	batchDetected := 0
	batchStart := sc.lifetimeEvals()
	// settle records a seed's signature and answers; it reports whether
	// the fault's stop answer detected.
	settle := func(sd *packedSeed) int {
		if sig != nil {
			sig.orLanes(sd.out, sd.patOff, sd.diff[:w], false)
			sig.orLanes(sd.out, sd.patOff, sd.leak[:w], true)
		}
		a := undetected
		sd.answer(w, &a)
		a.put(out, volt, sd.out, faults[sd.out])
		return b2i(a.stop(cls.mode) >= 0)
	}
	flush := func() {
		if len(seeds) == 0 {
			return
		}
		sc.capture = sig != nil
		sc.propagateSeeds(seeds, gb.vals)
		sc.capture = false
		for si := range seeds {
			batchDetected += settle(&seeds[si])
		}
		sink.add(len(seeds), batchDetected, 0, sc.lifetimeEvals()-batchStart)
		seeds = seeds[:0]
		batchDetected = 0
		batchStart = sc.lifetimeEvals()
	}
	for _, i := range idxs {
		if err := ctx.Err(); err != nil {
			return err
		}
		f := faults[i]
		undetected.put(out, volt, i, f)
		if !cls.simulable(f) {
			sink.add(1, 0, 1, 0)
			continue
		}
		st, ok, err := cls.resolve(sc, f)
		if err != nil {
			return err
		}
		if !ok {
			sink.add(1, 0, 0, 0)
			continue
		}
		sc.runs++
		g := len(seeds)
		seeds = seeds[:g+1]
		sd := &seeds[g]
		sd.out = i
		before := sc.lifetimeEvals()
		sc.seedChunk(sd, &st, gb.masks[g], -g*gb.span, gb.vals, cls.mode.observesLeaks())
		if !sd.live || cls.leakDecides(sd, w, sig != nil) {
			// Resolved at seed time: release the slot for the next fault.
			detected := settle(sd)
			seeds = seeds[:g]
			delta := sc.lifetimeEvals() - before
			batchStart += delta // keep the batch delta clean of this fault
			sink.add(1, detected, 0, delta)
			continue
		}
		if len(seeds) == gb.groups {
			flush()
		}
	}
	flush()
	return nil
}

// runPacked is the serial packed campaign driver of one fault class. It
// returns each fault's d answer and, under bothAnswers, its voltage
// answer (volt is nil otherwise). On an error it returns the detections
// resolved so far alongside it (the rest stay undetected).
func (s *Simulator) runPacked(ctx context.Context, cls *packedClass, faults []core.Fault, patterns []Pattern) (out, volt []Detection, err error) {
	sink := s.progressSink(cls.stage, len(faults))
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, nil, err
		}
	}
	pl := s.packedPlanFor(cls, faults, patterns)
	sc := s.packedScratchOf()
	sc.ensure(pl.w)
	defer s.putPackedScratch(sc)
	sink.add(0, 0, 0, pl.baseEvals(len(s.C.Gates)))
	out = make([]Detection, len(faults))
	if cls.mode == bothAnswers {
		volt = make([]Detection, len(faults))
	}
	idxs := make([]int, len(faults))
	for i, f := range faults {
		undetected.put(out, volt, i, f)
		idxs[i] = i
	}
	if pl.gb != nil {
		return out, volt, s.runPackedGrouped(ctx, cls, faults, idxs, pl.gb, sc, sig, sink, out, volt)
	}
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return out, volt, err
		}
		before := sc.lifetimeEvals()
		a, err := s.simulateFaultPacked(cls, f, i, pl.bases, sc, sig)
		if err != nil {
			return out, volt, err
		}
		a.put(out, volt, i, f)
		sink.add(1, b2i(a.stop(cls.mode) >= 0), b2i(!cls.simulable(f)), sc.lifetimeEvals()-before)
	}
	return out, volt, nil
}

// blockGateIndex decodes one gate's ternary LUT index for a single lane
// of a width-w block.
func blockGateIndex(cc *logic.CompiledCircuit, gi, w, lane int, vals []logic.PackedVec) int {
	idx := 0
	for k, nid := range cc.Fanin[gi] {
		idx += int(vals[nid*w+lane>>6].Get(lane&63)) * logic.Pow3(k)
	}
	return idx
}

// runTwoPatternPacked replays pattern pairs through the stuck-open
// transition LUTs with packed block propagation: the faulty gate's
// charge-state trajectory is still decoded per lane (the Mealy state is
// radix-3 over internal node labels and does not vectorise), but the
// expensive downstream propagation of the test pattern covers all lanes
// of a block in one pass. Cancellation is checked between faults;
// progress is reported per fault on the "two_pattern" stage.
func (s *Simulator) runTwoPatternPacked(ctx context.Context, faults []core.Fault, pairs [][2]Pattern) ([]Detection, error) {
	sink := s.progressSink("two_pattern", len(faults))
	out := make([]Detection, len(faults))
	hasOpen := false
	for i, f := range faults {
		out[i] = Detection{Fault: f, Pattern: -1}
		if tf, ok := f.Kind.TFault(); ok && tf == logic.TFaultOpen {
			hasOpen = true
		}
	}
	if !hasOpen {
		sink.add(len(faults), 0, len(faults), 0)
		return out, nil // nothing to simulate: skip the baseline evals
	}
	firsts := make([]Pattern, len(pairs))
	seconds := make([]Pattern, len(pairs))
	for k, pair := range pairs {
		firsts[k], seconds[k] = pair[0], pair[1]
	}
	w := s.laneWordsFor(len(pairs), 1)
	bases0 := s.packedBaselines(firsts, w, false)
	bases1 := s.packedBaselines(seconds, w, false)
	sc := s.packedScratchOf()
	sc.ensure(w)
	defer s.putPackedScratch(sc)
	sink.add(0, 0, 0, uint64(len(bases0)+len(bases1))*uint64(len(s.C.Gates))*uint64(w))
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := sc.lifetimeEvals()
		d, simulable, err := s.twoPatternFaultPacked(f, len(pairs), bases0, bases1, sc)
		if err != nil {
			return nil, err
		}
		out[i] = d
		sink.add(1, b2i(d.Detected()), b2i(!simulable), sc.lifetimeEvals()-before)
	}
	return out, nil
}

// twoPatternFaultPacked runs one channel break through the init (bases0)
// and test (bases1) baselines of nPairs pairs, chunk by chunk, and stops
// at the first detecting chunk. simulable is false for a fault that is
// not a channel break; an unknown gate is an error.
func (s *Simulator) twoPatternFaultPacked(f core.Fault, nPairs int, bases0, bases1 []packedBase, sc *packedScratch) (d Detection, simulable bool, err error) {
	d = Detection{Fault: f, Pattern: -1}
	if tf, ok := f.Kind.TFault(); !ok || tf != logic.TFaultOpen {
		return d, false, nil
	}
	gi, ok := s.gateIdx[f.Gate]
	if !ok {
		return d, true, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
	}
	lut := compiledOpenLUT(s.C.Gates[gi].Kind, f.Transistor)
	sc.runs++
	cc, w := sc.cc, sc.w
	on := cc.GateOut[gi]
	seeds := sc.seedBuf(1)
	sd := &seeds[0]
	for ci := range bases0 {
		pb0, pb1 := &bases0[ci], &bases1[ci]
		n := min(nPairs-pb0.start, 64*w)
		sd.gi, sd.onet, sd.patOff = gi, on, pb1.start
		var fo [logic.MaxLaneWords]logic.PackedVec // lanes past n stay X: they never flip
		for lane := 0; lane < n; lane++ {
			st := lut.next[int(lut.init)*lut.nVec+blockGateIndex(cc, gi, w, lane, pb0.vals)]
			v := lut.out[int(st)*lut.nVec+blockGateIndex(cc, gi, w, lane, pb1.vals)]
			fo[lane>>6] = fo[lane>>6].WithLane(lane&63, v)
		}
		sc.pairLanes += uint64(n)
		for j := 0; j < w; j++ {
			sd.mask[j] = logic.DefiniteDiffMask(pb1.vals[on*w+j], fo[j])
			sd.leak[j], sd.diff[j] = 0, 0
		}
		sd.floor = logic.FirstLaneBlock(sd.mask[:w])
		if sd.floor == w<<6 {
			continue // no lane flips in this chunk
		}
		sd.live = true
		sc.propagateSeeds(seeds, pb1.vals)
		if lane := logic.FirstLaneBlock(sd.diff[:w]); lane < w<<6 {
			d.Method, d.Pattern = ByTwoPattern, pb1.start+lane
			return d, true, nil
		}
	}
	return d, true, nil
}
