// Packed PPSFP engine, the one fast engine of the package: N×64
// ternary patterns per lane block (two bitplane words per 64 lanes),
// evaluated through the compiled gate LUTs and the per-fault behaviour
// LUTs of engine.go. Baselines are packed once per campaign. Every fault
// the drivers simulate changes the value of one net, its site: a gate's
// output or a primary input. In a lane where the faulty site value
// definitely differs from the good one, the faulty circuit is the good
// circuit with the site flipped, so a fault's detecting lanes are its
// flip lanes ANDed with the site's observability mask: the lanes where
// flipping the net's known value definitely reaches a primary output
// (critical path tracing). A sweep computes each mask once per (site
// net, chunk) and every fault at that net reads it; a fault itself
// costs one packed site evaluation per lane word. Only stems (nets read
// by two or more gates) and primary outputs take an event-driven packed
// walk. Any other net lies in a fanout-free region: its flips reach the
// outputs only through its one reader, so its mask is the lanes where
// they definitely flip the reader's output, ANDed with that output's
// mask, one reader evaluation per lane word. Only definite flips count:
// every fault-free gate table is monotone (a known entry holds at every
// binary completion of its X inputs), so a lane whose faulty site value
// is X, or whose good value is, can only give primary outputs that are
// X or equal to the good ones, never a definite mismatch; the same
// argument makes the derived masks exact. Defined to be
// bit-identical to the reference oracle (same detection method, same
// first detecting pattern), which the differential suites enforce.
//
// Each fault class is a packedClass, and simulateFaultPacked serves all
// of them: a line stuck-at fault forces a constant at its site over
// binary baselines, a CP transistor fault evaluates its behaviour table,
// and a channel break over init/test pairs decodes its site lane by lane
// from its stuck-open transition table over pair chunks (the test
// patterns' chunk carrying the init patterns' good values). One driver,
// runPool (parallel.go), runs every class's batch entry point, and
// DropSet (dropset.go) every class's fault dropping.
package faultsim

import (
	"fmt"
	"math/bits"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// packedBase is the fault-free response of one lane-block chunk:
// vals is net-major with stride w (w words of 64 lanes per net). A pair
// chunk is its test patterns' chunk carrying, in init, the chunk of the
// same lanes' init patterns.
type packedBase struct {
	start int               // index of the chunk's first pattern, a multiple of 64w
	w     int               // lane words per net
	valid []uint64          // lanes backed by a real pattern, one word per lane word
	in    []logic.PackedVec // per primary input, input-major stride w
	vals  []logic.PackedVec // per net id, net-major stride w, canonical planes
	init  *packedBase       // a pair chunk's init patterns, nil otherwise
}

// packedBaselines packs the pattern set into 64w-lane chunks, gathering
// each chunk's input words from the set, and evaluates each chunk's good
// circuit; lanes past the last pattern stay X. Binary chunks read X
// inputs as 0 (the line stuck-at semantics). All chunk planes share one
// backing array (one allocation to scan instead of one per chunk).
func (s *Simulator) packedBaselines(patterns *PatternSet, w int, binary bool) []packedBase {
	cc := s.Compiled()
	nChunks := (patterns.Len() + 64*w - 1) / (64 * w)
	stride := cc.NumNets() * w
	backing := make([]logic.PackedVec, nChunks*stride)
	out := make([]packedBase, nChunks)
	for ci := range out {
		pb := &out[ci]
		*pb = packedBase{start: ci * 64 * w, w: w, valid: make([]uint64, w), in: make([]logic.PackedVec, len(s.C.Inputs)*w)}
		patterns.gather(pb.in, pb.valid, ci*w, w, binary)
		pb.vals = cc.EvalBlock(pb.in, w, backing[:stride:stride])
		backing = backing[stride:]
	}
	return out
}

// baseEvals counts the word evaluations of a sweep's baselines, a pair
// chunk's init baseline included, reported to the progress sink before
// the fault sweep starts.
func baseEvals(bases []packedBase, nGates int) uint64 {
	if len(bases) == 0 {
		return 0
	}
	n := uint64(len(bases)) * uint64(nGates) * uint64(bases[0].w)
	if bases[0].init != nil {
		n *= 2
	}
	return n
}

// laneWordsFor picks the lane-block width of a campaign: a pinned
// laneWords wins; otherwise the narrowest block that holds the patterns,
// up to 256 lanes.
func (s *Simulator) laneWordsFor(nPatterns int) int {
	if logic.ValidLaneWords(s.laneWords) {
		return s.laneWords
	}
	switch {
	case nPatterns > 128:
		return 4
	case nPatterns > 64:
		return 2
	}
	return 1
}

// packedClass adapts one fault class to the packed driver: the stage
// its progress reports under, how baselines pack (binary, and whether
// its chunks are pair chunks), which answers its sweep produces (mode),
// which faults it simulates (the rest count as Dropped) and how a
// simulable fault resolves to its seed site.
type packedClass struct {
	stage     string
	binary    bool
	pairs     bool
	mode      sweepMode
	simulable func(core.Fault) bool
	resolve   func(*packedScratch, core.Fault) (packedSite, bool, error)
}

// leakDecides reports whether a fault's chunk may skip its site's
// observability mask: only an iddqOnly sweep without capture may, once a
// leak lands at or before the fault's first flip lane (no output
// difference can come earlier). Every other sweep still needs the
// voltage answer or the full signature.
func (cls *packedClass) leakDecides(sd *packedSeed, w int, capturing bool) bool {
	return cls.mode == iddqOnly && !capturing && logic.FirstLaneBlock(sd.leak[:w]) <= sd.floor
}

// packedSite is one fault resolved against the compiled circuit: the
// gate whose output the fault deviates (gi, -1 for a primary-input
// stem), that output net, and how the faulty plane is formed — the
// transistor behaviour table lut, the channel break's transition table
// open, or the stuck-at constant force read at fanin pin (pin -1: forced
// onto the net itself).
type packedSite struct {
	gi, onet int
	lut      *faultLUT
	open     *openLUT
	pin      int
	force    logic.PackedVec
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

// packedSeed is one fault's lanes in one chunk. mask holds its flip
// lanes: the lanes where the faulty site value definitely differs from
// the good one. leak holds its IDDQ lanes and diff its detecting lanes:
// mask ANDed with the site's observability mask. floor is the first flip
// lane (no detection can land earlier), and live is set when there is
// one. pattern = patOff + lane maps a lane back to the campaign's
// pattern index.
type packedSeed struct {
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
// the sweep's memoized observability masks, and for the walk that
// computes one, epoch-stamped faulty lane blocks over the chunk
// baseline, per-net dirty word masks and a queue of pending gates. The
// event-driven walk evaluates only gates with a dirty fanin word, and
// only the dirty words of those gates.
type packedScratch struct {
	cc    *logic.CompiledCircuit
	w     int               // current lane-block width of fval
	fval  []logic.PackedVec // net-major stride w, valid where stamp/dirty say so
	stamp []int64           // net touched-epoch
	dirty []uint8           // net -> word mask of deviations vs baseline
	epoch int64
	// queue holds the walk's pending gates, a bitset over topological
	// positions (cc.Pos), empty between walks; qhi is the last word a
	// push has touched in the current walk.
	queue []uint64
	qhi   int
	inbuf [3]logic.PackedVec

	// obs memoizes the sweep's observability masks: w words per (chunk
	// ci, net) at (ci*NumNets+net)*w, valid while obsAt holds obsGen.
	// begin bumps obsGen, so every sweep starts with none. path is the
	// climb scratch of observability.
	obs    []uint64
	obsAt  []int64
	obsGen int64
	path   []int

	// Scratch-local resolution caches — lock-free because a scratch is
	// owned by exactly one goroutine at a time, and warm across
	// campaigns because scratches are pooled on the Simulator and the
	// service pools its simulators per prepared circuit. The
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
		queue:  make([]uint64, (len(cc.Order)+63)/64),
		lastGI: -1,
	}
}

func (s *Simulator) putPackedScratch(sc *packedScratch) {
	sc.flushStats()
	s.scratchPool.Put(sc)
}

// begin starts a sweep at lane width w: it forgets every memoized mask
// (they belong to the previous sweep's baselines) and resizes the
// faulty-plane buffer. Stale stamps from another width are harmless:
// propagate bumps the epoch.
func (sc *packedScratch) begin(w int) {
	sc.obsGen++
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

// forgetChunk drops the memoized masks of chunk ci, whose baseline has
// changed (a DropSet's tail block after an Add).
func (sc *packedScratch) forgetChunk(ci int) {
	n := sc.cc.NumNets()
	if lo := ci * n; lo < len(sc.obsAt) {
		clear(sc.obsAt[lo:min(lo+n, len(sc.obsAt))])
	}
}

// observability returns net's observability mask over chunk ci, whose
// baseline is pb: the lanes where flipping the net's known value
// definitely reaches a primary output. The first call of a sweep
// computes it; later calls read the memo. A stem, a primary output or an
// unread net is walked (propagate). Any other net is read by one gate
// only, so its flips reach the outputs only through that gate's output,
// and its mask is derived from the reader's output mask (derive): the
// call climbs the fanout-free region to the first memoized, walked or
// all-X net, then derives each net on the way back down, memoizing all
// of them. A net that is X in every lane gets an empty mask at no cost.
// The returned words are scratch memory, valid until the next call.
func (sc *packedScratch) observability(ci int, pb *packedBase, net int) []uint64 {
	cc, w, nets := sc.cc, sc.w, sc.cc.NumNets()
	if n := (ci + 1) * nets; len(sc.obsAt) < n {
		sc.obsAt = append(sc.obsAt, make([]int64, n-len(sc.obsAt))...)
	}
	if n := len(sc.obsAt) * w; len(sc.obs) < n {
		sc.obs = append(sc.obs, make([]uint64, n-len(sc.obs))...)
	}
	memo := func(n int) []uint64 {
		k := ci*nets + n
		return sc.obs[k*w : k*w+w]
	}
	sc.path = sc.path[:0]
	for n := net; sc.obsAt[ci*nets+n] != sc.obsGen; n = cc.GateOut[cc.Reader[n]] {
		sc.obsAt[ci*nets+n] = sc.obsGen
		known := uint64(0)
		for j := 0; j < w; j++ {
			known |= pb.vals[n*w+j].Known & pb.valid[j]
		}
		if known == 0 {
			clear(memo(n))
			break
		}
		if cc.Reader[n] < 0 {
			sc.propagate(pb, n, memo(n))
			break
		}
		sc.path = append(sc.path, n)
	}
	for i := len(sc.path) - 1; i >= 0; i-- {
		n := sc.path[i]
		sc.derive(pb, n, memo(n), memo(cc.GateOut[cc.Reader[n]]))
	}
	return memo(net)
}

// derive computes into m the mask of net n, read by one gate g only,
// from up, the mask of g's output: the lanes where flipping n's known
// value definitely flips g's output (on every pin reading n), within up.
// Where g's output definitely flips, the faulty circuit is the good one
// with g's output flipped; anywhere else no output can definitely differ
// (see the package doc). A word costs one evaluation of g, and none
// where n has no known lane or up is empty.
func (sc *packedScratch) derive(pb *packedBase, n int, m, up []uint64) {
	cc, w, base := sc.cc, sc.w, pb.vals
	g := cc.Reader[n]
	fin := cc.Fanin[g]
	in := sc.inbuf[:len(fin)]
	for j := 0; j < w; j++ {
		m[j] = 0
		flip := base[n*w+j].Known & pb.valid[j]
		if flip == 0 || up[j] == 0 {
			continue
		}
		for k, nid := range fin {
			in[k] = base[nid*w+j]
			if nid == n {
				in[k].Val ^= flip
			}
		}
		sc.evals++
		m[j] = logic.DefiniteDiffMask(base[cc.GateOut[g]*w+j], logic.EvalKindPacked(cc.Kinds[g], cc.LUT[g], in)) & up[j]
	}
}

// gateIndex memoizes the instance-name lookup behind the 1-entry cache.
func (sc *packedScratch) gateIndex(name string) (int, bool) {
	if sc.lastGI >= 0 && name == sc.lastGate {
		return sc.lastGI, true
	}
	gi, ok := sc.cc.GateID[name]
	if ok {
		sc.lastGate, sc.lastGI = name, gi
	}
	return gi, ok
}

// queueFanouts queues every gate reading net.
func (sc *packedScratch) queueFanouts(net int) {
	for _, gi := range sc.cc.Fanouts[net] {
		p := sc.cc.Pos[gi]
		sc.queue[p>>6] |= 1 << uint(p&63)
		sc.qhi = max(sc.qhi, p>>6)
	}
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
	gi, ok := sc.gateIndex(f.Gate)
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

// transistorClass adapts the CP transistor faults to the packed driver,
// over ternary baselines.
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

// pairClass adapts channel breaks over init/test pairs to the packed
// driver, over ternary pair chunks: a break's site is its gate's output
// under the test pattern, decoded from the stuck-open transition table
// (pairWord). Other kinds are not simulable; an unknown gate is an
// error, an unknown transistor compiles to the fault-free machine.
func (s *Simulator) pairClass() *packedClass {
	return &packedClass{
		stage: "two_pattern",
		pairs: true,
		simulable: func(f core.Fault) bool {
			tf, ok := f.Kind.TFault()
			return ok && tf == logic.TFaultOpen
		},
		resolve: func(sc *packedScratch, f core.Fault) (packedSite, bool, error) {
			gi, ok := sc.gateIndex(f.Gate)
			if !ok {
				return packedSite{}, false, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
			}
			open := compiledOpenLUT(s.C.Gates[gi].Kind, f.Transistor)
			return packedSite{gi: gi, onet: sc.cc.GateOut[gi], open: open, pin: -1}, true, nil
		},
	}
}

// siteWord evaluates word j of a site's faulty plane over chunk pb,
// plus its IDDQ-leak lanes (transistor faults only).
func (sc *packedScratch) siteWord(st *packedSite, pb *packedBase, j int) (logic.PackedVec, uint64) {
	if st.open != nil {
		return sc.pairWord(st, pb, j), 0
	}
	if st.lut == nil && st.pin < 0 {
		return st.force, 0 // a stem: the net itself is stuck
	}
	cc, w, base := sc.cc, sc.w, pb.vals
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

// pairWord decodes word j of a channel break's faulty gate output over
// pair chunk pb, lane by lane: the charge state the init pattern leaves
// from the all-X state, then the output the test pattern gives from it
// (the Mealy state is radix-3 over internal node labels and does not
// vectorise). It counts decoded pair lanes, not gate evaluations. Lanes
// past the chunk's pairs stay X: they never flip.
func (sc *packedScratch) pairWord(st *packedSite, pb *packedBase, j int) logic.PackedVec {
	cc, w, lut := sc.cc, sc.w, st.open
	var fo logic.PackedVec
	for m := pb.valid[j]; m != 0; m &= m - 1 {
		lane := j<<6 | bits.TrailingZeros64(m)
		next := lut.next[int(lut.init)*lut.nVec+blockGateIndex(cc, st.gi, w, lane, pb.init.vals)]
		fo = fo.WithLane(lane&63, lut.out[int(next)*lut.nVec+blockGateIndex(cc, st.gi, w, lane, pb.vals)])
		sc.pairLanes++
	}
	return fo
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

// seedChunk fills sd with a resolved fault's behaviour over chunk pb:
// its IDDQ leak lanes (when leaks are observed), its flip lanes and
// their floor, with no detecting lane yet. live is set when at least one
// lane flips (the fault then needs its site's mask); leak lanes are
// reported either way. A lane where the faulty site is X never flips: it
// cannot reach a definite output mismatch (see the package doc), so it
// is never credited.
func (sc *packedScratch) seedChunk(sd *packedSeed, st *packedSite, pb *packedBase, leaks bool) {
	w, base := sc.w, pb.vals
	sd.patOff = pb.start
	for j := 0; j < w; j++ {
		sd.mask[j], sd.leak[j], sd.diff[j] = 0, 0, 0
		if pb.valid[j] == 0 {
			continue
		}
		fo, leak := sc.siteWord(st, pb, j)
		if leaks {
			sd.leak[j] = leak & pb.valid[j]
		}
		sd.mask[j] = logic.DefiniteDiffMask(base[st.onet*w+j], fo) & pb.valid[j]
	}
	sd.floor = logic.FirstLaneBlock(sd.mask[:w])
	sd.live = sd.floor < w<<6
}

// propagate computes net's observability mask over baseline pb into m.
// It flips every known lane of the net at once and pushes the flips
// through the event-driven block walk; evaluation is lane-wise, so each
// lane answers on its own. A lane joins m once some primary output
// definitely differs in it, and from then on stops deviating (every
// evaluated gate word is forced back to baseline there), so the walk
// converges at the rate of the earliest detections. It ends once every
// flipped lane has been seen. Lanes where the net is X never flip: no
// fault can flip the net definitely there.
func (sc *packedScratch) propagate(pb *packedBase, net int, m []uint64) {
	cc, w, base := sc.cc, sc.w, pb.vals
	stamp, dirty := sc.stamp, sc.dirty
	sc.epoch++
	epoch := sc.epoch

	// left holds, per word, the flipped lanes no output has seen yet.
	var left [logic.MaxLaneWords]uint64
	d := uint8(0)
	for j := 0; j < w; j++ {
		m[j] = 0
		b := base[net*w+j]
		left[j] = b.Known & pb.valid[j]
		sc.fval[net*w+j] = logic.PackedVec{Val: b.Val ^ left[j], Known: b.Known}
		if left[j] != 0 {
			d |= 1 << uint(j)
		}
	}
	if d == 0 {
		return
	}
	stamp[net], dirty[net] = epoch, d
	// see records the lanes where output net on definitely differs and
	// reports whether every flipped lane has now been seen.
	see := func(on int) bool {
		all := true
		for j := 0; j < w; j++ {
			if dirty[on]>>uint(j)&1 == 1 {
				nd := logic.DefiniteDiffMask(base[on*w+j], sc.fval[on*w+j])
				m[j] |= nd
				left[j] &^= nd
			}
			all = all && left[j] == 0
		}
		return all
	}
	if cc.IsOutput[net] && see(net) {
		return
	}
	sc.qhi = -1
	sc.queueFanouts(net)

	// The queue pops gates in topological order, and every gate a pop
	// queues reads the popped gate's output, so it sits later in Order:
	// a forward cursor over the bitset sees each push, each gate's
	// fanins are final when it is evaluated, and no gate runs twice per
	// walk. The first queued word is a fanout of net. Only dirty fanin
	// words are re-evaluated; words that return to baseline drop their
	// dirty bit.
	qw := len(sc.queue)
	for _, g := range cc.Fanouts[net] {
		qw = min(qw, cc.Pos[g]>>6)
	}
	for ; qw <= sc.qhi; qw++ {
		for sc.queue[qw] != 0 {
			b := bits.TrailingZeros64(sc.queue[qw])
			sc.queue[qw] &^= 1 << uint(b)
			g := cc.Order[qw<<6|b]
			fin := cc.Fanin[g]
			dw := uint8(0)
			for _, nid := range fin {
				if stamp[nid] == epoch {
					dw |= dirty[nid]
				}
			}
			on := cc.GateOut[g]
			stamp[on] = epoch
			nd := uint8(0)
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
				b := base[on*w+j]
				if s := m[j]; s != 0 {
					nv.Val = nv.Val&^s | b.Val&s
					nv.Known = nv.Known&^s | b.Known&s
				}
				if nv != b {
					sc.fval[on*w+j] = nv
					nd |= 1 << uint(j)
				}
			}
			dirty[on] = nd
			if nd == 0 {
				continue
			}
			if cc.IsOutput[on] && see(on) {
				clear(sc.queue[qw : sc.qhi+1]) // leave the queue empty
				return
			}
			sc.queueFanouts(on)
		}
	}
}

// simulateFaultPacked runs one fault of a class chunk by chunk: one site
// evaluation per lane word (a channel break decodes its pair lanes
// instead), whose flip lanes are ANDed with the site's observability
// mask. It serves every class, in the batch driver and in a DropSet. It
// returns the fault's answers (packedSeed.answer)
// and stops at the class mode's stop answer; under iddqOnly, the voltage
// answer is not swept to. A non-nil sig sweeps every chunk and records
// fault si's full signature from the lanes the answers are read from.
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
	var sd packedSeed
	for ci := range bases {
		pb := &bases[ci]
		sc.seedChunk(&sd, &st, pb, cls.mode.observesLeaks())
		if sd.live && !cls.leakDecides(&sd, w, sig != nil) {
			obs := sc.observability(ci, pb, st.onet)
			for j := 0; j < w; j++ {
				sd.diff[j] = sd.mask[j] & obs[j]
			}
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
