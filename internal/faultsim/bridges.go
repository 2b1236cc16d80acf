package faultsim

import (
	"context"
	"sort"
	"sync"

	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// evalBridged simulates the circuit with a bridge injected. Bridges can
// feed a value backwards relative to the topological order, so the
// evaluation iterates the stem override to a fixpoint (the bridged value
// of each net is computed from the previous iteration's partner value).
// This is the reference oracle; the packed path below is defined to be
// bit-identical to it. evals, when non-nil, accumulates the
// full-circuit gate evaluations performed (one circuit pass per
// fixpoint iteration plus the open-bridge pass).
func evalBridged(c *logic.Circuit, p Pattern, b core.Bridge, evals *uint64) map[string]logic.V {
	// Pass 1: plain values (bridge open).
	vals := c.Eval(map[string]logic.V(p))
	if evals != nil {
		*evals += uint64(len(c.Gates))
	}
	for iter := 0; iter < 4; iter++ {
		prev := vals
		hooks := logic.TernaryHooks{Stem: func(net string, v logic.V) logic.V {
			switch net {
			case b.A:
				na, _ := b.Kind.Resolve(v, prev[b.B])
				return na
			case b.B:
				_, nb := b.Kind.Resolve(prev[b.A], v)
				return nb
			}
			return v
		}}
		vals = c.EvalHooked(map[string]logic.V(p), hooks)
		if evals != nil {
			*evals += uint64(len(c.Gates))
		}
		stable := true
		for _, po := range c.Outputs {
			if vals[po] != prev[po] {
				stable = false
				break
			}
		}
		if stable && iter > 0 {
			break
		}
	}
	return vals
}

// bridgeLeak reports the IDDQ signature of a bridge under one fault-free
// response: quiescent current flows when the two bridged nets are driven
// to definite opposite values (the drivers fight through the defect).
// Nets absent from the circuit read as 0, matching the reference
// engine's map semantics.
func bridgeLeak(good map[string]logic.V, b core.Bridge) bool {
	va, vb := good[b.A], good[b.B]
	ba, aok := va.Bool()
	bb, bok := vb.Bool()
	return aok && bok && ba != bb
}

// RunBridges fault-simulates bridging faults over the pattern set,
// detecting by definite primary-output differences.
func (s *Simulator) RunBridges(bridges []core.Bridge, patterns []Pattern) []Detection {
	out, _ := s.RunBridgesObserved(context.Background(), bridges, patterns, false)
	return out
}

// RunBridgesObserved is RunBridgesSet over the patterns converted to a
// PatternSet.
func (s *Simulator) RunBridgesObserved(ctx context.Context, bridges []core.Bridge, patterns []Pattern, useIDDQ bool) ([]Detection, error) {
	return s.RunBridgesSet(ctx, bridges, PatternSetOf(s.C, patterns), useIDDQ)
}

// RunBridgesSet fault-simulates bridging faults over a PatternSet with
// optional IDDQ observation: per pattern, a quiescent-current signature
// (the bridged nets driven to opposite rails) is checked before the
// voltage compare, mirroring the transistor-fault ordering, so a bridge
// detects ByIDDQ or ByOutput. The simulator's Engine selects the
// implementation — the 64-way packed fixpoint (EnginePacked, default)
// or the hooked fixpoint oracle (EngineReference) — and both are
// bit-identical, as the bridge differential suite enforces.
// Cancellation is checked between bridges (one bridge's pattern sweep
// is the unit of work); with the context's error it returns the list
// with the bridges swept so far filled in and the rest zero.
func (s *Simulator) RunBridgesSet(ctx context.Context, bridges []core.Bridge, patterns *PatternSet, useIDDQ bool) ([]Detection, error) {
	if s.Engine == EngineReference {
		return s.runBridgesReference(ctx, bridges, patterns.Patterns(), useIDDQ)
	}
	return s.runBridgesPacked(ctx, bridges, patterns, useIDDQ)
}

// runBridgesReference is the hooked-map oracle driver.
func (s *Simulator) runBridgesReference(ctx context.Context, bridges []core.Bridge, patterns []Pattern, useIDDQ bool) ([]Detection, error) {
	sink := s.progressSink("bridges", len(bridges))
	out := make([]Detection, len(bridges))
	goods := make([]map[string]logic.V, len(patterns))
	for k, p := range patterns {
		goods[k] = s.C.Eval(map[string]logic.V(p))
	}
	sink.add(0, 0, 0, uint64(len(patterns))*uint64(len(s.C.Gates)))
	batch := progressBatch{sink: sink}
	defer batch.flush()
	for i, b := range bridges {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out[i] = Detection{Pattern: -1}
		engineStats.referenceBridgeRuns.Add(1)
		var evals uint64
		for k, p := range patterns {
			if useIDDQ && bridgeLeak(goods[k], b) {
				out[i] = Detection{Method: ByIDDQ, Pattern: k}
				break
			}
			faulty := evalBridged(s.C, p, b, &evals)
			if s.outputsDiffer(goods[k], faulty) {
				out[i] = Detection{Method: ByOutput, Pattern: k}
				break
			}
		}
		engineStats.referenceGateEvals.Add(evals)
		batch.add(b2i(out[i].Detected()), 0, evals)
	}
	return out, nil
}

// --- packed bridge engine ---

// bridgeEnds resolves a bridge's nets to dense ids; absent nets carry
// ok=false and read as constant 0, matching the reference oracle's map
// semantics.
type bridgeEnds struct {
	b        core.Bridge
	aID, bID int
	aok, bok bool
}

func (s *Simulator) bridgeEnds(b core.Bridge) bridgeEnds {
	cc := s.Compiled()
	e := bridgeEnds{b: b}
	e.aID, e.aok = cc.NetID[b.A]
	e.bID, e.bok = cc.NetID[b.B]
	return e
}

// bridgeLUT is one bridge kind compiled over the 3x3 ternary value
// space: entry 3*a+b holds the resolved values of both nets.
type bridgeLUT struct {
	na, nb [9]logic.V
}

var bridgeLUTCache sync.Map // core.BridgeKind -> *bridgeLUT

func compiledBridgeLUT(kind core.BridgeKind) *bridgeLUT {
	if v, ok := bridgeLUTCache.Load(kind); ok {
		return v.(*bridgeLUT)
	}
	lut := &bridgeLUT{}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			na, nb := kind.Resolve(logic.V(a), logic.V(b))
			lut.na[3*a+b], lut.nb[3*a+b] = na, nb
		}
	}
	actual, _ := bridgeLUTCache.LoadOrStore(kind, lut)
	return actual.(*bridgeLUT)
}

// packedResolve evaluates one side of the bridge LUT across all lanes
// via the 9-entry mask loop (side selects na or nb).
func (l *bridgeLUT) packedResolve(a, b logic.PackedVec, side int) logic.PackedVec {
	tbl := &l.na
	if side == 1 {
		tbl = &l.nb
	}
	am := [3]uint64{a.Known &^ a.Val, a.Val, ^a.Known}
	bm := [3]uint64{b.Known &^ b.Val, b.Val, ^b.Known}
	var out logic.PackedVec
	for ai := 0; ai < 3; ai++ {
		if am[ai] == 0 {
			continue
		}
		for bi := 0; bi < 3; bi++ {
			m := am[ai] & bm[bi]
			if m == 0 {
				continue
			}
			switch tbl[3*ai+bi] {
			case logic.L1:
				out.Val |= m
				out.Known |= m
			case logic.L0:
				out.Known |= m
			}
		}
	}
	return out
}

// stemPlane applies the bridge override across all lanes at the moment
// net nid is produced, reading the partner from the previous
// iteration's planes. Net A is checked first, mirroring the reference
// hook's switch.
func (e *bridgeEnds) stemPlane(lut *bridgeLUT, nid int, v logic.PackedVec, prev []logic.PackedVec) logic.PackedVec {
	if e.aok && nid == e.aID {
		pb := logic.ConstPacked(logic.L0)
		if e.bok {
			pb = prev[e.bID]
		}
		return lut.packedResolve(v, pb, 0)
	}
	if e.bok && nid == e.bID {
		pa := logic.ConstPacked(logic.L0)
		if e.aok {
			pa = prev[e.aID]
		}
		return lut.packedResolve(pa, v, 1)
	}
	return v
}

// bridgeConeScratch reuses the affected-set buffers across the bridges
// of one campaign (a per-bridge map allocation costs more than the
// cone-restricted fixpoint saves on small circuits).
type bridgeConeScratch struct {
	mark  []int
	epoch int
	buf   []int
}

func newBridgeConeScratch(cc *logic.CompiledCircuit) *bridgeConeScratch {
	return &bridgeConeScratch{mark: make([]int, len(cc.C.Gates))}
}

// bridgeAffected computes the gates a bridge can influence: the driver
// gates of both nets (the override applies at production) plus every
// gate downstream of either net, in topological order. Outside this
// set the bridged fixpoint provably keeps the baseline planes, so each
// iteration only re-evaluates the affected gates. piA/piB carry the
// primary-input index of a PI-driven bridged net (-1 otherwise), whose
// override applies at assignment instead. One breadth-first pass over
// the fanouts from both nets finds the set, the result buffer doubling
// as the queue and the scratch's epoch marks as the visited set.
func (s *Simulator) bridgeAffected(e *bridgeEnds, bs *bridgeConeScratch) (gates []int, piA, piB int) {
	cc := s.Compiled()
	bs.epoch++
	bs.buf = bs.buf[:0]
	add := func(g int) {
		if bs.mark[g] != bs.epoch {
			bs.mark[g] = bs.epoch
			bs.buf = append(bs.buf, g)
		}
	}
	piA, piB = -1, -1
	addNet := func(nid int, pi *int) {
		if d, ok := cc.C.Driver(cc.NetName[nid]); ok && d >= 0 {
			add(d)
			return
		}
		for i, id := range cc.InputID {
			if id == nid {
				*pi = i
				break
			}
		}
		for _, g := range cc.Fanouts[nid] {
			add(g)
		}
	}
	if e.aok {
		addNet(e.aID, &piA)
	}
	if e.bok {
		addNet(e.bID, &piB)
	}
	for i := 0; i < len(bs.buf); i++ {
		for _, g := range cc.Fanouts[cc.GateOut[bs.buf[i]]] {
			add(g)
		}
	}
	gates = bs.buf
	sort.Slice(gates, func(a, b int) bool { return cc.Pos[gates[a]] < cc.Pos[gates[b]] })
	return gates, piA, piB
}

// bridgedDiffPacked runs the bridged fixpoint for one chunk across all
// lanes and returns the lanes with a definite primary-output
// difference against the chunk baseline. Each lane freezes its output
// planes at the iteration where the reference oracle would have broken
// out of the fixpoint loop (outputs stable and iter > 0), so per lane
// the captured response is exactly evalBridged's. Only the affected
// gate set is re-evaluated per iteration; both plane buffers start as
// baseline copies so unaffected nets read correctly from either.
func (s *Simulator) bridgedDiffPacked(pb *packedBase, e *bridgeEnds, lut *bridgeLUT, affected []int, piA, piB int, vals, prev, outPO []logic.PackedVec, evals *uint64) uint64 {
	cc := s.Compiled()
	copy(vals, pb.vals) // pass 1: bridge open = the good baseline
	copy(prev, pb.vals)
	var done uint64
	for iter := 0; iter < 4; iter++ {
		vals, prev = prev, vals
		if e.aok && piA >= 0 {
			vals[e.aID] = e.stemPlane(lut, e.aID, pb.in[piA], prev)
		}
		if e.bok && piB >= 0 && !(e.aok && e.bID == e.aID) {
			vals[e.bID] = e.stemPlane(lut, e.bID, pb.in[piB], prev)
		}
		for _, gi := range affected {
			on := cc.GateOut[gi]
			vals[on] = e.stemPlane(lut, on, cc.EvalGatePlanes(gi, vals), prev)
		}
		*evals += uint64(len(affected))
		stable := ^uint64(0)
		for _, po := range cc.OutputID {
			stable &= logic.EqMask(vals[po], prev[po])
		}
		if iter > 0 {
			if newly := stable &^ done; newly != 0 {
				for j, po := range cc.OutputID {
					outPO[j] = mergeLanes(outPO[j], vals[po], newly)
				}
				done |= newly
			}
			if done&pb.valid[0] == pb.valid[0] {
				break
			}
		}
	}
	if rest := ^done; rest != 0 {
		for j, po := range cc.OutputID {
			outPO[j] = mergeLanes(outPO[j], vals[po], rest)
		}
	}
	var diff uint64
	for j, po := range cc.OutputID {
		diff |= logic.DefiniteDiffMask(pb.vals[po], outPO[j])
	}
	return diff
}

// mergeLanes overwrites dst's lanes selected by mask with src's.
func mergeLanes(dst, src logic.PackedVec, mask uint64) logic.PackedVec {
	dst.Val = dst.Val&^mask | src.Val&mask
	dst.Known = dst.Known&^mask | src.Known&mask
	return dst
}

// bridgeLeakMaskPacked returns the lanes with the bridge IDDQ signature.
func bridgeLeakMaskPacked(pb *packedBase, e *bridgeEnds) uint64 {
	va, vb := logic.ConstPacked(logic.L0), logic.ConstPacked(logic.L0)
	if e.aok {
		va = pb.vals[e.aID]
	}
	if e.bok {
		vb = pb.vals[e.bID]
	}
	return logic.DefiniteDiffMask(va, vb)
}

// exciteMaskPacked returns the lanes where the resolution moves either
// net's baseline value. A primary-output difference is only possible
// in an excited lane, so lanes outside the mask (and whole chunks with
// an empty mask) never need the fixpoint.
func exciteMaskPacked(pb *packedBase, e *bridgeEnds, lut *bridgeLUT) uint64 {
	va, vb := logic.ConstPacked(logic.L0), logic.ConstPacked(logic.L0)
	if e.aok {
		va = pb.vals[e.aID]
	}
	if e.bok {
		vb = pb.vals[e.bID]
	}
	var m uint64
	if e.aok {
		ra := lut.packedResolve(va, vb, 0)
		m |= (ra.Val ^ va.Val) | (ra.Known ^ va.Known)
	}
	if e.bok {
		rb := lut.packedResolve(va, vb, 1)
		m |= (rb.Val ^ vb.Val) | (rb.Known ^ vb.Known)
	}
	return m
}

// runBridgesPacked drives the 64-way bridged fixpoint per bridge per
// chunk, over a one-word pack of its own. Like the packed pool's
// scratch, it publishes its engine counters once per sweep, on every
// return path, not per bridge.
func (s *Simulator) runBridgesPacked(ctx context.Context, bridges []core.Bridge, patterns *PatternSet, useIDDQ bool) ([]Detection, error) {
	sink := s.progressSink("bridges", len(bridges))
	cc := s.Compiled()
	pack := s.packChunks(patterns, 1, false, false)
	defer s.putPack(pack)
	bases := pack.bases
	vals := make([]logic.PackedVec, cc.NumNets())
	prev := make([]logic.PackedVec, cc.NumNets())
	outPO := make([]logic.PackedVec, len(cc.OutputID))
	bs := newBridgeConeScratch(cc)
	sink.add(0, 0, 0, uint64(len(bases))*uint64(len(s.C.Gates)))
	batch := progressBatch{sink: sink}
	defer batch.flush()
	var runs, evals uint64
	defer func() {
		engineStats.packedBridgeRuns.Add(runs)
		engineStats.packedGateEvals.Add(evals)
	}()
	out := make([]Detection, len(bridges))
	done := ctx.Done()
	for i, b := range bridges {
		if canceled(done) {
			return out, ctx.Err()
		}
		out[i] = Detection{Pattern: -1}
		e := s.bridgeEnds(b)
		lut := compiledBridgeLUT(b.Kind)
		var affected []int // computed lazily: leak-decided bridges never need it
		piA, piB := -1, -1
		runs++
		before := evals
		for ci := range bases {
			pb := &bases[ci]
			var leak uint64
			if useIDDQ {
				leak = bridgeLeakMaskPacked(pb, &e) & pb.valid[0]
			}
			// The fixpoint only matters when a voltage difference could
			// come before the first leak: any output difference needs an
			// excited lane, and at equal lanes the leak check wins (the
			// per-pattern observation order of the reference oracle).
			excite := exciteMaskPacked(pb, &e, lut) & pb.valid[0]
			var diff uint64
			if excite != 0 && (leak == 0 || logic.FirstLane(excite) < logic.FirstLane(leak)) {
				if affected == nil {
					affected, piA, piB = s.bridgeAffected(&e, bs)
				}
				diff = s.bridgedDiffPacked(pb, &e, lut, affected, piA, piB, vals, prev, outPO, &evals) & pb.valid[0]
			}
			m := leak | diff
			if m == 0 {
				continue
			}
			lane := logic.FirstLane(m)
			out[i] = Detection{Method: ByOutput, Pattern: pb.start + lane}
			if leak>>uint(lane)&1 == 1 {
				out[i].Method = ByIDDQ
			}
			break
		}
		batch.add(b2i(out[i].Detected()), 0, evals-before)
	}
	return out, nil
}

// BridgeCoverage is Summarise.
//
// Deprecated: use Summarise, which serves every class; the name stays
// for callers written against the bridge engines' former result type.
func BridgeCoverage(ds []Detection) Coverage { return Summarise(ds) }
