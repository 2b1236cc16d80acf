// Compiled transistor-fault engine: per-fault ternary behaviour LUTs
// (built once from the switch-level solver through core.GateBehavior)
// plus cone-restricted, event-driven faulty evaluation over the
// levelized compiled circuit. It is defined to be bit-identical to the
// serial EvalHooked reference engine, which stays available as the
// differential-testing oracle (Engine = EngineReference).
package faultsim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// Engine selects a transistor-fault simulation implementation.
type Engine int

const (
	// EnginePacked is the default: the bit-parallel PPSFP engine, N×64
	// ternary patterns per lane block, packed gate evaluation and
	// event-driven packed propagation, with fault packing into spare
	// lanes.
	EnginePacked Engine = iota
	// EngineCompiled is the scalar engine: compiled gate LUTs, memoized
	// good baselines and cone-restricted event-driven faulty propagation.
	EngineCompiled
	// EngineReference is the original serial hooked engine, kept as the
	// oracle the compiled and packed engines are differentially tested
	// against.
	EngineReference
	// EngineAuto resolves to EngineCompiled or EnginePacked per campaign
	// through the ChooseEngine heuristic over gates × faults × patterns
	// (it never picks the reference oracle).
	EngineAuto
)

// String names the engine for reports and metrics.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineReference:
		return "reference"
	case EngineAuto:
		return "auto"
	}
	return "packed"
}

// ParseEngine resolves an engine name; the empty string selects the
// default packed engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "packed":
		return EnginePacked, nil
	case "compiled":
		return EngineCompiled, nil
	case "reference":
		return EngineReference, nil
	case "auto":
		return EngineAuto, nil
	}
	return EnginePacked, fmt.Errorf("faultsim: unknown engine %q (have: auto, compiled, packed, reference)", s)
}

// EngineStats is a snapshot of the package-wide engine counters,
// surfaced by the service /metrics endpoint to quantify what the
// compiled and packed engines save over full re-simulation. Line
// stuck-at campaigns run on the packed engine whatever the simulator's
// Engine, so their fault runs and gate evaluations count as packed.
type EngineStats struct {
	CompiledFaultRuns   uint64 // fault x campaign units through the compiled engine
	ReferenceFaultRuns  uint64 // same through the reference engine
	ConeGateEvals       uint64 // gate LUT lookups the cone engine performed
	GateEvalsSkipped    uint64 // gate evaluations avoided vs full re-simulation
	FaultLUTsCompiled   uint64 // distinct per-fault behaviour tables built
	TwoPatternRuns      uint64 // fault x pair units through the compiled/packed engines
	PackedFaultRuns     uint64 // fault x campaign units through the packed engine
	PackedGateEvals     uint64 // packed gate evaluations (each covers up to 64 lanes)
	PackedBridgeRuns    uint64 // bridge x campaign units through the packed engine
	CompiledBridgeRuns  uint64 // bridge x campaign units through the compiled engine
	ReferenceGateEvals  uint64 // hooked-map gate evaluations by the reference oracle
	ReferenceBridgeRuns uint64 // bridge x campaign units through the reference oracle
	AutoChosenCompiled  uint64 // campaigns EngineAuto resolved to the compiled engine
	AutoChosenPacked    uint64 // campaigns EngineAuto resolved to the packed engine
}

var engineStats struct {
	compiledFaultRuns   atomic.Uint64
	referenceFaultRuns  atomic.Uint64
	coneGateEvals       atomic.Uint64
	gateEvalsSkipped    atomic.Uint64
	faultLUTsCompiled   atomic.Uint64
	twoPatternRuns      atomic.Uint64
	packedFaultRuns     atomic.Uint64
	packedGateEvals     atomic.Uint64
	packedBridgeRuns    atomic.Uint64
	compiledBridgeRuns  atomic.Uint64
	referenceGateEvals  atomic.Uint64
	referenceBridgeRuns atomic.Uint64
	autoChosenCompiled  atomic.Uint64
	autoChosenPacked    atomic.Uint64
}

// ReadEngineStats snapshots the engine counters.
func ReadEngineStats() EngineStats {
	return EngineStats{
		CompiledFaultRuns:   engineStats.compiledFaultRuns.Load(),
		ReferenceFaultRuns:  engineStats.referenceFaultRuns.Load(),
		ConeGateEvals:       engineStats.coneGateEvals.Load(),
		GateEvalsSkipped:    engineStats.gateEvalsSkipped.Load(),
		FaultLUTsCompiled:   engineStats.faultLUTsCompiled.Load(),
		TwoPatternRuns:      engineStats.twoPatternRuns.Load(),
		PackedFaultRuns:     engineStats.packedFaultRuns.Load(),
		PackedGateEvals:     engineStats.packedGateEvals.Load(),
		PackedBridgeRuns:    engineStats.packedBridgeRuns.Load(),
		CompiledBridgeRuns:  engineStats.compiledBridgeRuns.Load(),
		ReferenceGateEvals:  engineStats.referenceGateEvals.Load(),
		ReferenceBridgeRuns: engineStats.referenceBridgeRuns.Load(),
		AutoChosenCompiled:  engineStats.autoChosenCompiled.Load(),
		AutoChosenPacked:    engineStats.autoChosenPacked.Load(),
	}
}

// --- per-fault compiled behaviour tables ---

// faultLUT is one transistor fault compiled over the gate's ternary
// input space: out mirrors the transistorHooks gate override (X on any
// undefined input, X on floating rows, the behaviour row otherwise) and
// leak carries the IDDQ signature of fully-defined vectors.
type faultLUT struct {
	out  []logic.V
	leak []bool
}

type faultLUTKey struct {
	kind gates.Kind
	tr   string
	tf   logic.TFault
}

var faultLUTCache sync.Map // faultLUTKey -> *faultLUT

// compiledFaultLUT builds (and caches) the ternary table of one
// transistor fault inside one gate kind.
func compiledFaultLUT(kind gates.Kind, transistor string, tf logic.TFault) (*faultLUT, error) {
	key := faultLUTKey{kind, transistor, tf}
	if v, ok := faultLUTCache.Load(key); ok {
		return v.(*faultLUT), nil
	}
	beh, err := core.GateBehavior(kind, transistor, tf)
	if err != nil {
		return nil, err
	}
	n := gates.Get(kind).NIn
	lut := &faultLUT{out: make([]logic.V, logic.Pow3(n)), leak: make([]bool, logic.Pow3(n))}
	for idx := range lut.out {
		in := logic.TernaryVector(idx, n)
		vec, defined := 0, true
		for i, v := range in {
			b, ok := v.Bool()
			if !ok {
				defined = false
				break
			}
			if b {
				vec |= 1 << uint(i)
			}
		}
		if !defined {
			lut.out[idx] = logic.LX // X at a faulty gate input: give up precision
			continue
		}
		row := beh.Rows[vec]
		lut.leak[idx] = row.Leak
		if row.Floating {
			lut.out[idx] = logic.LX
		} else {
			lut.out[idx] = row.Out
		}
	}
	actual, loaded := faultLUTCache.LoadOrStore(key, lut)
	if !loaded {
		engineStats.faultLUTsCompiled.Add(1)
	}
	return actual.(*faultLUT), nil
}

// openLUT is a channel-break fault compiled as a Mealy machine over the
// gate's internal charge state: state s (radix-3 over the solver's node
// labels, sorted) and ternary input vector t map to the floating-aware
// output and the successor state. The all-X state is the nil-prev
// initial state of the switch-level solver.
type openLUT struct {
	nodes []string
	nIn   int
	nVec  int
	out   []logic.V // [state*nVec + t]
	next  []int32
	init  int32
}

type openLUTKey struct {
	kind gates.Kind
	tr   string
}

var openLUTCache sync.Map // openLUTKey -> *openLUT

// compiledOpenLUT builds (and caches) the stuck-open transition table.
// Unknown transistor names compile to the fault-free machine, matching
// the reference engine's EvalSwitch semantics.
func compiledOpenLUT(kind gates.Kind, transistor string) *openLUT {
	key := openLUTKey{kind, transistor}
	if v, ok := openLUTCache.Load(key); ok {
		return v.(*openLUT)
	}
	spec := gates.Get(kind)
	faults := map[string]logic.TFault{transistor: logic.TFaultOpen}

	// The solver's node set is fixed by the spec; probe it once.
	probe := logic.EvalSwitch(spec, make([]logic.V, spec.NIn), faults, nil)
	nodes := make([]string, 0, len(probe.Nodes))
	for label := range probe.Nodes {
		nodes = append(nodes, label)
	}
	sort.Strings(nodes)

	nVec := logic.Pow3(spec.NIn)
	nStates := 1
	for range nodes {
		nStates *= 3
	}
	lut := &openLUT{
		nodes: nodes,
		nIn:   spec.NIn,
		nVec:  nVec,
		out:   make([]logic.V, nStates*nVec),
		next:  make([]int32, nStates*nVec),
		init:  int32(nStates - 1), // all digits LX
	}
	encode := func(vals map[string]logic.V) int32 {
		st, mul := 0, 1
		for _, label := range nodes {
			st += int(vals[label]) * mul
			mul *= 3
		}
		return int32(st)
	}
	prev := map[string]logic.V{}
	for st := 0; st < nStates; st++ {
		rem := st
		for _, label := range nodes {
			prev[label] = logic.V(rem % 3)
			rem /= 3
		}
		for t := 0; t < nVec; t++ {
			res := logic.EvalSwitch(spec, logic.TernaryVector(t, spec.NIn), faults, prev)
			lut.out[st*nVec+t] = res.Out
			lut.next[st*nVec+t] = encode(res.Nodes)
		}
	}
	actual, loaded := openLUTCache.LoadOrStore(key, lut)
	if !loaded {
		engineStats.faultLUTsCompiled.Add(1)
	}
	return actual.(*openLUT)
}

// --- cone-restricted event-driven propagation ---

// coneScratch is the reusable per-worker state of the event-driven
// faulty evaluation: epoch-stamped faulty net values over the good
// baseline and a topological-position min-heap of pending gates.
type coneScratch struct {
	cc    *logic.CompiledCircuit
	fval  []logic.V // faulty value per net, valid when stamp == epoch
	stamp []int64
	gq    []int64 // gate queued-marker epoch
	epoch int64
	heap  []int // pending gate indices, min-heap by topological position

	// Local eval counters, flushed to the global atomics once per fault
	// (not per pattern) to keep cross-worker cache-line contention off
	// the hot path. life accumulates the flushed evals so that
	// life + evals is a monotone lifetime total the progress sinks can
	// difference per fault without racing the flush.
	evals, skipped, life uint64
}

// lifetimeEvals is the monotone eval count of this scratch (flushed
// plus pending), used by drivers to attribute per-fault deltas.
func (sc *coneScratch) lifetimeEvals() uint64 { return sc.life + sc.evals }

func newConeScratch(cc *logic.CompiledCircuit) *coneScratch {
	return &coneScratch{
		cc:    cc,
		fval:  make([]logic.V, cc.NumNets()),
		stamp: make([]int64, cc.NumNets()),
		gq:    make([]int64, len(cc.C.Gates)),
	}
}

// coneScratchOf hands out a pooled cone scratch, mirroring
// packedScratchOf for the compiled engine.
func (s *Simulator) coneScratchOf() *coneScratch {
	if v := s.coneScratchPool.Get(); v != nil {
		return v.(*coneScratch)
	}
	return newConeScratch(s.compiled())
}

func (s *Simulator) putConeScratch(sc *coneScratch) {
	sc.flushStats()
	s.coneScratchPool.Put(sc)
}

func (sc *coneScratch) push(gi int) {
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

func (sc *coneScratch) pop() int {
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

// definiteDiff mirrors outputsDiffer for one net: both values defined
// and different (X never counts).
func definiteDiff(a, b logic.V) bool {
	av, aok := a.Bool()
	bv, bok := b.Bool()
	return aok && bok && av != bv
}

// propagateCone seeds gate gi's faulty output and propagates only where
// a gate's output actually changes versus the memoized good baseline,
// in topological order. It reports whether a primary output shows a
// definite good/faulty difference, stopping at the first one (the
// fault is dropped the moment detection fires).
func (sc *coneScratch) propagateCone(gi int, fout logic.V, base []logic.V) bool {
	cc := sc.cc
	total := uint64(len(cc.C.Gates))
	onet := cc.GateOut[gi]
	if fout == base[onet] {
		// The fault does not excite under this pattern: the whole
		// downstream re-simulation of the reference engine is skipped.
		sc.skipped += total - 1
		sc.evals++
		return false
	}
	sc.epoch++
	sc.heap = sc.heap[:0]
	evals := uint64(1)
	sc.fval[onet], sc.stamp[onet] = fout, sc.epoch
	detected := cc.IsOutput[onet] && definiteDiff(base[onet], fout)
	if !detected {
		for _, g := range cc.Fanouts[onet] {
			sc.push(g)
		}
		for len(sc.heap) > 0 {
			g := sc.pop()
			evals++
			idx := 0
			for k, nid := range cc.Fanin[g] {
				v := base[nid]
				if sc.stamp[nid] == sc.epoch {
					v = sc.fval[nid]
				}
				idx += int(v) * logic.Pow3(k)
			}
			nv := cc.LUT[g][idx]
			on := cc.GateOut[g]
			if nv == base[on] {
				continue
			}
			sc.fval[on], sc.stamp[on] = nv, sc.epoch
			if cc.IsOutput[on] && definiteDiff(base[on], nv) {
				detected = true
				break
			}
			for _, fg := range cc.Fanouts[on] {
				sc.push(fg)
			}
		}
	}
	sc.evals += evals
	sc.skipped += total - evals
	return detected
}

// flushStats publishes the accumulated local counters.
func (sc *coneScratch) flushStats() {
	if sc.evals > 0 {
		engineStats.coneGateEvals.Add(sc.evals)
		sc.life += sc.evals
		sc.evals = 0
	}
	if sc.skipped > 0 {
		engineStats.gateEvalsSkipped.Add(sc.skipped)
		sc.skipped = 0
	}
}

// --- compiled campaign drivers ---

// compiled returns the lazily-built compiled form of the circuit.
func (s *Simulator) compiled() *logic.CompiledCircuit {
	s.ccOnce.Do(func() { s.cc = s.C.Compile() })
	return s.cc
}

// EnsureCompiled forces the lazy circuit compilation now, so callers
// that trace campaign stages can time it as its own step instead of
// folding it into the first simulation call. It is a no-op for work
// the reference engine will run (which never compiles) and when the
// circuit is already compiled.
func (s *Simulator) EnsureCompiled() {
	if s.Engine != EngineReference {
		s.compiled()
	}
}

// evalBaselines memoizes the good-circuit dense responses per pattern.
func (s *Simulator) evalBaselines(patterns []Pattern) [][]logic.V {
	cc := s.compiled()
	base := make([][]logic.V, len(patterns))
	for k, p := range patterns {
		base[k] = cc.EvalInto(map[string]logic.V(p), make([]logic.V, cc.NumNets()))
	}
	return base
}

// simulateTransistorFaultCompiled is the compiled counterpart of
// simulateTransistorFault: identical Detection results, computed by LUT
// lookup plus cone propagation against the shared baselines. A non-nil
// sig disables the early exit and records fault si's full signature
// (cone propagation still short-circuits within a pattern — the
// signature is per-pattern boolean).
func (s *Simulator) simulateTransistorFaultCompiled(f core.Fault, si int, patterns []Pattern, base [][]logic.V, sc *coneScratch, useIDDQ bool, sig *SignatureCapture) (Detection, error) {
	d := Detection{Fault: f, Pattern: -1}
	if f.Kind.IsLineFault() {
		return d, nil
	}
	tf, ok := f.Kind.TFault()
	if !ok {
		return d, nil // analog-only faults are out of scope here
	}
	if len(patterns) == 0 {
		return d, nil
	}
	gi, ok := s.gateIdx[f.Gate]
	if !ok {
		return d, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
	}
	lut, err := compiledFaultLUT(s.C.Gates[gi].Kind, f.Transistor, tf)
	if err != nil {
		return d, err
	}
	engineStats.compiledFaultRuns.Add(1)
	defer sc.flushStats()
	cc := sc.cc
	for k := range patterns {
		idx := cc.GateInputIndex(gi, base[k])
		if sig == nil {
			if useIDDQ && lut.leak[idx] {
				d.Method, d.Pattern = ByIDDQ, k
				return d, nil
			}
			if sc.propagateCone(gi, lut.out[idx], base[k]) {
				d.Method, d.Pattern = ByOutput, k
				return d, nil
			}
			continue
		}
		if useIDDQ && lut.leak[idx] {
			sig.setLeak(si, k)
			if !d.Detected() {
				d.Method, d.Pattern = ByIDDQ, k
			}
		}
		if sc.propagateCone(gi, lut.out[idx], base[k]) {
			sig.setOut(si, k)
			if !d.Detected() {
				d.Method, d.Pattern = ByOutput, k
			}
		}
	}
	return d, nil
}

// runTransistorCompiled is the serial compiled campaign driver.
func (s *Simulator) runTransistorCompiled(ctx context.Context, faults []core.Fault, patterns []Pattern, useIDDQ bool) ([]Detection, error) {
	sink := s.progressSink("transistor", len(faults))
	sig := s.Signatures
	if sig != nil {
		if err := sig.check(len(faults), len(patterns)); err != nil {
			return nil, err
		}
	}
	base := s.evalBaselines(patterns)
	sc := s.coneScratchOf()
	defer s.putConeScratch(sc)
	sink.add(0, 0, 0, uint64(len(patterns))*uint64(len(s.C.Gates))) // baseline evals
	out := make([]Detection, len(faults))
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := sc.lifetimeEvals()
		d, err := s.simulateTransistorFaultCompiled(f, i, patterns, base, sc, useIDDQ, sig)
		if err != nil {
			return nil, err
		}
		out[i] = d
		sink.add(1, b2i(d.Detected()), b2i(!transistorSimulable(f)), sc.lifetimeEvals()-before)
	}
	return out, nil
}

// b2i is the progress-delta helper: true -> 1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runTwoPatternCompiled replays pattern pairs through the stuck-open
// transition LUTs. The faulty gate's inputs sit upstream of the fault,
// so its charge-state trajectory is a pure function of the good
// baselines, and only the test-pattern cone needs propagation.
// Cancellation is checked between faults; progress is reported per
// fault on the "two_pattern" stage.
func (s *Simulator) runTwoPatternCompiled(ctx context.Context, faults []core.Fault, pairs [][2]Pattern) ([]Detection, error) {
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
	cc := s.compiled()
	base0 := make([][]logic.V, len(pairs))
	base1 := make([][]logic.V, len(pairs))
	for k, pair := range pairs {
		base0[k] = cc.EvalInto(map[string]logic.V(pair[0]), make([]logic.V, cc.NumNets()))
		base1[k] = cc.EvalInto(map[string]logic.V(pair[1]), make([]logic.V, cc.NumNets()))
	}
	sink.add(0, 0, 0, uint64(2*len(pairs))*uint64(len(s.C.Gates))) // baseline evals
	sc := s.coneScratchOf()
	defer s.putConeScratch(sc)
	for i, f := range faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tf, ok := f.Kind.TFault()
		if !ok || tf != logic.TFaultOpen {
			sink.add(1, 0, 1, 0)
			continue
		}
		gi, ok := s.gateIdx[f.Gate]
		if !ok {
			return nil, fmt.Errorf("faultsim: unknown gate %q", f.Gate)
		}
		lut := compiledOpenLUT(s.C.Gates[gi].Kind, f.Transistor)
		runs := uint64(0)
		before := sc.lifetimeEvals()
		for k := range pairs {
			runs++
			st := lut.next[int(lut.init)*lut.nVec+cc.GateInputIndex(gi, base0[k])]
			fout := lut.out[int(st)*lut.nVec+cc.GateInputIndex(gi, base1[k])]
			if sc.propagateCone(gi, fout, base1[k]) {
				out[i].Method = ByTwoPattern
				out[i].Pattern = k
				break
			}
		}
		engineStats.twoPatternRuns.Add(runs)
		sink.add(1, b2i(out[i].Detected()), 0, sc.lifetimeEvals()-before)
	}
	return out, nil
}
