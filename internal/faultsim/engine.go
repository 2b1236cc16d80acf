// Engine selection, the package-wide engine counters and the fault
// behaviour tables both engines share: per-fault ternary behaviour LUTs
// built once from the switch-level solver through core.GateBehavior,
// and stuck-open Mealy transition LUTs over the solver's charge state.
// The packed engine (packed.go) evaluates them across lane blocks; the
// serial EvalHooked reference engine stays available as the
// differential-testing oracle (Engine = EngineReference).
package faultsim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cpsinw/internal/core"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// Engine selects a fault simulation implementation.
type Engine int

const (
	// EnginePacked is the default: the bit-parallel PPSFP engine, N×64
	// ternary patterns per lane block, packed gate evaluation, and one
	// observability mask per (site net, chunk) that every fault at that
	// net reads: an event-driven packed propagation from a stem or a
	// primary output, derived from the one reader's output mask for any
	// other net.
	EnginePacked Engine = iota
	// EngineReference is the original serial hooked engine, kept as the
	// oracle the packed engine is differentially tested against.
	EngineReference
)

// String names the engine for reports and metrics.
func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "packed"
}

// ParseEngine resolves an engine name; the empty string selects the
// default packed engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "packed":
		return EnginePacked, nil
	case "reference":
		return EngineReference, nil
	}
	return EnginePacked, fmt.Errorf("faultsim: unknown engine %q (have: packed, reference)", s)
}

// EngineStats is a snapshot of the package-wide engine counters,
// surfaced by the service /metrics endpoint. Line stuck-at campaigns
// run on the packed engine whatever the simulator's Engine, so their
// fault runs and gate evaluations count as packed.
type EngineStats struct {
	ReferenceFaultRuns  uint64 // fault x campaign units through the reference oracle
	FaultLUTsCompiled   uint64 // distinct per-fault behaviour tables built
	TwoPatternRuns      uint64 // fault x pair units the packed two-pattern engine decoded
	PackedFaultRuns     uint64 // fault x campaign units through the packed engine
	PackedGateEvals     uint64 // packed gate evaluations (each covers up to 64 lanes)
	PackedBridgeRuns    uint64 // bridge x campaign units through the packed engine
	ReferenceGateEvals  uint64 // hooked-map gate evaluations by the reference oracle
	ReferenceBridgeRuns uint64 // bridge x campaign units through the reference oracle

	// ConeGateEvals is always zero: no engine performs scalar cone
	// lookups any more. The field stays because perfbench/trace.go
	// still sums it into its gate-evaluation total.
	ConeGateEvals uint64
}

var engineStats struct {
	referenceFaultRuns  atomic.Uint64
	faultLUTsCompiled   atomic.Uint64
	twoPatternRuns      atomic.Uint64
	packedFaultRuns     atomic.Uint64
	packedGateEvals     atomic.Uint64
	packedBridgeRuns    atomic.Uint64
	referenceGateEvals  atomic.Uint64
	referenceBridgeRuns atomic.Uint64
}

// ReadEngineStats snapshots the engine counters.
func ReadEngineStats() EngineStats {
	return EngineStats{
		ReferenceFaultRuns:  engineStats.referenceFaultRuns.Load(),
		FaultLUTsCompiled:   engineStats.faultLUTsCompiled.Load(),
		TwoPatternRuns:      engineStats.twoPatternRuns.Load(),
		PackedFaultRuns:     engineStats.packedFaultRuns.Load(),
		PackedGateEvals:     engineStats.packedGateEvals.Load(),
		PackedBridgeRuns:    engineStats.packedBridgeRuns.Load(),
		ReferenceGateEvals:  engineStats.referenceGateEvals.Load(),
		ReferenceBridgeRuns: engineStats.referenceBridgeRuns.Load(),
	}
}

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

// FaultLUT returns the cached ternary output table of one transistor
// fault inside one gate kind: entry logic.TernaryIndex(in) is the faulty
// gate's output, X on any undefined input and on floating rows. It
// fails exactly when core.GateBehavior does. The table is shared and
// must not be modified.
func FaultLUT(kind gates.Kind, transistor string, tf logic.TFault) (logic.GateLUT, error) {
	lut, err := compiledFaultLUT(kind, transistor, tf)
	if err != nil {
		return nil, err
	}
	return lut.out, nil
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

// Compiled returns the circuit's compiled form (logic.Circuit.Compiled),
// the one dense IR the packed engine and ATPG's PODEM both evaluate,
// shared by every simulator on the circuit. The result must not be
// modified.
func (s *Simulator) Compiled() *logic.CompiledCircuit { return s.C.Compiled() }

// GateIndex resolves a gate instance name to its index in the circuit,
// through the compiled circuit's name index.
func (s *Simulator) GateIndex(name string) (int, bool) {
	gi, ok := s.Compiled().GateID[name]
	return gi, ok
}

// EnsureCompiled forces the circuit's compilation now, so callers that
// trace campaign stages can time it as its own step instead of folding
// it into the first simulation call. It is a no-op for work the
// reference engine will run (which evaluates the circuit itself and
// compiles only for the gate-name index, inside its first sweep) and
// when the circuit is already compiled, by this simulator or any other.
func (s *Simulator) EnsureCompiled() {
	if s.Engine != EngineReference {
		s.Compiled()
	}
}

// b2i is the progress-delta helper: true -> 1.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
