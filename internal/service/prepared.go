package service

import (
	"crypto/sha256"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
)

// The manager's memo of prepared circuits is bounded by both of these:
// at most maxPreparedCircuits entries and at most maxPreparedBytes
// counted bytes. Least recently used entries go first, and an entry
// over the byte bound on its own is not kept. The counted bytes are
// what an entry holds for its whole life: the circuit, its compiled
// form, its canonical text, its fault universes, names and name orders
// and its bridge lists. Its pooled simulators are not counted: a sync.Pool
// hands them to the collector.
const (
	maxPreparedCircuits = 16
	maxPreparedBytes    = 64 << 20
)

// preparedCircuit is one circuit with the campaign state that depends
// on the circuit alone, built once per circuit instead of once per
// campaign: its canonical .bench text (what CanonicalKey hashes), its
// fault universes per fault configuration, with each fault's name, its
// neighbour bridges per window, and a pool of idle simulators whose
// packed scratches stay warm across campaigns. The circuit compiles
// once, on its first simulation (logic.Circuit.Compiled). Universes
// and bridge lists are built on the first campaign that asks for them;
// every value, once published, is read-only, so any number of
// campaigns share an entry.
type preparedCircuit struct {
	c     *logic.Circuit
	canon []byte // canonical .bench text; nil on a private entry

	// The memo holding the entry under key; nil on a private entry.
	memo *circuitMemo
	key  circuitKey

	mu        sync.Mutex
	universes map[core.UniverseOptions]*faultUniverse
	bridges   map[int][]core.Bridge

	sims sync.Pool // idle *faultsim.Simulator on c
}

// faultUniverse is one fault configuration's universe: the line
// stuck-at faults, then the transistor faults, as core.Universe lists
// them, with each fault's name at the same index (faultNames, which
// finished campaigns keep). The line half is faults[:lines] and the
// transistor half faults[lines:], so the ATPG campaign's joint universe
// is faults itself. byName, built on the first dictionary campaign
// (preparedCircuit.nameOrder), lists the universe's indices in
// ascending name order, the order a dictionary stores its entries in.
type faultUniverse struct {
	faults []core.Fault
	*faultNames
	byName []int32
}

// newPrepared prepares a resolved circuit.
func newPrepared(c *logic.Circuit) *preparedCircuit {
	return &preparedCircuit{
		c:         c,
		universes: map[core.UniverseOptions]*faultUniverse{},
		bridges:   map[int][]core.Bridge{},
	}
}

// universe returns the one universe a campaign's fault configuration
// needs (its line stuck-at faults when enabled, then its transistor
// fault classes), enumerating it and naming its faults on first use.
func (p *preparedCircuit) universe(f FaultConfig) *faultUniverse {
	opt := core.UniverseOptions{LineStuckAt: f.StuckAt, ChannelBreak: f.StuckOpen, StuckOn: f.StuckOn, Polarity: f.Polarity}
	p.mu.Lock()
	defer p.mu.Unlock()
	if u, ok := p.universes[opt]; ok {
		return u
	}
	u := &faultUniverse{faults: core.Universe(p.c, opt), faultNames: &faultNames{key: p.namesKeyFunc(opt)}}
	u.names = make([]string, len(u.faults))
	size := int64(cap(u.faults))*int64(unsafe.Sizeof(core.Fault{})) + int64(len(u.names))*int64(unsafe.Sizeof(""))
	for i := range u.faults {
		u.names[i] = u.faults[i].String()
		size += int64(len(u.names[i]))
	}
	for u.lines < len(u.faults) && u.faults[u.lines].Kind.IsLineFault() {
		u.lines++
	}
	p.universes[opt] = u
	p.grow(size)
	return u
}

// nameOrder returns u's indices in ascending fault-name order, sorting
// them on first use.
func (p *preparedCircuit) nameOrder(u *faultUniverse) []int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u.byName == nil {
		order := make([]int32, len(u.names))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return strings.Compare(u.names[a], u.names[b]) })
		u.byName = order
		p.grow(int64(cap(order)) * int64(unsafe.Sizeof(int32(0))))
	}
	return u.byName
}

// neighborBridges returns core.NeighborBridges for the window, built on
// first use.
func (p *preparedCircuit) neighborBridges(window int) []core.Bridge {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.bridges[window]; ok {
		return b
	}
	b := core.NeighborBridges(p.c, window)
	p.bridges[window] = b
	p.grow(int64(cap(b)) * int64(unsafe.Sizeof(core.Bridge{})))
	return b
}

// grow charges n bytes the entry has grown by (a universe or bridge
// list built on first use) to the memo, which counts them while the
// entry is resident.
func (p *preparedCircuit) grow(n int64) {
	if p.memo != nil {
		p.memo.charge(p.key, p, n)
	}
}

// simulator hands out an idle simulator on the circuit running engine,
// with no progress hook or signature capture attached; release returns
// it.
func (p *preparedCircuit) simulator(engine faultsim.Engine) *faultsim.Simulator {
	sim, _ := p.sims.Get().(*faultsim.Simulator)
	if sim == nil {
		sim = faultsim.New(p.c)
	}
	sim.Engine = engine
	return sim
}

func (p *preparedCircuit) release(sim *faultsim.Simulator) {
	sim.Progress, sim.Signatures = nil, nil
	p.sims.Put(sim)
}

// circuitBytes estimates what a circuit and its compiled form hold: a
// few hundred bytes per gate and per net (names, fanin lists, maps).
func circuitBytes(c *logic.Circuit) int64 {
	nets := len(c.Inputs) + len(c.Gates)
	return 512*int64(len(c.Gates)) + 128*int64(nets)
}

// circuitKey names a submitted circuit: a benchmark by its name, a
// netlist by the SHA-256 of its text.
type circuitKey struct {
	benchmark string
	netlist   [sha256.Size]byte
}

func circuitKeyOf(r CampaignRequest) circuitKey {
	if r.Benchmark != "" {
		return circuitKey{benchmark: r.Benchmark}
	}
	return circuitKey{netlist: sha256.Sum256([]byte(r.Netlist))}
}

// circuitMemo is the manager's bounded LRU memo of prepared circuits,
// counted in the bytes preparedCircuit.grow charges. A nil memo
// memoizes nothing: resolve then prepares a private entry through the
// same code.
type circuitMemo struct {
	*lru[circuitKey, *preparedCircuit]
}

func newCircuitMemo(hits, misses *obs.Counter) *circuitMemo {
	return &circuitMemo{newLRU[circuitKey, *preparedCircuit](maxPreparedCircuits, maxPreparedBytes, hits, misses)}
}

// resolve returns the prepared entry of the request's circuit and
// whether the memo already held it. On a miss it resolves the circuit
// (bench.Get or ParseBench), writes its canonical text and publishes
// the entry, unless a concurrent miss published one first, which it
// then returns. A circuit that fails to resolve is not memoized. An
// evicted entry stays valid for the campaigns still using it.
func (cm *circuitMemo) resolve(r CampaignRequest) (*preparedCircuit, bool, error) {
	if cm == nil {
		c, err := r.circuit()
		if err != nil {
			return nil, false, err
		}
		return newPrepared(c), false, nil
	}
	k := circuitKeyOf(r)
	if p, ok := cm.Get(k); ok {
		return p, true, nil
	}
	c, err := r.circuit()
	if err != nil {
		return nil, false, err
	}
	p := newPrepared(c)
	p.canon = canonicalBench(c)
	p.memo, p.key = cm, k
	return cm.publish(k, p, circuitBytes(c)+int64(cap(p.canon))), false, nil
}
