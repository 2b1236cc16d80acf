package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"unsafe"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
)

// The manager's memo of prepared circuits is bounded by both of these:
// at most maxPreparedCircuits entries and at most maxPreparedBytes
// counted bytes (preparedCircuit.held). Least recently used entries go
// first, and an entry over the byte bound on its own is not kept. The
// counted bytes are what an entry holds for its whole life: the
// circuit, its compiled form, its canonical text, its fault universes
// and names and its bridge lists. Its pooled simulators are not
// counted: a sync.Pool hands them to the collector.
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
	canon string // canonical .bench text; empty on a private entry
	memo  *circuitMemo

	mu        sync.Mutex
	universes map[core.UniverseOptions]*faultUniverse
	bridges   map[int][]core.Bridge

	sims sync.Pool // idle *faultsim.Simulator on c

	// Memo bookkeeping, guarded by memo.mu: the entry's counted bytes
	// and its place in the LRU list (nil once evicted).
	held int64
	key  circuitKey
	el   *list.Element
}

// faultUniverse is one fault configuration's universe: the line
// stuck-at faults, then the transistor faults, as core.Universe lists
// them, with each fault's name at the same index. The line half is
// faults[:lines] and the transistor half faults[lines:], so the ATPG
// campaign's joint universe is faults itself.
type faultUniverse struct {
	faults []core.Fault
	names  []string
	lines  int
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
	u := &faultUniverse{faults: core.Universe(p.c, opt)}
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
	p.memo.charge(p, size)
	return u
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
	p.memo.charge(p, int64(cap(b))*int64(unsafe.Sizeof(core.Bridge{})))
	return b
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

// circuitMemo is the manager's bounded LRU memo of prepared circuits.
// A nil memo memoizes nothing: resolve then prepares a private entry
// through the same code. All methods are safe for concurrent use.
type circuitMemo struct {
	hits, misses *obs.Counter

	mu    sync.Mutex
	ll    list.List // *preparedCircuit, front = most recently used
	items map[circuitKey]*list.Element
	bytes int64 // counted bytes of the resident entries
}

func newCircuitMemo(hits, misses *obs.Counter) *circuitMemo {
	return &circuitMemo{hits: hits, misses: misses, items: map[circuitKey]*list.Element{}}
}

// resolve returns the prepared entry of the request's circuit and
// whether the memo already held it. On a miss it resolves the circuit
// (bench.Get or ParseBench), writes its canonical text and publishes
// the entry, unless a concurrent miss published one first, which it
// then returns. A circuit that fails to resolve is not memoized.
func (cm *circuitMemo) resolve(r CampaignRequest) (*preparedCircuit, bool, error) {
	if cm == nil {
		c, err := r.circuit()
		if err != nil {
			return nil, false, err
		}
		return newPrepared(c), false, nil
	}
	k := circuitKeyOf(r)
	if p := cm.get(k); p != nil {
		cm.hits.Inc()
		return p, true, nil
	}
	cm.misses.Inc()
	c, err := r.circuit()
	if err != nil {
		return nil, false, err
	}
	p := newPrepared(c)
	p.canon = canonicalBench(c)
	p.memo = cm
	p.held = circuitBytes(c) + int64(len(p.canon))
	return cm.put(k, p), false, nil
}

func (cm *circuitMemo) get(k circuitKey) *preparedCircuit {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	el, ok := cm.items[k]
	if !ok {
		return nil
	}
	cm.ll.MoveToFront(el)
	return el.Value.(*preparedCircuit)
}

// put publishes p under k and returns the entry now memoized there: p,
// or the entry a concurrent miss published first.
func (cm *circuitMemo) put(k circuitKey, p *preparedCircuit) *preparedCircuit {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if el, ok := cm.items[k]; ok {
		cm.ll.MoveToFront(el)
		return el.Value.(*preparedCircuit)
	}
	p.key = k
	p.el = cm.ll.PushFront(p)
	cm.items[k] = p.el
	cm.bytes += p.held
	cm.evictLocked()
	return p
}

// charge adds n bytes an entry has grown by (a universe or bridge list
// built on first use) to its count, and to the memo's while it is
// resident, evicting as the bounds require. It does nothing on a nil
// memo (a private entry).
func (cm *circuitMemo) charge(p *preparedCircuit, n int64) {
	if cm == nil {
		return
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	p.held += n
	if p.el != nil {
		cm.bytes += n
		cm.evictLocked()
	}
}

// evictLocked drops least recently used entries until both bounds
// hold. An evicted entry stays valid for the campaigns still using it.
// Callers hold cm.mu.
func (cm *circuitMemo) evictLocked() {
	for cm.ll.Len() > maxPreparedCircuits || cm.bytes > maxPreparedBytes && cm.ll.Len() > 0 {
		p := cm.ll.Remove(cm.ll.Back()).(*preparedCircuit)
		delete(cm.items, p.key)
		cm.bytes -= p.held
		p.el = nil
	}
}
