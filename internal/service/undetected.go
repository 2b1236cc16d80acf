package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/resultstore"
)

// faultNames is a fault universe's names as finished campaigns refer to
// them: every fault's name by universe index, the line stuck-at faults
// first (names[:lines]), then the transistor faults. key returns the
// content address of the result store's names artifact, and stored
// remembers the store the artifact is known to be in, so a process
// stats it at most once per universe.
type faultNames struct {
	names  []string
	lines  int
	key    func() string
	stored atomic.Pointer[resultstore.Store]
}

// namesKeyFunc returns the names key of the circuit's universe under
// opt, textKey of the canonical text and opt, computed on first use: a
// memo entry hashes the canonical text it holds, a private entry writes
// its own.
func (p *preparedCircuit) namesKeyFunc(opt core.UniverseOptions) func() string {
	if canon := p.canon; canon != nil {
		return sync.OnceValue(func() string { return textKey(canon, opt) })
	}
	c := p.c
	return sync.OnceValue(func() string { return textKey(canonicalBench(c), opt) })
}

// The three listed classes, in UndetectedJSON's order.
const (
	listStuckAt = iota
	listTransistor
	listTransistorIDDQ
	listClasses
)

// missedFaults is a finished campaign's undetected faults by index: for
// each listed class, ascending indices into the class's slice of the
// universe (names[:lines] for stuck-at, names[lines:] for the two
// transistor classes), empty when the class left none or was not
// simulated.
type missedFaults struct {
	u       *faultNames
	classes [listClasses][]int
}

// missed returns the report's undetected faults by index; nil for a
// report that carries none, such as one decoded from its body.
func (rep *CampaignReport) missed() *missedFaults {
	if rep.names == nil {
		return nil
	}
	m := &missedFaults{u: rep.names}
	for c, cov := range [listClasses]*CoverageJSON{rep.StuckAt, rep.Transistor, rep.TransistorIDDQ} {
		if cov != nil {
			m.classes[c] = cov.undetected
		}
	}
	return m
}

// class returns the names of class c's slice of the universe.
func (m *missedFaults) class(c int) []string {
	if c == listStuckAt {
		return m.u.names[:m.u.lines]
	}
	return m.u.names[m.u.lines:]
}

// namesAt returns the names at the indices idx; nil when idx is empty.
func namesAt(names []string, idx []int) []string {
	if len(idx) == 0 {
		return nil
	}
	out := make([]string, len(idx))
	for i, fi := range idx {
		out[i] = names[fi]
	}
	return out
}

// body renders the GET /v1/campaigns/{id}/undetected body.
func (m *missedFaults) body() []byte {
	// Lists of strings always marshal.
	body, _ := json.Marshal(UndetectedJSON{
		StuckAt:        namesAt(m.class(listStuckAt), m.classes[listStuckAt]),
		Transistor:     namesAt(m.class(listTransistor), m.classes[listTransistor]),
		TransistorIDDQ: namesAt(m.class(listTransistorIDDQ), m.classes[listTransistorIDDQ]),
	})
	return body
}

// undetectedIndex is the index artifact (resultstore.KindUndetectedIndex):
// the key of the universe's names artifact, the universe's size and
// line-fault count, and each listed class that left a fault undetected
// as a dict.Bitset over the class's slice of the universe, in the
// bitset's self-describing encoding (base64 in the JSON).
type undetectedIndex struct {
	Names          string `json:"names"`
	Faults         int    `json:"faults"`
	Lines          int    `json:"lines"`
	StuckAt        []byte `json:"stuck_at,omitempty"`
	Transistor     []byte `json:"transistor,omitempty"`
	TransistorIDDQ []byte `json:"transistor_iddq,omitempty"`
}

func (x *undetectedIndex) sets() [listClasses]*[]byte {
	return [listClasses]*[]byte{&x.StuckAt, &x.Transistor, &x.TransistorIDDQ}
}

// encodeIndex renders m's index artifact under its names key.
func encodeIndex(m *missedFaults, namesKey string) []byte {
	x := undetectedIndex{Names: namesKey, Faults: len(m.u.names), Lines: m.u.lines}
	for c, set := range x.sets() {
		if len(m.classes[c]) == 0 {
			continue
		}
		b := dict.NewBitset(len(m.class(c)))
		for _, i := range m.classes[c] {
			b.Set(i)
		}
		*set = b.AppendBinary(nil)
	}
	// Strings, integers and bytes always marshal.
	body, _ := json.Marshal(x)
	return body
}

// decodeIndex decodes an index artifact: JSON in undetectedIndex's form
// with a valid names key and 0 <= lines <= faults. Its bitsets decode
// against the names (resolve).
func decodeIndex(body []byte) (*undetectedIndex, error) {
	var x undetectedIndex
	if err := json.Unmarshal(body, &x); err != nil {
		return nil, fmt.Errorf("undetected index: %w", err)
	}
	if !resultstore.ValidKey(x.Names) {
		return nil, fmt.Errorf("undetected index: invalid names key %q", x.Names)
	}
	if x.Lines < 0 || x.Lines > x.Faults {
		return nil, fmt.Errorf("undetected index: %d line faults in a universe of %d", x.Lines, x.Faults)
	}
	return &x, nil
}

// resolve decodes the names artifact the index names and the index's
// bitsets against it: the names must be a JSON array of exactly
// x.Faults strings, and each bitset exactly its class's width, with no
// set bit past it.
func (x *undetectedIndex) resolve(namesBody []byte) (*missedFaults, error) {
	var names []string
	if err := json.Unmarshal(namesBody, &names); err != nil {
		return nil, fmt.Errorf("fault names: %w", err)
	}
	if names == nil {
		return nil, errors.New("fault names: not a JSON array")
	}
	if len(names) != x.Faults {
		return nil, fmt.Errorf("fault names: %d names, the index counts %d faults", len(names), x.Faults)
	}
	m := &missedFaults{u: &faultNames{names: names, lines: x.Lines}}
	for c, set := range x.sets() {
		if *set == nil {
			continue
		}
		b, err := dict.DecodeBitset(*set, len(m.class(c)))
		if err != nil {
			return nil, fmt.Errorf("undetected index, class %d: %w", c, err)
		}
		m.classes[c] = b.Members()
	}
	return m, nil
}

// readMissed reads a stored campaign's undetected faults: its index
// artifact, then the names artifact the index names. A missing, torn or
// inconsistent artifact is an error.
func readMissed(st *resultstore.Store, key string) (*missedFaults, error) {
	body, err := st.Read(resultstore.KindUndetectedIndex, key)
	if err != nil {
		return nil, err
	}
	x, err := decodeIndex(body)
	if err != nil {
		return nil, err
	}
	names, err := st.Read(resultstore.KindFaultNames, x.Names)
	if err != nil {
		return nil, err
	}
	return x.resolve(names)
}

// persistMissed writes m's artifacts: the universe's names, unless this
// process already knows them stored, and the campaign's index.
func persistMissed(st *resultstore.Store, key string, m *missedFaults) error {
	namesKey := m.u.key()
	if m.u.stored.Load() != st {
		if !st.Has(resultstore.KindFaultNames, namesKey) {
			// A list of strings always marshals.
			names, _ := json.Marshal(m.u.names)
			if _, err := st.Write(resultstore.KindFaultNames, namesKey, names); err != nil {
				return err
			}
		}
		m.u.stored.Store(st)
	}
	_, err := st.Write(resultstore.KindUndetectedIndex, key, encodeIndex(m, namesKey))
	return err
}

// undetectedBody returns the report's /undetected body, rendered on the
// first call that succeeds and then held: from the campaign's indices,
// which it then drops, or, for a report the result store served, from
// its stored index and names, read then. A failed read is returned and
// not held, so the next call reads again. Safe for concurrent use.
func (r *encodedReport) undetectedBody(st *resultstore.Store, key string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.undetected != nil {
		return r.undetected, nil
	}
	m := r.missed
	if m == nil {
		if st == nil {
			return nil, errors.New("no undetected faults held")
		}
		var err error
		if m, err = readMissed(st, key); err != nil {
			return nil, err
		}
	}
	r.undetected, r.missed = m.body(), nil
	return r.undetected, nil
}
