package faultsim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// dropKind drives one DropSet kind next to its batch entry point.
type dropKind struct {
	name  string
	pairs bool
	open  func(s *Simulator) *DropSet
	// faults is the class's universe plus entries the batch entry point
	// accepts but never detects; broken are the ones it rejects.
	faults, broken func(c *logic.Circuit) []core.Fault
	batch          func(s *Simulator, faults []core.Fault, pats []Pattern, pairs [][2]Pattern) ([]Detection, error)
}

var dropKinds = []dropKind{
	{
		name: "stuck_at",
		open: (*Simulator).StuckAtDrops,
		faults: func(c *logic.Circuit) []core.Fault {
			return append(core.Universe(c, core.ClassicalOnly()),
				core.Fault{Kind: core.FaultSA0, Net: "nope", GateIdx: -1, Pin: -1},
				core.Fault{Kind: core.FaultSA1, Net: c.Inputs[0], GateIdx: 0, Pin: 7},
				core.Fault{Kind: core.FaultSA1, Net: c.Inputs[0], GateIdx: len(c.Gates), Pin: 0},
				core.Fault{Kind: core.FaultStuckAtN, Gate: c.Gates[0].Name, Transistor: "t1"})
		},
		broken: func(*logic.Circuit) []core.Fault { return nil },
		batch: func(s *Simulator, faults []core.Fault, pats []Pattern, _ [][2]Pattern) ([]Detection, error) {
			return s.RunStuckAt(faults, pats), nil
		},
	},
	{
		name: "voltage",
		open: (*Simulator).VoltageDrops,
		faults: func(c *logic.Circuit) []core.Fault {
			return append(core.Universe(c, core.UniverseOptions{Polarity: true, ChannelBreak: true, StuckOn: true}),
				core.Fault{Kind: core.FaultSA0, Net: c.Inputs[0], GateIdx: -1, Pin: -1})
		},
		broken: func(c *logic.Circuit) []core.Fault {
			return []core.Fault{
				{Kind: core.FaultStuckAtN, Gate: "nope", Transistor: "t1"},
				{Kind: core.FaultStuckAtP, Gate: c.Gates[0].Name, Transistor: "t99"},
			}
		},
		batch: func(s *Simulator, faults []core.Fault, pats []Pattern, _ [][2]Pattern) ([]Detection, error) {
			return s.RunTransistorParallel(context.Background(), faults, pats, false, 1)
		},
	},
	{
		name:  "pairs",
		pairs: true,
		open:  (*Simulator).PairDrops,
		faults: func(c *logic.Circuit) []core.Fault {
			return append(core.Universe(c, core.UniverseOptions{ChannelBreak: true}),
				core.Fault{Kind: core.FaultChannelBreak, Gate: c.Gates[0].Name, Transistor: "t99"},
				core.Fault{Kind: core.FaultStuckAtN, Gate: c.Gates[0].Name, Transistor: "t1"})
		},
		broken: func(*logic.Circuit) []core.Fault {
			return []core.Fault{{Kind: core.FaultChannelBreak, Gate: "nope", Transistor: "t1"}}
		},
		batch: func(s *Simulator, faults []core.Fault, _ []Pattern, pairs [][2]Pattern) ([]Detection, error) {
			return s.RunTwoPattern(faults, pairs)
		},
	},
}

// TestDropSetMatchesBatch grows every drop-set kind one entry at a time
// across lane-block boundaries and, after every Add (or every run of
// gap Adds), asks it about every fault of its class: the answer must
// equal Detected() from the kind's batch entry point on the same list.
// A gap of 150 fills blocks and opens the next ones between two
// Detects, which then packs and evaluates each changed block once. Patterns are ternary and omit
// some inputs. Faults the batch entry point rejects (unknown gate or
// transistor) must report undetected.
//
// A batch Detection names the first detecting entry, so one batch run
// over the whole list gives its answer for every prefix: the first k
// entries detect a fault iff its Pattern is below k. The batch also runs
// on the prefix itself at 1, 63, 64, 65, 130 and 300 entries and at the
// end, where both answers must agree. The reference sets keep plain
// lists with no lane blocks, so shorter lists cover them.
func TestDropSetMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	c432, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	small := bench.Random(rng.Int63(), 5, 18)
	setups := []struct {
		c         *logic.Circuit
		eng       Engine
		laneWords int
		n         int
		gap       int // Adds between two rounds of Detects
	}{
		{bench.C17(), EnginePacked, 0, 300, 1},
		{bench.C17(), EnginePacked, 2, 130, 1},
		{bench.C17(), EnginePacked, 4, 300, 1},
		{small, EnginePacked, 0, 300, 1},
		{bench.Random(rng.Int63(), 7, 30), EnginePacked, 0, 130, 1},
		{c432, EnginePacked, 0, 65, 1},
		{bench.C17(), EngineReference, 0, 20, 1},
		{small, EngineReference, 0, 6, 1},
		{bench.C17(), EnginePacked, 0, 300, 150},
		{small, EnginePacked, 2, 300, 150},
	}
	checkpoint := map[int]bool{1: true, 63: true, 64: true, 65: true, 130: true, 300: true}
	for _, su := range setups {
		for _, kind := range dropKinds {
			label := fmt.Sprintf("%s/%v/w%d/gap%d/%s", su.c.Name, su.eng, su.laneWords, su.gap, kind.name)
			s := withEngine(su.c, su.eng)
			s.laneWords = su.laneWords
			faults, broken := kind.faults(su.c), kind.broken(su.c)
			pats := randomTernaryPatterns(rng, su.c, su.n)
			pairs := make([][2]Pattern, su.n)
			for k, p := range randomTernaryPatterns(rng, su.c, su.n) {
				pairs[k] = [2]Pattern{pats[k], p}
			}
			full, err := kind.batch(s, faults, pats, pairs)
			if err != nil {
				t.Fatalf("%s: batch: %v", label, err)
			}
			for _, f := range broken {
				if _, err := kind.batch(s, []core.Fault{f}, pats, pairs); err == nil {
					t.Errorf("%s: batch accepted %v", label, f)
				}
			}
			set := kind.open(s)
			for k := 1; k <= su.n; k++ {
				if kind.pairs {
					set.AddPair(rowOf(su.c, pairs[k-1][0]), rowOf(su.c, pairs[k-1][1]))
				} else {
					set.Add(rowOf(su.c, pats[k-1]))
				}
				want := make([]bool, len(faults))
				for i, d := range full {
					want[i] = d.Detected() && d.Pattern < k
				}
				if checkpoint[k] || k == su.n {
					ds, err := kind.batch(s, faults, pats[:k], pairs[:k])
					if err != nil {
						t.Fatalf("%s: batch over %d entries: %v", label, k, err)
					}
					for i, d := range ds {
						if d.Detected() != want[i] {
							t.Fatalf("%s: batch over %d entries detects %v: %v, first detection over the whole list %+v", label, k, faults[i], d.Detected(), full[i])
						}
					}
				}
				if k%su.gap != 0 {
					continue
				}
				for i, f := range faults {
					if got := set.Detects(f); got != want[i] {
						t.Errorf("%s: %d entries: Detects(%v) = %v, batch %v", label, k, f, got, want[i])
					}
				}
				for _, f := range broken {
					if set.Detects(f) {
						t.Errorf("%s: %d entries: Detects(%v) = true for a fault the batch rejects", label, k, f)
					}
				}
			}
			set.Close()
		}
	}
}
