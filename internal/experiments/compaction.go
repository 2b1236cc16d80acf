package experiments

import (
	"fmt"
	"sort"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
)

// CompactionRow summarises dynamic pattern compaction on one circuit.
type CompactionRow struct {
	Circuit    string
	Faults     int
	Detected   int
	Before     int // generated voltage patterns
	After      int // coverage-preserving compaction
	AfterRes   int // resolution-preserving compaction
	Classes    int // signature classes under the full set
	ClassesRes int // classes after resolution-preserving compaction
}

// CompactionResult is the dynamic-compaction campaign.
type CompactionResult struct {
	Rows []CompactionRow
}

// Compaction measures dictionary-driven dynamic test compaction: the
// ATPG campaign's voltage patterns are captured once into per-fault
// detection bitsets, then reverse-order subsumption drops every pattern
// the rest of the set already covers — with and without the constraint
// that the surviving set keeps the full diagnostic resolution. Coverage
// is re-simulated on the compacted set and must match the full set
// bit for bit.
func Compaction(circuits map[string]*logic.Circuit) (*CompactionResult, error) {
	if circuits == nil {
		c17, err := bench.Get("c17")
		if err != nil {
			return nil, err
		}
		mult3, err := bench.Get("mult3")
		if err != nil {
			return nil, err
		}
		circuits = map[string]*logic.Circuit{"c17": c17, "mult3": mult3}
	}
	var names []string
	for n := range circuits {
		names = append(names, n)
	}
	sort.Strings(names)

	res := &CompactionResult{}
	for _, name := range names {
		c := circuits[name]
		faults := core.Universe(c, core.ClassicalOnly())
		gen := atpg.Generate(c, faults, atpg.Options{})
		if len(gen.Set.Patterns) == 0 {
			return nil, fmt.Errorf("compaction: %s generated no patterns", name)
		}
		set := faultsim.NewPatternSet(c, len(gen.Set.Patterns))
		for _, vec := range gen.Set.Patterns {
			set.Append(vec)
		}
		patterns := set.Patterns()

		sim := faultsim.New(c)
		capture := faultsim.NewSignatureCapture(len(faults), len(patterns))
		sim.Signatures = capture
		full := sim.RunStuckAt(faults, patterns)
		sim.Signatures = nil
		sigs := make([]dict.Bitset, len(faults))
		for i := range faults {
			sigs[i] = dict.FromWords(len(patterns), capture.Out(i))
		}

		plain := atpg.CompactDynamic(sigs, len(patterns), atpg.CompactOptions{})
		keepRes := atpg.CompactDynamic(sigs, len(patterns), atpg.CompactOptions{PreserveResolution: true})

		// Re-simulate the compacted set: coverage must be bit-identical.
		kept := make([]faultsim.Pattern, 0, len(plain.Keep))
		for _, i := range plain.Keep {
			kept = append(kept, patterns[i])
		}
		before := faultsim.Summarise(full).Detected
		after := faultsim.Summarise(faultsim.New(c).RunStuckAt(faults, kept)).Detected
		if before != after {
			return nil, fmt.Errorf("compaction: %s coverage changed %d -> %d", name, before, after)
		}
		if keepRes.ClassesAfter != keepRes.ClassesBefore {
			return nil, fmt.Errorf("compaction: %s resolution changed %d -> %d classes",
				name, keepRes.ClassesBefore, keepRes.ClassesAfter)
		}

		res.Rows = append(res.Rows, CompactionRow{
			Circuit:    name,
			Faults:     len(faults),
			Detected:   before,
			Before:     len(patterns),
			After:      len(plain.Keep),
			AfterRes:   len(keepRes.Keep),
			Classes:    plain.ClassesBefore,
			ClassesRes: keepRes.ClassesAfter,
		})
	}
	return res, nil
}

// Report renders the compaction table.
func (r *CompactionResult) Report() string {
	t := report.Table{
		Title:   "Extension: dictionary-driven dynamic test compaction",
		Headers: []string{"Circuit", "Faults", "Detected", "Patterns", "Compacted", "Res-preserving", "Signature classes"},
	}
	for _, row := range r.Rows {
		t.Add(row.Circuit, row.Faults, row.Detected, row.Before, row.After, row.AfterRes, row.Classes)
	}
	return t.String()
}
