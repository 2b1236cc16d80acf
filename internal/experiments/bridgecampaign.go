package experiments

import (
	"fmt"
	"sort"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
)

// BridgeRow summarises interconnect-bridge fault simulation on one
// circuit (Table I, step 5: metal-layer bridges).
type BridgeRow struct {
	Circuit  string
	Bridges  int
	Detected int
	Vectors  int
}

// BridgeCampaignResult runs layout-neighbour bridges against the
// stuck-at test sets of the benchmark suite.
type BridgeCampaignResult struct {
	Rows []BridgeRow
}

// BridgeCampaign enumerates neighbour bridges (wired-AND and wired-OR)
// for each benchmark and fault-simulates them against the circuit's
// compacted stuck-at test set — measuring how much interconnect-bridge
// coverage the classical vectors provide for free.
func BridgeCampaign(circuits map[string]*logic.Circuit) (*BridgeCampaignResult, error) {
	if circuits == nil {
		circuits = map[string]*logic.Circuit{
			"c17":     bench.C17(),
			"rca4":    bench.RippleCarryAdder(4),
			"parity8": bench.ParityTree(8),
			"tmr":     bench.TMRVoter(),
		}
	}
	var names []string
	for n := range circuits {
		names = append(names, n)
	}
	sort.Strings(names)

	res := &BridgeCampaignResult{}
	for _, name := range names {
		c := circuits[name]
		saFaults := core.Universe(c, core.ClassicalOnly())
		var pats []faultsim.Pattern
		for _, f := range saFaults {
			if p, ok := atpg.GenerateStuckAt(c, f, atpg.Options{}); ok {
				pats = append(pats, p)
			}
		}
		pats = atpg.CompactPatterns(c, saFaults, pats)

		bridges := core.NeighborBridges(c, 2)
		ds := faultsim.New(c).RunBridges(bridges, pats)
		cov := faultsim.Summarise(ds)
		res.Rows = append(res.Rows, BridgeRow{
			Circuit:  name,
			Bridges:  cov.Total,
			Detected: cov.Detected,
			Vectors:  len(pats),
		})
	}
	return res, nil
}

// Report renders the campaign.
func (r *BridgeCampaignResult) Report() string {
	t := report.Table{
		Title:   "Extension: interconnect bridges vs the stuck-at test set",
		Headers: []string{"Circuit", "Neighbour bridges", "Detected", "Coverage", "Vectors"},
	}
	for _, row := range r.Rows {
		pct := 0.0
		if row.Bridges > 0 {
			pct = 100 * float64(row.Detected) / float64(row.Bridges)
		}
		t.Add(row.Circuit, row.Bridges, row.Detected, fmt.Sprintf("%.1f%%", pct), row.Vectors)
	}
	return t.String()
}
