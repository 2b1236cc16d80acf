package experiments

import (
	"fmt"
	"sort"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
)

// DiagnosisRow summarises the fault-dictionary diagnosis of one circuit.
type DiagnosisRow struct {
	Circuit    string
	Faults     int     // detected faults in the dictionary
	Classes    int     // distinct failure signatures
	UniquePct  float64 // faults uniquely identified by their signature
	Escapes    int     // faults the program misses (untestable)
	StepsTotal int
}

// DiagnosisResult is the diagnosis-resolution campaign.
type DiagnosisResult struct {
	Rows []DiagnosisRow
}

// Diagnosis builds a fault dictionary per benchmark over its tester
// program (extended-model program, all covered faults) and reports the
// diagnostic resolution — the closing step of the paper's inductive
// fault analysis loop.
func Diagnosis(circuits map[string]*logic.Circuit) (*DiagnosisResult, error) {
	if circuits == nil {
		circuits = map[string]*logic.Circuit{
			"c17":   bench.C17(),
			"fa_cp": bench.FullAdderCP(),
			"rca4":  bench.RippleCarryAdder(4),
			"tmr":   bench.TMRVoter(),
		}
	}
	var names []string
	for n := range circuits {
		names = append(names, n)
	}
	sort.Strings(names)

	res := &DiagnosisResult{}
	for _, name := range names {
		c := circuits[name]
		universe := core.Universe(c, core.UniverseOptions{
			LineStuckAt: true, ChannelBreak: true, Polarity: true,
		})
		gen := atpg.Generate(c, universe, atpg.Options{})
		program := atpg.BuildProgram(c, gen)
		d, err := programDictionary(program, universe)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r := d.Meta.Resolution
		unique := 0.0
		if r.Detected > 0 {
			unique = 100 * float64(r.UniquelyDiagnosable) / float64(r.Detected)
		}
		res.Rows = append(res.Rows, DiagnosisRow{
			Circuit:    name,
			Faults:     r.Detected,
			Classes:    r.Classes,
			UniquePct:  unique,
			Escapes:    len(universe) - len(d.Entries),
			StepsTotal: len(program.Steps),
		})
	}
	return res, nil
}

// programDictionary builds the fault dictionary of a tester program:
// one entry per fault the program detects, whose output plane is its
// failure signature (the failing steps, atpg.ExecuteAll) over the
// program's steps and whose leak plane is empty. Faults that fail no
// step are test escapes and get no entry. Normalize labels the classes
// and fills Meta.Resolution.
func programDictionary(program *atpg.Program, faults []core.Fault) (*dict.Dictionary, error) {
	n := len(program.Steps)
	d := &dict.Dictionary{Meta: dict.Meta{Circuit: program.Circuit.Name, Patterns: n}}
	for i := range faults {
		sig := atpg.ExecuteAll(program, &faults[i])
		if len(sig) == 0 {
			continue
		}
		out := dict.NewBitset(n)
		for _, step := range sig {
			out.Set(step)
		}
		d.Entries = append(d.Entries, dict.Entry{Fault: faults[i].String(), Out: out, Leak: dict.NewBitset(n)})
	}
	return d, d.Normalize()
}

// Report renders the resolution table.
func (r *DiagnosisResult) Report() string {
	t := report.Table{
		Title:   "Extension: fault-dictionary diagnosis resolution",
		Headers: []string{"Circuit", "Program steps", "Detected faults", "Signature classes", "Unique diagnosis", "Escapes"},
	}
	for _, row := range r.Rows {
		t.Add(row.Circuit, row.StepsTotal, row.Faults, row.Classes,
			fmt.Sprintf("%.1f%%", row.UniquePct), row.Escapes)
	}
	return t.String()
}
