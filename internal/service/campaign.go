package service

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"cpsinw/internal/atpg"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
	"cpsinw/internal/report"
)

// exhaustiveInputLimit is the input count up to which campaigns always
// simulate all 2^n patterns, ignoring the random-pattern budget.
const exhaustiveInputLimit = 12

// DefaultPatternBudget is the random-pattern count applied when a
// campaign on a wide circuit leaves the budget unset: without it a
// n <= 0 request would simulate zero patterns and report 0% coverage
// as a successful campaign.
const DefaultPatternBudget = 256

// BuildPatterns mirrors the CLI pattern policy: exhaustive for circuits
// with at most exhaustiveInputLimit inputs, seeded-random otherwise
// (DefaultPatternBudget patterns when n <= 0).
func BuildPatterns(c *logic.Circuit, n int, seed int64) []faultsim.Pattern {
	if len(c.Inputs) <= exhaustiveInputLimit {
		return faultsim.ExhaustivePatterns(c)
	}
	if n <= 0 {
		n = DefaultPatternBudget
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]faultsim.Pattern, n)
	for k := range out {
		p := faultsim.Pattern{}
		for _, pi := range c.Inputs {
			p[pi] = logic.FromBool(rng.Intn(2) == 1)
		}
		out[k] = p
	}
	return out
}

// RunObserver threads observability into one campaign execution. Every
// field is optional; a nil observer (or nil fields) runs the campaign
// unobserved at full speed.
type RunObserver struct {
	// Span is the parent span; each campaign stage becomes a child.
	Span *obs.Span
	// Progress receives live snapshots from the simulation and ATPG
	// stages. Calls are serialized; the callback must not re-enter the
	// campaign.
	Progress func(JobProgress)
	// OnStage receives each finished stage's wall-clock duration.
	OnStage func(stage string, d time.Duration)
	// Dict and DictKey, when both set, make the campaign harvest
	// per-fault detection signatures from the simulation stages it
	// already runs (no second pass) and persist them as a fault
	// dictionary under DictKey — the campaign's content address — at
	// completion. The artifact metadata lands in CampaignReport.Dictionary.
	Dict    *dict.Store
	DictKey string
}

// stage opens one observed campaign stage under parent; the returned
// func closes the span and reports the duration.
func (ro *RunObserver) stage(parent *obs.Span, name string) (*obs.Span, func()) {
	sp := parent.Child(name)
	start := time.Now()
	return sp, func() {
		sp.End()
		if ro.OnStage != nil {
			ro.OnStage(name, time.Since(start))
		}
	}
}

// runATPG runs the generation campaign under an "atpg" stage span that
// carries its PODEM work (implications and backtracks) as attributes,
// and returns the report section.
func runATPG(ctx context.Context, c *logic.Circuit, universe []core.Fault, opt atpg.Options, ro *RunObserver, parent *obs.Span) (*ATPGJSON, error) {
	sp, done := ro.stage(parent, "atpg")
	res, err := atpg.GenerateContext(ctx, c, universe, opt)
	sp.SetAttr("implications", strconv.Itoa(res.Implications))
	sp.SetAttr("backtracks", strconv.Itoa(res.Backtracks))
	if err != nil {
		return nil, err
	}
	done()
	return &ATPGJSON{
		StuckAtTargeted:  res.StuckAtTargeted,
		StuckAtCovered:   res.StuckAtCovered,
		PolarityTargeted: res.PolarityTargeted,
		PolarityCovered:  res.PolarityCovered,
		CBSPTargeted:     res.CBSPTargeted,
		CBSPCovered:      res.CBSPCovered,
		CBDPTargeted:     res.CBDPTargeted,
		CBDPCovered:      res.CBDPCovered,
		Coverage:         res.Coverage(),
		TotalVectors:     res.Set.TotalVectors(),
		Untestable:       len(res.Untestable),
	}, nil
}

// RunCampaign executes one normalized campaign request against the
// batch engines, honouring the context between phases and inside the
// parallel transistor simulation and the ATPG generators.
func RunCampaign(ctx context.Context, c *logic.Circuit, req CampaignRequest) (*CampaignReport, error) {
	return RunCampaignObserved(ctx, c, req, nil)
}

// RunCampaignObserved is RunCampaign with per-stage span tracing and
// live progress reporting. Stages (and their span names) are: patterns,
// compile, simulate (with per-fault-class children), report; request
// parsing happens before the campaign and is recorded by the job
// manager.
func RunCampaignObserved(ctx context.Context, c *logic.Circuit, req CampaignRequest, ro *RunObserver) (*CampaignReport, error) {
	if ro == nil {
		ro = &RunObserver{}
	}
	start := time.Now()

	engine, err := faultsim.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}

	patSpan, patDone := ro.stage(ro.Span, "patterns")
	pats := BuildPatterns(c, req.Patterns, req.Seed)
	patSpan.SetAttr("count", strconv.Itoa(len(pats)))
	patDone()

	sim := faultsim.New(c)
	sim.Engine = engine

	// The stage the simulator progress callback attributes snapshots
	// to: the simulator names its own stages, but the voltage-only and
	// +IDDQ transistor sweeps both run under its "transistor" stage and
	// only the campaign can tell them apart. faultCount is the stage's
	// targeted fault universe, the coverage denominator.
	currentStage := ""
	faultCount := 0
	if ro.Progress != nil {
		sim.Progress = func(p faultsim.Progress) {
			ro.Progress(JobProgress{
				Stage:     currentStage,
				Done:      p.Done,
				Total:     p.Total,
				Detected:  p.Detected,
				Dropped:   p.Dropped,
				Faults:    faultCount,
				GateEvals: p.GateEvals,
			})
		}
	}

	_, compileDone := ro.stage(ro.Span, "compile")
	sim.EnsureCompiled()
	compileDone()

	stats := c.Statistics()
	rep := &CampaignReport{
		Circuit: CircuitInfo{
			Name:    c.Name,
			Inputs:  stats.Inputs,
			Outputs: stats.Outputs,
			Gates:   stats.Gates,
			DPGates: stats.DPGates,
		},
		Patterns: len(pats),
		Engine:   engine.String(),
	}

	// Signature harvesting: with a dictionary store attached, the
	// stuck-at sweep and one transistor sweep run with a capture sink so
	// the dictionary comes out of the simulation the campaign performs
	// anyway. The leak plane needs the +IDDQ run; without IDDQ the
	// voltage run carries the (identical) output plane.
	wantDict := ro.Dict != nil && ro.DictKey != ""
	var saFaults, dictTrFaults []core.Fault
	var saCapture, trCapture *faultsim.SignatureCapture

	simSpan, simDone := ro.stage(ro.Span, "simulate")

	if req.Faults.StuckAt {
		faults := core.Universe(c, core.ClassicalOnly())
		currentStage, faultCount = "stuck_at", len(faults)
		_, done := ro.stage(simSpan, "stuck_at")
		if wantDict {
			saFaults = faults
			saCapture = faultsim.NewSignatureCapture(len(faults), len(pats))
			sim.Signatures = saCapture
		}
		ds, err := sim.RunStuckAtContext(ctx, faults, pats)
		sim.Signatures = nil
		if err != nil {
			return nil, err
		}
		done()
		rep.StuckAt = coverageJSON(faultsim.Summarise(ds))
	}

	uopt := core.UniverseOptions{
		ChannelBreak: req.Faults.StuckOpen,
		StuckOn:      req.Faults.StuckOn,
		Polarity:     req.Faults.Polarity,
	}
	if uopt.ChannelBreak || uopt.StuckOn || uopt.Polarity {
		trFaults := core.Universe(c, uopt)
		currentStage, faultCount = "transistor", len(trFaults)
		_, done := ro.stage(simSpan, "transistor")
		if wantDict && !req.Faults.IDDQ {
			dictTrFaults = trFaults
			trCapture = faultsim.NewSignatureCapture(len(trFaults), len(pats))
			sim.Signatures = trCapture
		}
		ds, err := sim.RunTransistorParallel(ctx, trFaults, pats, false, req.Workers)
		sim.Signatures = nil
		if err != nil {
			return nil, err
		}
		done()
		rep.Transistor = coverageJSON(faultsim.Summarise(ds))
		if req.Faults.IDDQ {
			currentStage = "transistor_iddq"
			_, done := ro.stage(simSpan, "transistor_iddq")
			if wantDict {
				dictTrFaults = trFaults
				trCapture = faultsim.NewSignatureCapture(len(trFaults), len(pats))
				sim.Signatures = trCapture
			}
			ds, err = sim.RunTransistorParallel(ctx, trFaults, pats, true, req.Workers)
			sim.Signatures = nil
			if err != nil {
				return nil, err
			}
			done()
			rep.TransistorIDDQ = coverageJSON(faultsim.Summarise(ds))
		}
	}

	if req.Faults.Bridges {
		bridges := core.NeighborBridges(c, req.Faults.BridgeWindow)
		currentStage, faultCount = "bridges", len(bridges)
		_, done := ro.stage(simSpan, "bridges")
		ds, err := sim.RunBridgesObserved(ctx, bridges, pats, req.Faults.IDDQ)
		if err != nil {
			return nil, err
		}
		done()
		rep.Bridges = coverageJSON(faultsim.BridgeCoverage(ds))
	}

	if req.ATPG {
		genOpt := uopt
		genOpt.LineStuckAt = req.Faults.StuckAt
		universe := core.Universe(c, genOpt)
		atpgOpt := atpg.Options{Engine: engine}
		if ro.Progress != nil {
			atpgOpt.Progress = func(p atpg.Progress) {
				ro.Progress(JobProgress{
					Stage:      "atpg",
					Class:      p.Class,
					Done:       p.Done,
					Total:      p.Total,
					Detected:   p.Covered,
					Faults:     p.Total,
					Untestable: p.Untestable,
					Vectors:    p.Vectors,
				})
			}
		}
		rep.ATPG, err = runATPG(ctx, c, universe, atpgOpt, ro, simSpan)
		if err != nil {
			return nil, err
		}
	}
	simDone()

	if wantDict && (saCapture != nil || trCapture != nil) {
		dictSpan, done := ro.stage(ro.Span, "dictionary")
		d := &dict.Dictionary{Meta: dict.Meta{
			Key:       ro.DictKey,
			Circuit:   c.Name,
			Patterns:  len(pats),
			Seed:      req.Seed,
			Engine:    engine.String(),
			IDDQ:      req.Faults.IDDQ,
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
		}}
		addEntries := func(faults []core.Fault, capture *faultsim.SignatureCapture, leak bool) {
			for i := range faults {
				e := dict.Entry{
					Fault: faults[i].String(),
					Out:   dict.FromWords(len(pats), capture.Out(i)),
					Leak:  dict.NewBitset(len(pats)),
				}
				if leak {
					e.Leak = dict.FromWords(len(pats), capture.Leak(i))
				}
				d.Entries = append(d.Entries, e)
			}
		}
		if saCapture != nil {
			addEntries(saFaults, saCapture, false)
		}
		if trCapture != nil {
			addEntries(dictTrFaults, trCapture, req.Faults.IDDQ)
		}
		_, size, err := ro.Dict.Put(d)
		if err != nil {
			return nil, fmt.Errorf("dictionary: %w", err)
		}
		dictSpan.SetAttr("entries", strconv.Itoa(len(d.Entries)))
		dictSpan.SetAttr("bytes", strconv.FormatInt(size, 10))
		rep.Dictionary = &DictionaryJSON{
			Key:                 d.Meta.Key,
			Entries:             d.Meta.Entries,
			Patterns:            d.Meta.Patterns,
			IDDQ:                d.Meta.IDDQ,
			CompressedBytes:     size,
			Detected:            d.Meta.Resolution.Detected,
			Classes:             d.Meta.Resolution.Classes,
			UniquelyDiagnosable: d.Meta.Resolution.UniquelyDiagnosable,
		}
		done()
	}

	_, reportDone := ro.stage(ro.Span, "report")
	rep.Tables = buildTables(rep)
	reportDone()
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep, nil
}

func coverageJSON(cov faultsim.Coverage) *CoverageJSON {
	out := &CoverageJSON{
		Total:        cov.Total,
		Detected:     cov.Detected,
		ByOutput:     cov.ByOutput,
		ByIDDQ:       cov.ByIDDQ,
		ByTwoPattern: cov.ByTwoPat,
		Percent:      cov.Percent(),
	}
	for _, f := range cov.Undetected {
		out.Undetected = append(out.Undetected, f.String())
	}
	return out
}

// buildTables renders the structured numbers as the same report.Table
// shapes the CLI prints, marshalled to JSON by internal/report.
func buildTables(rep *CampaignReport) []*report.Table {
	cov := &report.Table{
		Title:   fmt.Sprintf("fault simulation with %d patterns", rep.Patterns),
		Headers: []string{"model", "faults", "detected", "coverage"},
	}
	add := func(name string, c *CoverageJSON) {
		if c != nil {
			cov.Add(name, fmt.Sprintf("%d", c.Total), fmt.Sprintf("%d", c.Detected), fmt.Sprintf("%.1f%%", c.Percent))
		}
	}
	add("classical stuck-at", rep.StuckAt)
	add("CP transistor (voltage only)", rep.Transistor)
	add("CP transistor (+IDDQ)", rep.TransistorIDDQ)
	add("bridges", rep.Bridges)
	tables := []*report.Table{cov}

	if a := rep.ATPG; a != nil {
		t := &report.Table{
			Title:   "ATPG campaign",
			Headers: []string{"class", "targeted", "covered"},
		}
		t.Add("line stuck-at", fmt.Sprintf("%d", a.StuckAtTargeted), fmt.Sprintf("%d", a.StuckAtCovered))
		t.Add("polarity", fmt.Sprintf("%d", a.PolarityTargeted), fmt.Sprintf("%d", a.PolarityCovered))
		t.Add("channel break (SP)", fmt.Sprintf("%d", a.CBSPTargeted), fmt.Sprintf("%d", a.CBSPCovered))
		t.Add("channel break (DP)", fmt.Sprintf("%d", a.CBDPTargeted), fmt.Sprintf("%d", a.CBDPCovered))
		tables = append(tables, t)
	}
	return tables
}
