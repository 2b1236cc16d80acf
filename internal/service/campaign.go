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

// BuildPatterns is a campaign's pattern set as Pattern maps, for callers
// outside the service that replay a campaign's layers.
func BuildPatterns(c *logic.Circuit, n int, seed int64) []faultsim.Pattern {
	return buildPatternSet(c, n, seed).Patterns()
}

// buildPatternSet mirrors the CLI pattern policy: exhaustive for
// circuits with at most exhaustiveInputLimit inputs, seeded-random
// otherwise (DefaultPatternBudget patterns when n <= 0), drawn pattern
// by pattern, input by input, straight into the set.
func buildPatternSet(c *logic.Circuit, n int, seed int64) *faultsim.PatternSet {
	if len(c.Inputs) <= exhaustiveInputLimit {
		return faultsim.ExhaustivePatternSet(c)
	}
	if n <= 0 {
		n = DefaultPatternBudget
	}
	rng := rand.New(rand.NewSource(seed))
	ps := faultsim.NewPatternSet(c, n)
	row := make([]logic.V, len(c.Inputs))
	for range n {
		for i := range row {
			row[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		ps.Append(row)
	}
	return ps
}

// RunObserver threads observability into one campaign execution. Every
// field is optional; a nil observer (or nil fields) runs the campaign
// unobserved at full speed.
type RunObserver struct {
	// Span is the parent span; each campaign stage becomes a child
	// (each shard's stages a child of its shard span).
	Span *obs.Span
	// Progress receives live snapshots from the simulation and ATPG
	// stages. Calls are serialized; the callback must not re-enter the
	// campaign.
	Progress func(JobProgress)
	// OnStage receives each completed stage's wall-clock duration, the
	// per-shard stages once per shard; failed stages are not reported.
	// Shards running at once call it concurrently.
	OnStage func(stage string, d time.Duration)
	// Dict and DictKey, when both set, make the campaign harvest
	// per-fault detection signatures from the simulation stages it
	// already runs (no second pass) and persist them as a fault
	// dictionary under DictKey — the campaign's content address — at
	// completion. The artifact metadata lands in CampaignReport.Dictionary.
	Dict    *dict.Store
	DictKey string
}

// stage opens one observed campaign stage under parent. The returned
// func ends the span on every path: a nil error reports the stage's
// duration to OnStage, a failed stage carries an "error" attribute and
// is not observed.
func (ro *RunObserver) stage(parent *obs.Span, name string) (*obs.Span, func(error)) {
	sp := parent.Child(name)
	start := time.Now()
	return sp, func(err error) {
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else if ro.OnStage != nil {
			ro.OnStage(name, time.Since(start))
		}
		sp.End()
	}
}

// runATPG runs the generation campaign over the universe under an
// "atpg" stage span that carries its PODEM work (implications and
// backtracks) as attributes, and returns the report section. ATPG is a
// sequential generator, not a fault-parallel sweep, so it runs once per
// campaign, after the shards; its progress frames report every shard
// done.
func runATPG(ctx context.Context, c *logic.Circuit, universe []core.Fault, engine faultsim.Engine, shards int, ro *RunObserver, parent *obs.Span) (*ATPGJSON, error) {
	opt := atpg.Options{Engine: engine}
	if ro.Progress != nil {
		opt.Progress = func(p atpg.Progress) {
			ro.Progress(JobProgress{
				Stage:      "atpg",
				Class:      p.Class,
				Done:       p.Done,
				Total:      p.Total,
				Detected:   p.Covered,
				Faults:     p.Total,
				Untestable: p.Untestable,
				Vectors:    p.Vectors,
				Shards:     shards,
				ShardsDone: shards,
			})
		}
	}
	sp, end := ro.stage(parent, "atpg")
	res, err := atpg.GenerateContext(ctx, c, universe, opt)
	sp.SetAttr("implications", strconv.Itoa(res.Implications))
	sp.SetAttr("backtracks", strconv.Itoa(res.Backtracks))
	end(err)
	if err != nil {
		return nil, err
	}
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

// RunCampaignObserved runs one normalized campaign as the one-shard
// plan with no result store: RunCampaignSharded with Shards 1, so the
// lone shard's transistor sweeps get the whole worker budget.
func RunCampaignObserved(ctx context.Context, c *logic.Circuit, req CampaignRequest, ro *RunObserver) (*CampaignReport, error) {
	return RunCampaignSharded(ctx, c, req, ShardedOptions{Shards: 1}, ro)
}

// coverageJSON renders one class's coverage. Its undetected list holds
// the names at cov.Undetected's indices (the class universe's fault
// names, built once per circuit); bridges pass no names and list none.
func coverageJSON(cov faultsim.Coverage, names []string) *CoverageJSON {
	out := &CoverageJSON{
		Total:        cov.Total,
		Detected:     cov.Detected,
		ByOutput:     cov.ByOutput,
		ByIDDQ:       cov.ByIDDQ,
		ByTwoPattern: cov.ByTwoPat,
		Percent:      cov.Percent(),
	}
	if names != nil && len(cov.Undetected) > 0 {
		out.Undetected = make([]string, len(cov.Undetected))
		for i, fi := range cov.Undetected {
			out.Undetected[i] = names[fi]
		}
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
