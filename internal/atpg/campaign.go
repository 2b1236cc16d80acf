package atpg

import (
	"context"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// TestSet is the full output of a generation campaign over the extended
// CP fault model. Every vector, here and in the per-test structs, holds
// one value per primary input, in C.Inputs order; the edges render
// them (BuildProgram, cpsinw-atpg).
type TestSet struct {
	// Combinational voltage-observed patterns (stuck-at + output-
	// detectable polarity faults).
	Patterns [][]logic.V
	// IDDQ measurement patterns (leak-only polarity faults).
	IDDQPatterns [][]logic.V
	// Two-pattern sequences for SP channel breaks.
	TwoPattern []TwoPatternTest
	// Channel-break plans for DP gates (the paper's new procedure).
	CBPlans []ChannelBreakPlan
}

// TotalVectors counts every vector application the set requires.
func (ts *TestSet) TotalVectors() int {
	return len(ts.Patterns) + len(ts.IDDQPatterns) + 2*len(ts.TwoPattern) + len(ts.CBPlans)
}

// CampaignResult reports per-class generation outcomes.
type CampaignResult struct {
	Set TestSet

	StuckAtTargeted, StuckAtCovered   int
	PolarityTargeted, PolarityCovered int
	CBSPTargeted, CBSPCovered         int
	CBDPTargeted, CBDPCovered         int
	Untestable                        []core.Fault

	// PODEM work over every attempt of the campaign: Implications counts
	// implication steps (one per decision or backtrack, each settling
	// the gates whose inputs changed in the good circuit and, when the
	// attempt propagates a fault effect, the faulty one), Backtracks the
	// decisions undone. Both count the search, not gate evaluations, so
	// they read the same as under full levelized passes.
	Implications, Backtracks int
}

// Progress is a per-fault-class snapshot of a running generation
// campaign: Done counts finished generation attempts in the class
// (including faults skipped because an earlier vector already dropped
// them), Covered the class faults covered so far, Untestable the ones
// given up on, and Vectors the total vector applications the test set
// requires so far (across all classes). Snapshots are monotone within
// a class and classes run in order: stuck_at, polarity, channel_break.
//
// Faults are dropped lazily: a fault is checked when the loop reaches
// it, so Covered never counts a fault ahead of Done. On stuck_at
// frames it counts the reached faults an earlier pattern detects; the
// faults PODEM generated for or gave up on are re-checked against the
// class's final pattern set (a later pattern may catch them too) and
// join Covered in the class's last frame, which then equals
// CampaignResult.StuckAtCovered.
type Progress struct {
	Class      string
	Done       int
	Total      int
	Covered    int
	Untestable int
	Vectors    int
}

// ProgressFunc receives campaign snapshots; see Options.Progress.
type ProgressFunc func(Progress)

// Coverage returns the overall covered/targeted ratio in percent.
func (r *CampaignResult) Coverage() float64 {
	targeted := r.StuckAtTargeted + r.PolarityTargeted + r.CBSPTargeted + r.CBDPTargeted
	covered := r.StuckAtCovered + r.PolarityCovered + r.CBSPCovered + r.CBDPCovered
	if targeted == 0 {
		return 0
	}
	return 100 * float64(covered) / float64(targeted)
}

// Generate runs the full ATPG campaign for the given fault list:
// PODEM for line stuck-at faults (with fault dropping through parallel-
// pattern fault simulation), polarity-fault generation with the IDDQ
// fallback, classical two-pattern generation for channel breaks in SP
// gates, and the paper's procedure for channel breaks in DP gates.
func Generate(c *logic.Circuit, faults []core.Fault, opt Options) *CampaignResult {
	res, _ := GenerateContext(context.Background(), c, faults, opt)
	return res
}

// GenerateContext is Generate with cooperative cancellation: the context
// is checked between per-fault generation attempts (one PODEM search or
// one polarity/channel-break procedure is the unit of work). On
// cancellation it returns the partial result accumulated so far together
// with the context's error, so long-running service campaigns can be
// abandoned at a per-job deadline without losing accounting. One PODEM
// generator serves the whole campaign: it implies on the fault-dropping
// simulator's compiled circuit, resolves gates through its name index
// and reuses one set of search slices for every attempt.
//
// Fault dropping is lazy. Each class keeps its generated vectors in a
// faultsim.DropSet, and when the loop reaches a fault it asks the set
// once whether any vector generated so far detects it; if so, the
// fault needs no vector of its own. Whether a fault is dropped depends
// only on the vectors generated before it, not on when that is
// checked, so each fault is simulated once, against all those vectors
// in full lane blocks.
func GenerateContext(ctx context.Context, c *logic.Circuit, faults []core.Fault, opt Options) (*CampaignResult, error) {
	sim := faultsim.New(c)
	sim.Engine = opt.Engine
	return newGenerator(sim, opt).generate(ctx, faults)
}

// generate is GenerateContext's campaign loop on one generator.
func (g *generator) generate(ctx context.Context, faults []core.Fault) (*CampaignResult, error) {
	res := &CampaignResult{}
	sim, c, opt := g.sim, g.cc.C, g.opt
	defer func() { res.Implications, res.Backtracks = g.implications, g.backtracks }()

	// report emits one per-class snapshot after each generation attempt.
	classUntestable := 0
	report := func(class string, done, total, covered int) {
		if opt.Progress == nil {
			return
		}
		opt.Progress(Progress{
			Class:      class,
			Done:       done,
			Total:      total,
			Covered:    covered,
			Untestable: classUntestable,
			Vectors:    res.Set.TotalVectors(),
		})
	}
	untestable := func(f core.Fault) {
		res.Untestable = append(res.Untestable, f)
		classUntestable++
	}

	saFaults, polFaults, cbFaults := splitClasses(faults)

	// --- Line stuck-at faults. ---
	res.StuckAtTargeted = len(saFaults)
	saDrops := sim.StuckAtDrops()
	defer saDrops.Close()
	// recheck holds the faults PODEM generated for or gave up on: a
	// pattern generated after them may detect them too.
	var recheck []core.Fault
	covered := 0
	report("stuck_at", 0, len(saFaults), 0)
	for i, f := range saFaults {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if saDrops.Detects(f) {
			covered++
		} else if pat, ok := g.stuckAt(f); ok {
			res.Set.Patterns = append(res.Set.Patterns, pat)
			saDrops.Add(pat)
			recheck = append(recheck, f)
		} else {
			untestable(f)
			recheck = append(recheck, f)
		}
		if i+1 < len(saFaults) {
			report("stuck_at", i+1, len(saFaults), covered)
		}
	}
	for _, f := range recheck {
		if saDrops.Detects(f) {
			covered++
		}
	}
	res.StuckAtCovered = covered
	if len(saFaults) > 0 {
		report("stuck_at", len(saFaults), len(saFaults), covered)
	}

	// --- Polarity faults: a fault a voltage pattern generated so far
	// (the stuck-at patterns included) already catches needs no
	// dedicated vector. IDDQ patterns are not voltage observations and
	// stay out of the drop set. ---
	res.PolarityTargeted = len(polFaults)
	polDrops := sim.VoltageDrops()
	defer polDrops.Close()
	for _, p := range res.Set.Patterns {
		polDrops.Add(p)
	}
	classUntestable = 0
	report("polarity", 0, len(polFaults), 0)
	for i, f := range polFaults {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if polDrops.Detects(f) {
			res.PolarityCovered++
		} else if t, ok := g.polarity(f); !ok {
			untestable(f)
		} else {
			res.PolarityCovered++
			if t.Method == faultsim.ByIDDQ {
				res.Set.IDDQPatterns = append(res.Set.IDDQPatterns, t.Pattern)
			} else {
				res.Set.Patterns = append(res.Set.Patterns, t.Pattern)
				polDrops.Add(t.Pattern)
			}
		}
		report("polarity", i+1, len(polFaults), res.PolarityCovered)
	}

	// --- Channel breaks: an SP break an earlier generated pair already
	// exposes needs no dedicated two-pattern test; DP breaks are tested
	// by plans, not pairs. ---
	cbDrops := sim.PairDrops()
	defer cbDrops.Close()
	classUntestable = 0
	report("channel_break", 0, len(cbFaults), 0)
	for i, f := range cbFaults {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		gi, ok := sim.GateIndex(f.Gate)
		switch {
		case !ok:
			untestable(f)
		case gates.Get(c.Gates[gi].Kind).Class == gates.DynamicPolarity:
			res.CBDPTargeted++
			if plan, ok := g.channelBreakDP(f); ok {
				res.CBDPCovered++
				res.Set.CBPlans = append(res.Set.CBPlans, plan)
			} else {
				untestable(f)
			}
		default:
			res.CBSPTargeted++
			if cbDrops.Detects(f) {
				res.CBSPCovered++
			} else if tp, ok := g.twoPattern(f); ok {
				res.CBSPCovered++
				res.Set.TwoPattern = append(res.Set.TwoPattern, tp)
				cbDrops.AddPair(tp.Init, tp.Test)
			} else {
				untestable(f)
			}
		}
		report("channel_break", i+1, len(cbFaults), res.CBSPCovered+res.CBDPCovered)
	}
	return res, nil
}

// splitClasses splits a fault list into the classes generate targets,
// each in list order: line stuck-at, polarity and channel-break faults.
// It counts first, so each list is allocated once at its final size.
func splitClasses(faults []core.Fault) (sa, pol, cb []core.Fault) {
	nSA, nPol, nCB := 0, 0, 0
	for _, f := range faults {
		switch {
		case f.Kind.IsLineFault():
			nSA++
		case f.Kind.IsPolarityFault():
			nPol++
		case f.Kind == core.FaultChannelBreak:
			nCB++
		}
	}
	sa, pol, cb = make([]core.Fault, 0, nSA), make([]core.Fault, 0, nPol), make([]core.Fault, 0, nCB)
	for _, f := range faults {
		switch {
		case f.Kind.IsLineFault():
			sa = append(sa, f)
		case f.Kind.IsPolarityFault():
			pol = append(pol, f)
		case f.Kind == core.FaultChannelBreak:
			cb = append(cb, f)
		}
	}
	return sa, pol, cb
}
