package atpg

import (
	"context"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

// TestSet is the full output of a generation campaign over the extended
// CP fault model.
type TestSet struct {
	// Combinational voltage-observed patterns (stuck-at + output-
	// detectable polarity faults).
	Patterns []faultsim.Pattern
	// IDDQ measurement patterns (leak-only polarity faults).
	IDDQPatterns []faultsim.Pattern
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
	// dense implication steps (one good-circuit pass, plus one faulty
	// pass when the attempt propagates a fault effect), Backtracks the
	// decisions undone.
	Implications, Backtracks int
}

// Progress is a per-fault-class snapshot of a running generation
// campaign: Done counts finished generation attempts in the class
// (including faults skipped because an earlier vector already dropped
// them), Covered the class faults covered so far, Untestable the ones
// given up on, and Vectors the total vector applications the test set
// requires so far (across all classes). Snapshots are monotone within
// a class and classes run in order: stuck_at, polarity, channel_break.
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
func GenerateContext(ctx context.Context, c *logic.Circuit, faults []core.Fault, opt Options) (*CampaignResult, error) {
	res := &CampaignResult{}
	sim := faultsim.New(c)
	sim.Engine = opt.Engine
	gen := newGenerator(sim, opt)
	defer func() { res.Implications, res.Backtracks = gen.implications, gen.backtracks }()

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

	// --- Line stuck-at faults with fault dropping. ---
	var saFaults []core.Fault
	for _, f := range faults {
		if f.Kind.IsLineFault() {
			saFaults = append(saFaults, f)
		}
	}
	res.StuckAtTargeted = len(saFaults)
	detected := make([]bool, len(saFaults))
	// undetected lists the faults no generated pattern catches yet, in
	// list order: fault dropping re-simulates only those.
	undetected := make([]int, len(saFaults))
	for i := range undetected {
		undetected[i] = i
	}
	var sub []core.Fault
	covered := 0
	report("stuck_at", 0, len(saFaults), 0)
	for i, f := range saFaults {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if detected[i] {
			report("stuck_at", i+1, len(saFaults), covered)
			continue
		}
		pat, ok := gen.stuckAt(f)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			classUntestable++
			report("stuck_at", i+1, len(saFaults), covered)
			continue
		}
		res.Set.Patterns = append(res.Set.Patterns, pat)
		// Fault dropping: mark everything the new pattern catches.
		sub = sub[:0]
		for _, j := range undetected {
			sub = append(sub, saFaults[j])
		}
		ds, err := sim.RunStuckAtContext(ctx, sub, []faultsim.Pattern{pat})
		if err != nil {
			return res, err
		}
		keep := undetected[:0]
		for k, j := range undetected {
			if ds[k].Detected() {
				detected[j] = true
				covered++
			} else {
				keep = append(keep, j)
			}
		}
		undetected = keep
		report("stuck_at", i+1, len(saFaults), covered)
	}
	for _, d := range detected {
		if d {
			res.StuckAtCovered++
		}
	}

	// --- Polarity faults, with fault dropping: a polarity fault the
	// voltage patterns generated so far already catch needs no dedicated
	// vector. The check runs through the simulator's engine (the
	// packed lane-block engine by default) and is incremental — one
	// batched pass over the stuck-at patterns, then one single-pattern
	// pass per newly generated vector — so good baselines are never
	// recomputed per fault.
	var polFaults []core.Fault
	for _, f := range faults {
		if f.Kind.IsPolarityFault() {
			polFaults = append(polFaults, f)
		}
	}
	res.PolarityTargeted = len(polFaults)
	polDetected := make([]bool, len(polFaults))
	markDetected := func(from int, patterns []faultsim.Pattern) {
		// Only still-undetected, well-formed faults are worth
		// re-simulating: malformed entries (unknown gate/transistor)
		// would fail the whole batch, so they are filtered here and
		// simply stay undropped — generation decides their fate. The
		// single-worker parallel entry point threads the campaign
		// context through the engine, so per-job deadlines cancel the
		// drop pass too; its only remaining error is cancellation,
		// which the caller's ctx check picks up.
		var idxs []int
		var sub []core.Fault
		for i := from; i < len(polFaults); i++ {
			if polDetected[i] {
				continue
			}
			f := polFaults[i]
			gi, ok := sim.GateIndex(f.Gate)
			if !ok || gates.Get(c.Gates[gi].Kind).Transistor(f.Transistor) == nil {
				continue
			}
			idxs = append(idxs, i)
			sub = append(sub, f)
		}
		if len(sub) == 0 || len(patterns) == 0 {
			return
		}
		ds, err := sim.RunTransistorParallel(ctx, sub, patterns, false, 1)
		if err != nil {
			return
		}
		for j, d := range ds {
			if d.Detected() {
				polDetected[idxs[j]] = true
			}
		}
	}
	markDetected(0, res.Set.Patterns)
	classUntestable = 0
	report("polarity", 0, len(polFaults), 0)
	for i, f := range polFaults {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if polDetected[i] {
			res.PolarityCovered++
			report("polarity", i+1, len(polFaults), res.PolarityCovered)
			continue
		}
		t, ok := gen.polarity(f)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			classUntestable++
			report("polarity", i+1, len(polFaults), res.PolarityCovered)
			continue
		}
		res.PolarityCovered++
		if t.Method == faultsim.ByIDDQ {
			res.Set.IDDQPatterns = append(res.Set.IDDQPatterns, t.Pattern)
		} else {
			res.Set.Patterns = append(res.Set.Patterns, t.Pattern)
			markDetected(i+1, res.Set.Patterns[len(res.Set.Patterns)-1:])
		}
		report("polarity", i+1, len(polFaults), res.PolarityCovered)
	}

	// --- Channel breaks. ---
	var cbFaults []core.Fault
	for _, f := range faults {
		if f.Kind == core.FaultChannelBreak {
			cbFaults = append(cbFaults, f)
		}
	}
	// Fault dropping for SP channel breaks: a break an earlier generated
	// pair already exposes needs no dedicated two-pattern test. The check
	// runs the newly generated pair through the simulator's two-pattern
	// engine (context-threaded, so per-job deadlines cancel the drop pass
	// too; its only error is cancellation, which the per-fault ctx check
	// picks up).
	cbDropped := make([]bool, len(cbFaults))
	markCBDetected := func(from int, pair [2]faultsim.Pattern) {
		var idxs []int
		var sub []core.Fault
		for i := from; i < len(cbFaults); i++ {
			if cbDropped[i] {
				continue
			}
			f := cbFaults[i]
			gi, ok := sim.GateIndex(f.Gate)
			if !ok || gates.Get(c.Gates[gi].Kind).Class == gates.DynamicPolarity {
				continue // DP breaks are tested by plans, not pairs
			}
			idxs = append(idxs, i)
			sub = append(sub, f)
		}
		if len(sub) == 0 {
			return
		}
		ds, err := sim.RunTwoPatternContext(ctx, sub, [][2]faultsim.Pattern{pair})
		if err != nil {
			return
		}
		for j, d := range ds {
			if d.Detected() {
				cbDropped[idxs[j]] = true
			}
		}
	}
	classUntestable = 0
	report("channel_break", 0, len(cbFaults), 0)
	for i, f := range cbFaults {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		cbCovered := res.CBSPCovered + res.CBDPCovered
		gi, ok := sim.GateIndex(f.Gate)
		if !ok {
			res.Untestable = append(res.Untestable, f)
			classUntestable++
			report("channel_break", i+1, len(cbFaults), cbCovered)
			continue
		}
		if gates.Get(c.Gates[gi].Kind).Class == gates.DynamicPolarity {
			res.CBDPTargeted++
			plan, ok := gen.channelBreakDP(f)
			if !ok {
				res.Untestable = append(res.Untestable, f)
				classUntestable++
				report("channel_break", i+1, len(cbFaults), cbCovered)
				continue
			}
			res.CBDPCovered++
			res.Set.CBPlans = append(res.Set.CBPlans, plan)
		} else {
			res.CBSPTargeted++
			if cbDropped[i] {
				res.CBSPCovered++
				report("channel_break", i+1, len(cbFaults), cbCovered+1)
				continue
			}
			tp, ok := gen.twoPattern(f)
			if !ok {
				res.Untestable = append(res.Untestable, f)
				classUntestable++
				report("channel_break", i+1, len(cbFaults), cbCovered)
				continue
			}
			res.CBSPCovered++
			res.Set.TwoPattern = append(res.Set.TwoPattern, tp)
			markCBDetected(i+1, [2]faultsim.Pattern{tp.Init, tp.Test})
		}
		report("channel_break", i+1, len(cbFaults), res.CBSPCovered+res.CBDPCovered)
	}
	return res, nil
}
