package service

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

// ShardedOptions configures one campaign execution.
type ShardedOptions struct {
	// Key is the campaign's content address (CanonicalKey over the
	// normalized request); sub-job keys derive from it. Required when
	// Store is set, so cached shards can never cross campaigns.
	Key string
	// Shards is the requested sub-job count; 0 auto-sizes from the
	// circuit gate count and fault population, 1 is the single-shot
	// run. Clamped to the fault population and shard.MaxShards either
	// way.
	Shards int
	// Store, when set, serves already-computed shards without
	// re-simulation and persists fresh ones for the next run.
	Store *resultstore.Store
	// Retries re-attempts a failed shard before quarantining it.
	Retries int
	// Draining, when closed, lets in-flight shards finish, abandons the
	// unstarted remainder and fails the run with shard.ErrDraining (the
	// campaign is resumable: finished shards persisted to Store).
	Draining <-chan struct{}
	// Events receives scheduler lifecycle callbacks (all optional).
	Events shard.Events
	// OnCacheHit fires for each shard answered from the result store.
	// Like the Events callbacks it runs on scheduler goroutines, so it
	// must be safe for concurrent use.
	OnCacheHit func(shard.SubJob)
}

// shardEnv is the immutable per-campaign state every shard attempt
// shares: the circuit, pattern set and full fault universes the sub-job
// ranges index into.
type shardEnv struct {
	c        *logic.Circuit
	engine   faultsim.Engine
	pats     []faultsim.Pattern
	saFaults []core.Fault
	trFaults []core.Fault
	bridges  []core.Bridge
	iddq     bool
	// workers is each shard's transistor-sweep worker count.
	workers int
	ro      *RunObserver
	agg     *shardAgg
}

// shardStages are the per-shard simulation stages in execution order.
var shardStages = []string{"stuck_at", "transistor", "transistor_iddq", "bridges"}

// shardAgg aggregates per-shard progress into campaign-level snapshots:
// each class keeps one slot per shard, summed on every emit, so the SSE
// stream shows the whole campaign advancing rather than one shard's
// private counters. Every slot counts faults (bridges on the bridge
// stage), so a frame's total is the class universe from the first
// frame on, and a finished slot, simulated or store-served, counts its
// whole range done. Frames go out under the lock: the observer
// contract is serialized delivery (and its callback never re-enters
// the campaign), which also keeps each class monotone.
type shardAgg struct {
	progress func(JobProgress)
	shards   int

	mu      sync.Mutex
	done    int // finished sub-jobs
	classes map[string]*classAgg
}

type classAgg struct {
	stage                   string
	faults                  int // class universe: the total and coverage denominator
	done, detected, dropped []int
	evals                   []uint64
}

func newShardAgg(progress func(JobProgress), shards int, env *shardEnv) *shardAgg {
	a := &shardAgg{progress: progress, shards: shards, classes: map[string]*classAgg{}}
	add := func(stage string, faults int) {
		a.classes[stage] = &classAgg{
			stage:  stage,
			faults: faults,
			done:   make([]int, shards), detected: make([]int, shards), dropped: make([]int, shards),
			evals: make([]uint64, shards),
		}
	}
	if env.saFaults != nil {
		add("stuck_at", len(env.saFaults))
	}
	if env.trFaults != nil {
		add("transistor", len(env.trFaults))
		if env.iddq {
			add("transistor_iddq", len(env.trFaults))
		}
	}
	if env.bridges != nil {
		add("bridges", len(env.bridges))
	}
	return a
}

// note records one shard's latest engine snapshot for a class and
// emits the aggregate.
func (a *shardAgg) note(ca *classAgg, idx int, p faultsim.Progress) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// A retried shard counts again from zero; its slot holds its best.
	ca.done[idx] = max(ca.done[idx], p.Done)
	ca.detected[idx], ca.dropped[idx], ca.evals[idx] = p.Detected, p.Dropped, p.GateEvals
	a.emitLocked(ca)
}

// complete folds a finished shard in, simulated or store-served: each
// of its class slots counts its whole range done, with the detections
// its records hold, and every class it carries emits a frame.
func (a *shardAgg) complete(j shard.SubJob, out *shard.Output) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done++
	for i, part := range []*shard.Part{out.StuckAt, out.TransistorV, out.TransistorIQ, out.Bridges} {
		ca, ok := a.classes[shardStages[i]]
		if part == nil || !ok {
			continue
		}
		n := 0
		for _, d := range part.Dets {
			if d.Detected() {
				n++
			}
		}
		for _, d := range part.Bridges {
			if d.Detected {
				n++
			}
		}
		ca.done[j.Index], ca.detected[j.Index] = part.Range.Len(), n
		a.emitLocked(ca)
	}
}

func (a *shardAgg) emitLocked(ca *classAgg) {
	if a.progress == nil {
		return
	}
	p := JobProgress{Stage: ca.stage, Total: ca.faults, Faults: ca.faults, Shards: a.shards, ShardsDone: a.done}
	for i := 0; i < a.shards; i++ {
		p.Done += ca.done[i]
		p.Detected += ca.detected[i]
		p.Dropped += ca.dropped[i]
		p.GateEvals += ca.evals[i]
	}
	a.progress(p)
}

// shardWorkers divides the campaign's worker budget (the request's
// Workers, else GOMAXPROCS) among its shards, which all run at once, so
// a lone shard sweeps with all of it.
func shardWorkers(budget, shards int) int {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	return max(1, budget/shards)
}

// RunCampaignSharded executes one normalized campaign; it is the only
// campaign implementation. The campaign becomes a plan of
// content-addressed sub-jobs over contiguous fault ranges (one sub-job
// is the single-shot run), then the shard results merge in fault
// order, ATPG runs once, the fault dictionary is built and the report
// rendered. The report does not depend on the shard count (ElapsedMS
// and the dictionary timestamp aside): the shard differential tests
// and the report goldens pin this. Shards already in opt.Store are
// served without simulation; fresh shards persist there for the next
// run.
func RunCampaignSharded(ctx context.Context, c *logic.Circuit, req CampaignRequest, opt ShardedOptions, ro *RunObserver) (*CampaignReport, error) {
	if ro == nil {
		ro = &RunObserver{}
	}
	start := time.Now()

	engine, err := faultsim.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	if opt.Store != nil && !resultstore.ValidKey(opt.Key) {
		return nil, fmt.Errorf("sharded campaign with a result store needs a canonical campaign key, got %q", opt.Key)
	}

	patSpan, endPatterns := ro.stage(ro.Span, "patterns")
	pats := BuildPatterns(c, req.Patterns, req.Seed)
	patSpan.SetAttr("count", strconv.Itoa(len(pats)))
	endPatterns(nil)

	env := &shardEnv{c: c, engine: engine, pats: pats, iddq: req.Faults.IDDQ, ro: ro}
	if req.Faults.StuckAt {
		env.saFaults = core.Universe(c, core.ClassicalOnly())
	}
	if uopt := transistorUniverse(req.Faults); uopt.ChannelBreak || uopt.StuckOn || uopt.Polarity {
		env.trFaults = core.Universe(c, uopt)
	}
	if req.Faults.Bridges {
		env.bridges = core.NeighborBridges(c, req.Faults.BridgeWindow)
	}

	wantDict := ro.Dict != nil && ro.DictKey != ""
	k := opt.Shards
	if k <= 0 {
		k = shard.AutoShards(len(c.Gates), len(env.saFaults)+len(env.trFaults)+len(env.bridges))
	}
	plan := shard.NewPlan(opt.Key, k, len(env.saFaults), len(env.trFaults), len(env.bridges), wantDict)
	ro.Span.SetAttr("shards", strconv.Itoa(plan.Total))
	env.agg = newShardAgg(ro.Progress, plan.Total, env)
	env.workers = shardWorkers(req.Workers, plan.Total)

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

	simSpan, endSimulate := ro.stage(ro.Span, "simulate")
	outs, err := env.runShards(ctx, plan, opt, simSpan)
	if err == nil && req.ATPG {
		rep.ATPG, err = runATPG(ctx, c, req, engine, plan.Total, ro, simSpan)
	}
	endSimulate(err)
	if err != nil {
		return nil, err
	}

	mergeSpan, endMerge := ro.stage(ro.Span, "merge")
	mergeSpan.SetAttr("shards", strconv.Itoa(plan.Total))
	saSig, trSig, err := env.merge(rep, outs, wantDict)
	endMerge(err)
	if err != nil {
		return nil, err
	}

	if saSig != nil || trSig != nil {
		dictSpan, endDict := ro.stage(ro.Span, "dictionary")
		rep.Dictionary, err = env.buildDictionary(dictSpan, req.Seed, saSig, trSig)
		endDict(err)
		if err != nil {
			return nil, err
		}
	}

	_, endReport := ro.stage(ro.Span, "report")
	rep.Tables = buildTables(rep)
	endReport(nil)
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep, nil
}

// runShards schedules the plan's sub-jobs, each attempt under its own
// "shard" span, and returns their results in plan order. A sub-job
// already in opt.Store is decoded from it instead of simulated; a
// fresh result is encoded into it.
func (env *shardEnv) runShards(ctx context.Context, plan *shard.Plan, opt ShardedOptions, parent *obs.Span) ([]*shard.Output, error) {
	outs := make([]*shard.Output, plan.Total)
	attempt := func(ctx context.Context, j shard.SubJob) error {
		sp := parent.Child("shard")
		defer sp.End()
		sp.SetAttr("index", fmt.Sprintf("%d/%d", j.Index, j.Total))
		sp.SetAttr("key", j.Key)
		if opt.Store != nil {
			var stored shard.Result
			if err := opt.Store.Get(resultstore.KindShard, j.Key, &stored); err == nil {
				// A stored artifact that does not answer this sub-job
				// (corruption, a key scheme change) is treated as a miss
				// and overwritten by the fresh run below.
				if out, err := stored.Decode(j, env.saFaults, env.trFaults, env.bridges, env.iddq, len(env.pats)); err == nil {
					sp.SetAttr("cache", "hit")
					outs[j.Index] = out
					if opt.OnCacheHit != nil {
						opt.OnCacheHit(j)
					}
					env.agg.complete(j, out)
					return nil
				}
				sp.SetAttr("cache", "mismatch")
			}
		}
		out, err := env.runShardJob(ctx, j, sp)
		if err != nil {
			sp.SetAttr("error", err.Error())
			return err
		}
		if opt.Store != nil {
			if _, err := opt.Store.Put(resultstore.KindShard, j.Key, out.Encode(j, opt.Key)); err != nil {
				// Persistence failure costs the next run a re-simulation;
				// it must not fail this one.
				sp.SetAttr("store_error", err.Error())
			}
		}
		outs[j.Index] = out
		env.agg.complete(j, out)
		return nil
	}
	sched := &shard.Scheduler{Retries: opt.Retries, Draining: opt.Draining}
	return outs, sched.Run(ctx, plan.Jobs, attempt, opt.Events)
}

// runShardJob simulates one sub-job's fault slices on a private
// simulator (capture sinks and progress hooks are simulator state, so
// concurrent shards cannot share one), each class under its stage span
// below the shard's.
func (env *shardEnv) runShardJob(ctx context.Context, j shard.SubJob, sp *obs.Span) (*shard.Output, error) {
	ro := env.ro
	sim := faultsim.New(env.c)
	sim.Engine = env.engine
	// The simulator names its own stages, but the voltage-only and +IDDQ
	// sweeps both run under "transistor": only the shard can tell them
	// apart, so it points the progress hook at the running class.
	var current *classAgg
	if ro.Progress != nil {
		sim.Progress = func(p faultsim.Progress) { env.agg.note(current, j.Index, p) }
	}

	_, endCompile := ro.stage(sp, "compile")
	sim.EnsureCompiled()
	endCompile(nil)

	// runClass sweeps one fault class's slice under its stage span,
	// capturing signatures into the part when asked.
	runClass := func(stage string, universe []core.Fault, r shard.Range, capture bool,
		sweep func([]core.Fault) ([]faultsim.Detection, error)) (*shard.Part, error) {
		current = env.agg.classes[stage]
		_, end := ro.stage(sp, stage)
		part := &shard.Part{Range: r}
		if capture {
			part.Sig = faultsim.NewSignatureCapture(r.Len(), len(env.pats))
			sim.Signatures = part.Sig
		}
		var err error
		part.Dets, err = sweep(universe[r.Start:r.End])
		sim.Signatures = nil
		end(err)
		return part, err
	}

	out := &shard.Output{}
	var err error
	if env.saFaults != nil {
		out.StuckAt, err = runClass("stuck_at", env.saFaults, j.StuckAt, j.Capture, func(faults []core.Fault) ([]faultsim.Detection, error) {
			return sim.RunStuckAtContext(ctx, faults, env.pats)
		})
		if err != nil {
			return nil, err
		}
	}
	if env.trFaults != nil {
		// The dictionary's leak plane needs the +IDDQ sweep; without IDDQ
		// the voltage sweep carries the (identical) output plane.
		out.TransistorV, err = runClass("transistor", env.trFaults, j.Transistor, j.Capture && !env.iddq, func(faults []core.Fault) ([]faultsim.Detection, error) {
			return sim.RunTransistorParallel(ctx, faults, env.pats, false, env.workers)
		})
		if err != nil {
			return nil, err
		}
		if env.iddq {
			out.TransistorIQ, err = runClass("transistor_iddq", env.trFaults, j.Transistor, j.Capture, func(faults []core.Fault) ([]faultsim.Detection, error) {
				return sim.RunTransistorParallel(ctx, faults, env.pats, true, env.workers)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	if env.bridges != nil {
		current = env.agg.classes["bridges"]
		_, end := ro.stage(sp, "bridges")
		ds, err := sim.RunBridgesObserved(ctx, env.bridges[j.Bridges.Start:j.Bridges.End], env.pats, env.iddq)
		end(err)
		if err != nil {
			return nil, err
		}
		out.Bridges = &shard.Part{Range: j.Bridges, Bridges: ds}
	}
	return out, nil
}

// merge fills the report's coverage blocks from the shard results and,
// when the plan captured signatures, returns the stuck-at and
// transistor captures the fault dictionary is built from.
func (env *shardEnv) merge(rep *CampaignReport, outs []*shard.Output, capture bool) (saSig, trSig *faultsim.SignatureCapture, err error) {
	parts := func(pick func(*shard.Output) *shard.Part) []*shard.Part {
		ps := make([]*shard.Part, len(outs))
		for i, o := range outs {
			ps[i] = pick(o)
		}
		return ps
	}
	faultClass := func(universe []core.Fault, pick func(*shard.Output) *shard.Part, sig bool) (*CoverageJSON, *faultsim.SignatureCapture, error) {
		ps := parts(pick)
		ds, err := shard.MergeDetections(len(universe), ps)
		if err != nil {
			return nil, nil, err
		}
		var merged *faultsim.SignatureCapture
		if sig {
			if merged, err = shard.MergeSignatures(len(universe), len(env.pats), ps); err != nil {
				return nil, nil, err
			}
		}
		return coverageJSON(faultsim.Summarise(ds)), merged, nil
	}
	if env.saFaults != nil {
		if rep.StuckAt, saSig, err = faultClass(env.saFaults, func(o *shard.Output) *shard.Part { return o.StuckAt }, capture); err != nil {
			return nil, nil, err
		}
	}
	if env.trFaults != nil {
		if rep.Transistor, trSig, err = faultClass(env.trFaults, func(o *shard.Output) *shard.Part { return o.TransistorV }, capture && !env.iddq); err != nil {
			return nil, nil, err
		}
		if env.iddq {
			if rep.TransistorIDDQ, trSig, err = faultClass(env.trFaults, func(o *shard.Output) *shard.Part { return o.TransistorIQ }, capture); err != nil {
				return nil, nil, err
			}
		}
	}
	if env.bridges != nil {
		ds, err := shard.MergeBridgeDetections(len(env.bridges), parts(func(o *shard.Output) *shard.Part { return o.Bridges }))
		if err != nil {
			return nil, nil, err
		}
		rep.Bridges = coverageJSON(faultsim.BridgeCoverage(ds))
	}
	return saSig, trSig, nil
}

// buildDictionary persists the campaign's fault dictionary under
// ro.DictKey: one entry per stuck-at fault (output plane only) and per
// transistor fault (with the leak plane when the campaign observes
// IDDQ), in universe order. It returns the report section.
func (env *shardEnv) buildDictionary(sp *obs.Span, seed int64, saSig, trSig *faultsim.SignatureCapture) (*DictionaryJSON, error) {
	n := len(env.pats)
	d := &dict.Dictionary{Meta: dict.Meta{
		Key:       env.ro.DictKey,
		Circuit:   env.c.Name,
		Patterns:  n,
		Seed:      seed,
		Engine:    env.engine.String(),
		IDDQ:      env.iddq,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}}
	addEntries := func(faults []core.Fault, capture *faultsim.SignatureCapture, leak bool) {
		for i := range faults {
			e := dict.Entry{
				Fault: faults[i].String(),
				Out:   dict.FromWords(n, capture.Out(i)),
				Leak:  dict.NewBitset(n),
			}
			if leak {
				e.Leak = dict.FromWords(n, capture.Leak(i))
			}
			d.Entries = append(d.Entries, e)
		}
	}
	if saSig != nil {
		addEntries(env.saFaults, saSig, false)
	}
	if trSig != nil {
		addEntries(env.trFaults, trSig, env.iddq)
	}
	_, size, err := env.ro.Dict.Put(d)
	if err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	sp.SetAttr("entries", strconv.Itoa(len(d.Entries)))
	sp.SetAttr("bytes", strconv.FormatInt(size, 10))
	return &DictionaryJSON{
		Key:                 d.Meta.Key,
		Entries:             d.Meta.Entries,
		Patterns:            d.Meta.Patterns,
		IDDQ:                d.Meta.IDDQ,
		CompressedBytes:     size,
		Detected:            d.Meta.Resolution.Detected,
		Classes:             d.Meta.Resolution.Classes,
		UniquelyDiagnosable: d.Meta.Resolution.UniquelyDiagnosable,
	}, nil
}
