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
	// re-simulation and persists fresh ones for the next run. Plans of
	// one shard leave it untouched: the caller persists the report.
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
// shares: the prepared circuit, the pattern set, and the full fault
// universes the sub-job ranges index into, with their fault names.
type shardEnv struct {
	p        *preparedCircuit
	engine   faultsim.Engine
	pats     *faultsim.PatternSet
	saFaults []core.Fault
	trFaults []core.Fault
	saNames  []string
	trNames  []string
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

// shardWorkers divides the campaign's worker budget among its shards,
// which all run at once, so a lone shard sweeps with all of it. The
// budget is the request's Workers clamped to GOMAXPROCS, and GOMAXPROCS
// when unset: each packed worker allocates a scratch sized by the
// circuit's nets, and workers past the CPU count add none of the speed.
// Neither the results nor the cache key depend on it.
func shardWorkers(budget, shards int) int {
	if procs := runtime.GOMAXPROCS(0); budget <= 0 || budget > procs {
		budget = procs
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
// and the report goldens pin this. In plans of two or more shards,
// shards already in opt.Store are served without simulation and fresh
// shards persist there for the next run. The circuit is prepared
// privately (runPrepared); the service's manager runs its memoized
// entries through the same code.
func RunCampaignSharded(ctx context.Context, c *logic.Circuit, req CampaignRequest, opt ShardedOptions, ro *RunObserver) (*CampaignReport, error) {
	return runPrepared(ctx, newPrepared(c), req, opt, ro)
}

// runPrepared is RunCampaignSharded on a prepared circuit: the campaign
// reads the entry's fault universes, names and bridges, built once per
// circuit, and runs its shards on the entry's pooled simulators.
func runPrepared(ctx context.Context, p *preparedCircuit, req CampaignRequest, opt ShardedOptions, ro *RunObserver) (*CampaignReport, error) {
	c := p.c
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
	pats := buildPatternSet(c, req.Patterns, req.Seed)
	patSpan.SetAttr("count", strconv.Itoa(pats.Len()))
	endPatterns(nil)

	env := &shardEnv{p: p, engine: engine, pats: pats, iddq: req.Faults.IDDQ, ro: ro}
	// One universe holds the line faults, then the transistor faults;
	// each enabled class reads its half (nil when empty, as
	// core.Universe returns an empty class).
	u := p.universe(req.Faults)
	if f := req.Faults; f.StuckAt && u.lines > 0 {
		env.saFaults, env.saNames = u.faults[:u.lines], u.names[:u.lines]
	}
	if f := req.Faults; (f.StuckOpen || f.StuckOn || f.Polarity) && len(u.faults) > u.lines {
		env.trFaults, env.trNames = u.faults[u.lines:], u.names[u.lines:]
	}
	if req.Faults.Bridges {
		env.bridges = p.neighborBridges(req.Faults.BridgeWindow)
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
		Patterns: pats.Len(),
		Engine:   engine.String(),
	}

	simSpan, endSimulate := ro.stage(ro.Span, "simulate")
	outs, err := env.runShards(ctx, plan, opt, simSpan)
	if err == nil && req.ATPG {
		// The joint universe is the line faults followed by the
		// transistor faults: the universe both halves slice.
		rep.ATPG, err = runATPG(ctx, c, u.faults, engine, plan.Total, ro, simSpan)
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
// "shard" span, and returns their results in plan order. In a plan of
// two or more shards, a sub-job already in opt.Store is decoded from it
// instead of simulated, and a fresh result is encoded into it. A
// one-shard plan skips the store: its lone shard is the whole campaign,
// whose unit of reuse is the merged report.
func (env *shardEnv) runShards(ctx context.Context, plan *shard.Plan, opt ShardedOptions, parent *obs.Span) ([]*shard.Output, error) {
	outs := make([]*shard.Output, plan.Total)
	store := opt.Store
	if plan.Total <= 1 {
		store = nil
	}
	attempt := func(ctx context.Context, j shard.SubJob) error {
		sp := parent.Child("shard")
		defer sp.End()
		sp.SetAttr("index", fmt.Sprintf("%d/%d", j.Index, j.Total))
		sp.SetAttr("key", j.Key)
		if store != nil {
			var stored shard.Result
			if err := store.Get(resultstore.KindShard, j.Key, &stored); err == nil {
				// A stored artifact that does not answer this sub-job
				// (corruption, a key scheme change) is treated as a miss
				// and overwritten by the fresh run below.
				if out, err := stored.Decode(j, env.saFaults, env.trFaults, env.bridges, env.iddq, env.pats.Len()); err == nil {
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
		if store != nil {
			if _, err := store.Put(resultstore.KindShard, j.Key, out.Encode(j, opt.Key)); err != nil {
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

// runShardJob simulates one sub-job's fault slices on a simulator of
// its own from the circuit's pool (capture sinks and progress hooks are
// simulator state, so concurrent shards cannot share one; pooled, its
// packed scratches stay warm across campaigns), each class under its
// stage span below the shard's. One transistor sweep answers both
// transistor classes: under IDDQ observation RunTransistorBoth returns
// the voltage-only and +IDDQ detections together, so transistor_iddq
// has no stage or span of its own and its progress frame comes when the
// shard completes.
func (env *shardEnv) runShardJob(ctx context.Context, j shard.SubJob, sp *obs.Span) (*shard.Output, error) {
	ro := env.ro
	sim := env.p.simulator(env.engine)
	defer env.p.release(sim)
	var current *classAgg
	if ro.Progress != nil {
		sim.Progress = func(p faultsim.Progress) { env.agg.note(current, j.Index, p) }
	}

	_, endCompile := ro.stage(sp, "compile")
	sim.EnsureCompiled()
	endCompile(nil)

	// sweep runs one class's call under its stage span, with a signature
	// capture over the slice r attached when the sub-job captures.
	sweep := func(stage string, r shard.Range, call func() error) (*faultsim.SignatureCapture, error) {
		current = env.agg.classes[stage]
		_, end := ro.stage(sp, stage)
		var sig *faultsim.SignatureCapture
		if j.Capture {
			sig = faultsim.NewSignatureCapture(r.Len(), env.pats.Len())
			sim.Signatures = sig
		}
		err := call()
		sim.Signatures = nil
		end(err)
		return sig, err
	}

	out := &shard.Output{}
	if env.saFaults != nil {
		r := j.StuckAt
		var dets []faultsim.Detection
		sig, err := sweep("stuck_at", r, func() (err error) {
			dets, err = sim.RunStuckAtSet(ctx, env.saFaults[r.Start:r.End], env.pats)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.StuckAt = &shard.Part{Range: r, Dets: dets, Sig: sig}
	}
	if env.trFaults != nil {
		r := j.Transistor
		faults := env.trFaults[r.Start:r.End]
		var v, iq []faultsim.Detection
		sig, err := sweep("transistor", r, func() (err error) {
			if env.iddq {
				v, iq, err = sim.RunTransistorBothSet(ctx, faults, env.pats, env.workers)
			} else {
				v, err = sim.RunTransistorSet(ctx, faults, env.pats, false, env.workers)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		// The dictionary reads its transistor planes from the +IDDQ part
		// (output and leak) when the campaign observes IDDQ, else from
		// the voltage part.
		out.TransistorV = &shard.Part{Range: r, Dets: v}
		if env.iddq {
			out.TransistorIQ = &shard.Part{Range: r, Dets: iq, Sig: sig}
		} else {
			out.TransistorV.Sig = sig
		}
	}
	if env.bridges != nil {
		current = env.agg.classes["bridges"]
		_, end := ro.stage(sp, "bridges")
		ds, err := sim.RunBridgesSet(ctx, env.bridges[j.Bridges.Start:j.Bridges.End], env.pats, env.iddq)
		end(err)
		if err != nil {
			return nil, err
		}
		out.Bridges = &shard.Part{Range: j.Bridges, Dets: ds}
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
	// class merges one class of n faults (or bridges) and renders its
	// coverage, naming undetected faults from names (nil for bridges);
	// with sig it also merges the class's signature capture.
	class := func(n int, names []string, pick func(*shard.Output) *shard.Part, sig bool) (*CoverageJSON, *faultsim.SignatureCapture, error) {
		ps := parts(pick)
		ds, err := shard.MergeDetections(n, ps)
		if err != nil {
			return nil, nil, err
		}
		var merged *faultsim.SignatureCapture
		if sig {
			if merged, err = shard.MergeSignatures(n, env.pats.Len(), ps); err != nil {
				return nil, nil, err
			}
		}
		return coverageJSON(faultsim.Summarise(ds), names), merged, nil
	}
	if env.saFaults != nil {
		if rep.StuckAt, saSig, err = class(len(env.saFaults), env.saNames, func(o *shard.Output) *shard.Part { return o.StuckAt }, capture); err != nil {
			return nil, nil, err
		}
	}
	if env.trFaults != nil {
		if rep.Transistor, trSig, err = class(len(env.trFaults), env.trNames, func(o *shard.Output) *shard.Part { return o.TransistorV }, capture && !env.iddq); err != nil {
			return nil, nil, err
		}
		if env.iddq {
			if rep.TransistorIDDQ, trSig, err = class(len(env.trFaults), env.trNames, func(o *shard.Output) *shard.Part { return o.TransistorIQ }, capture); err != nil {
				return nil, nil, err
			}
		}
	}
	if env.bridges != nil {
		if rep.Bridges, _, err = class(len(env.bridges), nil, func(o *shard.Output) *shard.Part { return o.Bridges }, false); err != nil {
			return nil, nil, err
		}
	}
	return saSig, trSig, nil
}

// buildDictionary persists the campaign's fault dictionary under
// ro.DictKey: one entry per stuck-at fault (output plane only) and per
// transistor fault (with the leak plane when the campaign observes
// IDDQ), in universe order. It returns the report section.
func (env *shardEnv) buildDictionary(sp *obs.Span, seed int64, saSig, trSig *faultsim.SignatureCapture) (*DictionaryJSON, error) {
	n := env.pats.Len()
	d := &dict.Dictionary{Meta: dict.Meta{
		Key:       env.ro.DictKey,
		Circuit:   env.p.c.Name,
		Patterns:  n,
		Seed:      seed,
		Engine:    env.engine.String(),
		IDDQ:      env.iddq,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}}
	d.Entries = make([]dict.Entry, 0, len(env.saFaults)+len(env.trFaults))
	addEntries := func(names []string, capture *faultsim.SignatureCapture, leak bool) {
		for i := range names {
			e := dict.Entry{
				Fault: names[i],
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
		addEntries(env.saNames, saSig, false)
	}
	if trSig != nil {
		addEntries(env.trNames, trSig, env.iddq)
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
