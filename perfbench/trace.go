package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/service"
)

// span is one timed interval of the traced run. Spans of one op share
// Op; Parent is the enclosing span's ID (0 for an op's root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      string  `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory; the traced run is single-client, so a
// stack gives each span its parent.
type tracer struct {
	t0    time.Time
	op    string
	spans []span
	stack []int
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Op: t.op, Name: name, StartUS: t.us(time.Now())})
	id := len(t.spans)
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (the innermost open one) and returns its length.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndUS = t.us(time.Now())
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

// record adds a finished span under the innermost open one.
func (t *tracer) record(name string, start, end time.Time) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Op: t.op, Name: name, StartUS: t.us(start), EndUS: t.us(end)})
}

func (t *tracer) time(name string, f func()) time.Duration {
	id := t.begin(name)
	f()
	return t.end(id)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats averages per-layer values: sum and sample count per name.
type layerStats struct {
	sum  map[string]float64
	n    map[string]int
	unit map[string]string
}

func newLayerStats() *layerStats {
	return &layerStats{sum: map[string]float64{}, n: map[string]int{}, unit: map[string]string{}}
}

func (l *layerStats) add(name, unit string, v float64) {
	l.sum[name] += v
	l.n[name]++
	l.unit[name] = unit
}

func (l *layerStats) ms(name string, d time.Duration) { l.add(name, "ms", ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func gateEvals() uint64 {
	es := faultsim.ReadEngineStats()
	return es.ConeGateEvals + es.PackedGateEvals + es.ReferenceGateEvals
}

// traceWorkload replays one workload's ops single-client: each op runs
// once through the server as the timed run does (the client spans), and
// once more by calling each layer's public functions directly (the
// replay spans), so every layer gets its own time and counts.
type traceWorkload struct {
	r   *runner
	t   *tracer
	ls  *layerStats
	dir string // direct-replay stores, separate from the server's

	next, ops      int
	pairs, evals   float64 // fault-pattern pairs and gate evals, all classes
	hits, lookups  float64 // LRU counters at the start of the trace
	scheduled      float64 // shard sub-jobs dispatched at the start
	allocB, pauseM float64 // Go allocation bytes and GC pause ms, summed
}

func (tw *traceWorkload) counters() (hits, lookups, scheduled float64) {
	d := tw.r.dep
	h := d.counter("cache_hits")
	return h, h + d.counter("cache_misses"), d.counter("shard_scheduled")
}

// cycle replays one full rotation of the workload's op mix.
func (tw *traceWorkload) cycle() error {
	mem := startMem()
	n := cycleLen[tw.r.wl]
	for k := 0; k < n; k++ {
		if err := tw.op(opAt(tw.r.wl, tw.r.seed, tw.next)); err != nil {
			return err
		}
		tw.next++
	}
	a, p := mem.perOp(1)
	tw.allocB += a
	tw.pauseM += p
	tw.ops += n
	return nil
}

func (tw *traceWorkload) op(o op) error {
	t, ls := tw.t, tw.ls
	t.op = fmt.Sprintf("%s/%d", tw.r.wl, o.Index)
	root := t.begin("op")
	defer t.end(root)
	exs, err := tw.r.exec(o)
	if err != nil {
		return fmt.Errorf("op %s: %w", t.op, err)
	}
	for _, ex := range exs {
		t.record("client."+ex.kind, ex.start, ex.start.Add(ex.dur))
		if ex.kind != "diagnose" {
			ls.ms("service.submit_ms", ex.submit)
		}
		if ex.kind == "campaign" {
			sub, _ := time.Parse(time.RFC3339Nano, ex.status.Submitted)
			st, _ := time.Parse(time.RFC3339Nano, ex.status.Started)
			ls.ms("service.queue_wait_ms", st.Sub(sub))
		}
	}
	rp := t.begin("replay")
	defer t.end(rp)
	var explained time.Duration // client time the layer spans account for
	switch o.Kind {
	case opHit:
		explained, err = tw.replayHit(o, exs[0])
	case opDiagnose:
		explained, err = tw.replayDiagnose(o, exs[0])
	default:
		explained, err = tw.replayCampaign(o, exs)
	}
	if err != nil {
		return fmt.Errorf("op %s replay: %w", t.op, err)
	}
	var client time.Duration
	for _, ex := range exs {
		client += ex.dur
	}
	ls.ms("unattributed_ms", client-explained)
	return nil
}

// resolve replays the request front half: circuit resolution (a probe;
// normalize repeats it), normalize and the content key.
func (tw *traceWorkload) resolve(req service.CampaignRequest) (service.CampaignRequest, *logic.Circuit, string, time.Duration, error) {
	t, ls := tw.t, tw.ls
	var err error
	if req.Netlist != "" {
		ls.ms("logic.parse_ms", t.time("logic.parse", func() { _, err = logic.ParseBench("campaign", strings.NewReader(req.Netlist)) }))
	} else {
		ls.ms("bench.get_ms", t.time("bench.get", func() { _, err = bench.Get(req.Benchmark) }))
	}
	if err != nil {
		return req, nil, "", 0, err
	}
	var norm service.CampaignRequest
	var c *logic.Circuit
	dNorm := t.time("service.normalize", func() { norm, c, err = req.Normalize() })
	if err != nil {
		return req, nil, "", 0, err
	}
	var key string
	dKey := t.time("service.key", func() { key = service.CanonicalKey(c, norm) })
	ls.ms("service.normalize_ms", dNorm)
	ls.ms("service.key_ms", dKey)
	return norm, c, key, dNorm + dKey, nil
}

// encode times the report's JSON encoding as the server writes it.
func (tw *traceWorkload) encode(rep *service.CampaignReport) time.Duration {
	var buf bytes.Buffer
	d := tw.t.time("service.report_encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	tw.ls.ms("service.report_encode_ms", d)
	tw.ls.add("service.report_bytes", "bytes", float64(buf.Len()))
	return d
}

func (tw *traceWorkload) replayHit(o op, ex exchange) (time.Duration, error) {
	_, _, key, front, err := tw.resolve(o.Req)
	if err != nil {
		return 0, err
	}
	explained := front + tw.encode(ex.campaign)
	st, err := resultstore.Open(filepath.Join(tw.r.dep.dir, "results"))
	if err != nil {
		return 0, err
	}
	var rep service.CampaignReport
	d := tw.t.time("resultstore.get", func() { err = st.Get(resultstore.KindReport, key, &rep) })
	tw.ls.ms("resultstore.get_ms", d)
	if ex.store {
		explained += d
	}
	if err != nil {
		return 0, err
	}
	return explained, tw.r.chk.sameReport(&rep, ex.campaign)
}

func (tw *traceWorkload) replayDiagnose(o op, ex exchange) (time.Duration, error) {
	key, ent := tw.r.pop.target(o)
	var d *dict.Dictionary
	var err error
	load := tw.t.time("dict.load", func() {
		var st *dict.Store
		if st, err = dict.Open(filepath.Join(tw.r.dep.dir, "dicts")); err == nil {
			d, err = st.Get(key)
		}
	})
	if err != nil {
		return 0, err
	}
	tw.ls.ms("dict.load_ms", load)
	var cands []dict.Candidate
	obs := dict.ObservationFrom(d.Meta.Patterns, ent.Out.Members(), ent.Leak.Members())
	diag := tw.t.time("dict.diagnose", func() { cands = d.Diagnose(obs, 5) })
	tw.ls.ms("dict.diagnose_ms", diag)
	if len(cands) == 0 || cands[0].Class != ent.Class {
		return 0, fmt.Errorf("direct diagnosis of %s does not rank its class first", ent.Fault)
	}
	if ex.store {
		return diag + load, nil
	}
	return diag, nil
}

func (tw *traceWorkload) replayCampaign(o op, exs []exchange) (time.Duration, error) {
	t, ls := tw.t, tw.ls
	norm, c, key, front, err := tw.resolve(o.Req)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	durable := tw.r.wl == wlStore
	var rs *resultstore.Store
	var ds *dict.Store
	if durable {
		if rs, ds, err = tw.stores("run"); err != nil {
			return 0, err
		}
	}
	var rep *service.CampaignReport
	run := t.time("service.run", func() {
		if durable {
			rep, err = service.RunCampaignSharded(ctx, c, norm, service.ShardedOptions{Key: key, Store: rs},
				&service.RunObserver{Dict: ds, DictKey: key})
		} else {
			rep, err = service.RunCampaignObserved(ctx, c, norm, nil)
		}
	})
	if err != nil {
		return 0, err
	}
	ls.ms("service.run_ms", run)
	served := exs[0].campaign
	if got, want := expectationOf(rep), expectationOf(served); jsonString(got) != jsonString(want) {
		return 0, fmt.Errorf("direct run %s differs from served %s", jsonString(got), jsonString(want))
	}
	encode := tw.encode(served)
	layers, err := tw.layers(c, norm, served)
	if err != nil {
		return 0, err
	}
	// Each resubmit hit costs another normalize, key and encode.
	explained := time.Duration(len(exs)) * (front + encode)
	explained += layers
	if durable {
		extra, err := tw.durableLayers(ctx, c, norm, key, rep, run)
		if err != nil {
			return 0, err
		}
		explained += extra
	}
	return explained, nil
}

// stores opens a fresh direct-replay result store and dictionary store.
func (tw *traceWorkload) stores(name string) (*resultstore.Store, *dict.Store, error) {
	dir, err := freshDir(filepath.Join(tw.dir, name))
	if err != nil {
		return nil, nil, err
	}
	rs, err := resultstore.Open(filepath.Join(dir, "results"))
	if err != nil {
		return nil, nil, err
	}
	ds, err := dict.Open(filepath.Join(dir, "dicts"))
	return rs, ds, err
}

// durableLayers measures what the durable deployment adds to a
// campaign: sharding (sharded minus single-shot), dictionary capture
// (single-shot with minus without capture), the report's store round
// trip and the dictionary artifact's load, put and diagnosis. It
// returns the part the client waits for: shard and capture overheads.
func (tw *traceWorkload) durableLayers(ctx context.Context, c *logic.Circuit, norm service.CampaignRequest, key string, rep *service.CampaignReport, sharded time.Duration) (time.Duration, error) {
	t, ls := tw.t, tw.ls
	rs, ds, err := tw.stores("whatif")
	if err != nil {
		return 0, err
	}
	var n int64
	put := t.time("resultstore.put", func() { n, err = rs.Put(resultstore.KindReport, key, rep) })
	if err != nil {
		return 0, err
	}
	ls.ms("resultstore.put_ms", put)
	ls.add("resultstore.report_bytes", "bytes", float64(n))
	var back service.CampaignReport
	ls.ms("resultstore.get_ms", t.time("resultstore.get", func() { err = rs.Get(resultstore.KindReport, key, &back) }))
	if err != nil {
		return 0, err
	}

	single := t.time("shard.single_shot", func() {
		_, err = service.RunCampaignObserved(ctx, c, norm, &service.RunObserver{Dict: ds, DictKey: key})
	})
	if err != nil {
		return 0, err
	}
	bare := t.time("dict.no_capture", func() { _, err = service.RunCampaignObserved(ctx, c, norm, nil) })
	if err != nil {
		return 0, err
	}
	ls.ms("shard.overhead_ms", sharded-single)
	ls.ms("dict.capture_overhead_ms", single-bare)

	var d *dict.Dictionary
	load := t.time("dict.load", func() {
		var st *dict.Store
		if st, err = dict.Open(ds.Dir()); err == nil {
			d, err = st.Get(key)
		}
	})
	if err != nil {
		return 0, err
	}
	ls.ms("dict.load_ms", load)
	_, out, err := tw.stores("dictput")
	if err != nil {
		return 0, err
	}
	var size int64
	ls.ms("dict.put_ms", t.time("dict.put", func() { _, size, err = out.Put(d) }))
	if err != nil {
		return 0, err
	}
	ls.add("dict.bytes", "bytes", float64(size))
	for _, e := range d.Entries {
		if e.Detected() {
			obs := dict.Observation{Out: e.Out, Leak: e.Leak}
			ls.ms("dict.diagnose_ms", t.time("dict.diagnose", func() { d.Diagnose(obs, 5) }))
			break
		}
	}
	return sharded - bare, nil
}

// layers re-executes the campaign through each layer's public
// functions, in the order the single-shot path calls them, checks the
// outcome against the served report, and returns the total.
func (tw *traceWorkload) layers(c *logic.Circuit, norm service.CampaignRequest, served *service.CampaignReport) (time.Duration, error) {
	t, ls := tw.t, tw.ls
	ctx := context.Background()
	id := t.begin("layers")
	engine, err := faultsim.ParseEngine(norm.Engine)
	if err != nil {
		t.end(id)
		return 0, err
	}
	var pats []faultsim.Pattern
	ls.ms("faultsim.patterns_ms", t.time("faultsim.patterns", func() { pats = service.BuildPatterns(c, norm.Patterns, norm.Seed) }))

	f := norm.Faults
	uopt := core.UniverseOptions{ChannelBreak: f.StuckOpen, StuckOn: f.StuckOn, Polarity: f.Polarity}
	var sa, tr, gen []core.Fault
	var br []core.Bridge
	ls.ms("core.universe_ms", t.time("core.universe", func() {
		if f.StuckAt {
			sa = core.Universe(c, core.ClassicalOnly())
		}
		if uopt.ChannelBreak || uopt.StuckOn || uopt.Polarity {
			tr = core.Universe(c, uopt)
		}
		if f.Bridges {
			br = core.NeighborBridges(c, f.BridgeWindow)
		}
		if norm.ATPG {
			g := uopt
			g.LineStuckAt = f.StuckAt
			gen = core.Universe(c, g)
		}
	}))

	var sim *faultsim.Simulator
	ls.ms("faultsim.compile_ms", t.time("faultsim.compile", func() {
		sim = faultsim.New(c)
		sim.Engine = engine
		sim.EnsureCompiled()
	}))

	got := map[string][2]int{}
	class := func(name string, faults int, run func() (faultsim.Coverage, error)) {
		if err != nil {
			return
		}
		before := gateEvals()
		var cov faultsim.Coverage
		d := t.time("faultsim."+name, func() { cov, err = run() })
		evals := float64(gateEvals() - before)
		ls.ms("faultsim."+name+"_ms", d)
		if name != "stuck_at" {
			// The stuck-at sweep has no engine counter yet: its gate
			// evals would always read 0.
			ls.add("faultsim."+name+"_gate_evals", "count", evals)
		}
		tw.pairs += float64(faults * len(pats))
		tw.evals += evals
		got[name] = [2]int{cov.Total, cov.Detected}
	}
	pairs := tw.pairs
	if f.StuckAt {
		class("stuck_at", len(sa), func() (faultsim.Coverage, error) {
			ds, err := sim.RunStuckAtContext(ctx, sa, pats)
			return faultsim.Summarise(ds), err
		})
	}
	if tr != nil {
		class("transistor", len(tr), func() (faultsim.Coverage, error) {
			ds, err := sim.RunTransistorParallel(ctx, tr, pats, false, 0)
			return faultsim.Summarise(ds), err
		})
		if f.IDDQ {
			class("transistor_iddq", len(tr), func() (faultsim.Coverage, error) {
				ds, err := sim.RunTransistorParallel(ctx, tr, pats, true, 0)
				return faultsim.Summarise(ds), err
			})
		}
	}
	if f.Bridges {
		class("bridges", len(br), func() (faultsim.Coverage, error) {
			ds, err := sim.RunBridgesObserved(ctx, br, pats, f.IDDQ)
			return faultsim.BridgeCoverage(ds), err
		})
	}
	if err != nil {
		t.end(id)
		return 0, err
	}
	ls.add("faultsim.fault_pattern_pairs", "count", tw.pairs-pairs)
	if want := classesOf(served); jsonString(got) != jsonString(want) {
		t.end(id)
		return 0, fmt.Errorf("layer replay coverage %v differs from served %v", got, want)
	}
	if norm.ATPG {
		if err := tw.atpg(ctx, c, gen, engine, served.ATPG); err != nil {
			t.end(id)
			return 0, err
		}
	}
	return t.end(id), nil
}

// atpg times generation with per-class child spans cut at the class
// boundaries GenerateContext's progress stream reports.
func (tw *traceWorkload) atpg(ctx context.Context, c *logic.Circuit, gen []core.Fault, engine faultsim.Engine, served *service.ATPGJSON) error {
	t, ls := tw.t, tw.ls
	type mark struct {
		class string
		at    time.Time
	}
	var marks []mark
	opt := atpg.Options{Engine: engine, Progress: func(p atpg.Progress) {
		if len(marks) == 0 || marks[len(marks)-1].class != p.Class {
			marks = append(marks, mark{p.Class, time.Now()})
		}
	}}
	before := gateEvals()
	id := t.begin("atpg.generate")
	res, err := atpg.GenerateContext(ctx, c, gen, opt)
	end := time.Now()
	for k, m := range marks {
		stop := end
		if k+1 < len(marks) {
			stop = marks[k+1].at
		}
		t.record("atpg."+m.class, m.at, stop)
		ls.ms("atpg."+m.class+"_ms", stop.Sub(m.at))
	}
	ls.ms("atpg.generate_ms", t.end(id))
	if err != nil {
		return err
	}
	ls.add("atpg.drop_gate_evals", "count", float64(gateEvals()-before))
	ls.add("atpg.vectors", "count", float64(res.Set.TotalVectors()))
	ls.add("atpg.untestable", "count", float64(len(res.Untestable)))
	if served == nil || res.Set.TotalVectors() != served.TotalVectors || len(res.Untestable) != served.Untestable ||
		res.StuckAtCovered != served.StuckAtCovered || res.PolarityCovered != served.PolarityCovered ||
		res.CBSPCovered != served.CBSPCovered || res.CBDPCovered != served.CBDPCovered {
		return fmt.Errorf("ATPG replay differs from the served report")
	}
	return nil
}

// metrics renders the workload's per-layer table, names prefixed with
// the workload.
func (tw *traceWorkload) metrics(out map[string]metric) {
	wl, ls := tw.r.wl, tw.ls
	for name, sum := range ls.sum {
		out[wl+"."+name] = metric{sum / float64(ls.n[name]), ls.unit[name]}
	}
	if tw.pairs > 0 {
		out[wl+".faultsim.gate_evals_per_pair"] = metric{tw.evals / tw.pairs, "count"}
	}
	hits, lookups, scheduled := tw.counters()
	if wl == wlStore {
		if lookups > tw.lookups {
			out[wl+".service.cache_hit_ratio"] = metric{(hits - tw.hits) / (lookups - tw.lookups), "ratio"}
		}
		writes := float64(tw.ops / cycleLen[wl] * strings.Count(storeMix, "W"))
		out[wl+".shard.scheduled"] = metric{(scheduled - tw.scheduled) / writes, "count"}
	}
	out[wl+".go.alloc_bytes_per_op"] = metric{tw.allocB / float64(tw.ops), "bytes"}
	out[wl+".go.gc_pause_ms"] = metric{tw.pauseM / float64(tw.ops), "ms"}
}

// traceRun replays every workload, whole cycles round-robin, until the
// time is used (at least one cycle each), and writes the span file.
func traceRun(seed int64, seconds float64, root string, orc *oracle) (map[string]metric, int, string, error) {
	t := &tracer{t0: time.Now()}
	var tws []*traceWorkload
	defer func() {
		for _, tw := range tws {
			tw.r.dep.stop()
		}
	}()
	for _, wl := range workloadNames {
		r, err := setup(wl, seed, filepath.Join(root, "trace-"+wl), orc)
		if err != nil {
			return nil, 0, "", err
		}
		tw := &traceWorkload{r: r, t: t, ls: newLayerStats(), dir: filepath.Join(root, "trace-direct-"+wl)}
		tw.hits, tw.lookups, tw.scheduled = tw.counters()
		tws = append(tws, tw)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, tw := range tws {
			if err := tw.cycle(); err != nil {
				return nil, 0, "", err
			}
		}
	}
	out := map[string]metric{}
	ops := 0
	for _, tw := range tws {
		tw.metrics(out)
		ops += tw.ops
	}
	path := filepath.Join(root, fmt.Sprintf("spans-seed%d.jsonl", seed))
	return out, ops, path, t.write(path)
}

func sortedMetricNames(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
