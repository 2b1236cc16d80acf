package cpsinw

// The benchmark harness regenerates every table and figure of the paper
// (DESIGN.md section 6). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the paper-style report once (on the first
// iteration) and then times the regeneration, so a single -bench run both
// reproduces the evaluation artifacts and measures the harness.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/device"
	"cpsinw/internal/dict"
	"cpsinw/internal/experiments"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/service"
)

var printOnce sync.Map

func printReport(b *testing.B, key, report string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", report)
	}
}

// BenchmarkTableI regenerates Table I (process steps -> defect models).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI()
		printReport(b, "tableI", r.Report())
	}
}

// BenchmarkTableII regenerates Table II (device parameters).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableII()
		printReport(b, "tableII", r.Report())
	}
}

// BenchmarkTableIII regenerates Table III (polarity-defect detection in
// the 2-input XOR), including the analog IDDQ confirmation.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIII(true)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "tableIII", r.Report())
	}
}

// BenchmarkFigure3 regenerates Figure 3 (GOS I-V curves, compact model +
// synthetic-TCAD cross-check).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(61)
		tc := experiments.Figure3TCAD()
		printReport(b, "figure3", r.Report()+fmt.Sprintf("TCAD cross-check ID(SAT): %v\n", tc))
	}
}

// BenchmarkFigure4 regenerates Figure 4 (electron density maps).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4()
		printReport(b, "figure4", r.Report())
	}
}

// BenchmarkFigure5 regenerates Figure 5 (leakage-delay vs Vcut for the
// open polarity gates of INV, NAND and XOR).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(experiments.Figure5Options{Points: 9})
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "figure5", r.Report())
	}
}

// BenchmarkChannelBreakMasking regenerates the section V-C masking
// measurements on the XOR2 (FO4).
func BenchmarkChannelBreakMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ChannelBreakMasking()
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "masking", r.Report())
	}
}

// BenchmarkNANDTwoPattern regenerates the section V-C NAND two-pattern
// stuck-open verification.
func BenchmarkNANDTwoPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.NANDTwoPattern()
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "nand2p", r.Report())
	}
}

// BenchmarkChannelBreakAlgorithm regenerates the section V-C channel-
// break procedure validation across the benchmark suite.
func BenchmarkChannelBreakAlgorithm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ChannelBreakAlgorithm(nil)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "cbalg", r.Report())
	}
}

// BenchmarkATPGCampaign regenerates the classical-vs-extended ATPG
// comparison across the benchmark suite.
func BenchmarkATPGCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ATPGCampaign(nil)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "campaign", r.Report())
	}
}

// BenchmarkAblationPGD regenerates the drain-side asymmetry ablation.
func BenchmarkAblationPGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPGD(6)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "ablation", r.Report())
	}
}

// BenchmarkGOSDetect regenerates the gate-level GOS detectability study.
func BenchmarkGOSDetect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.GOSDetect(nil)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "gosdetect", r.Report())
	}
}

// BenchmarkBreakSeverity regenerates the partial-break regime study.
func BenchmarkBreakSeverity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.BreakSeverity(8)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "breaksev", r.Report())
	}
}

// BenchmarkBridgeCampaignReport regenerates the interconnect-bridge
// study (the engine comparison lives in BenchmarkBridgeCampaign below).
func BenchmarkBridgeCampaignReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.BridgeCampaign(nil)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "bridges", r.Report())
	}
}

// BenchmarkDelayFault regenerates the circuit-level delay-fault study.
func BenchmarkDelayFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.DelayFault(6)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "delayfault", r.Report())
	}
}

// BenchmarkDiagnosis regenerates the diagnosis-resolution study.
func BenchmarkDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Diagnosis(nil)
		if err != nil {
			b.Fatal(err)
		}
		printReport(b, "diagnosis", r.Report())
	}
}

// --- engine micro-benchmarks: the substrates the harness is built on ---

// BenchmarkDeviceEval times one compact-model evaluation.
func BenchmarkDeviceEval(b *testing.B) {
	m := NewDevice()
	bias := device.Bias{VCG: 1.2, VPGS: 1.2, VPGD: 1.2, VD: 1.2}
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += m.ID(bias)
	}
	_ = sum
}

// BenchmarkStuckAtFaultSim times 64-way parallel-pattern stuck-at fault
// simulation of the 8-bit ripple-carry adder.
func BenchmarkStuckAtFaultSim(b *testing.B) {
	c := bench.RippleCarryAdder(8)
	faults := core.Universe(c, core.ClassicalOnly())
	patterns := randomPatterns(c, 64)
	sim := faultsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunStuckAt(faults, patterns)
	}
}

// BenchmarkTransistorCampaign is the perf-regression harness of the
// fault engines: a full CP transistor-fault campaign (channel break +
// stuck-on + polarity) on the largest benchmark circuit (mult3, 39
// gates) through the serial oracle and the packed PPSFP engine, as the
// service runs it: one RunTransistorBoth sweep answering the
// voltage-only and the +IDDQ classes. Both engines return
// bit-identical detections (enforced by internal/faultsim's
// differential tests and re-checked here for both answer lists), so the
// ratio is pure engine speedup; BENCH_faultsim.json at the repo root
// records the trajectory. Run just this comparison with:
//
//	go test -bench=BenchmarkTransistorCampaign -benchtime=3x
func BenchmarkTransistorCampaign(b *testing.B) {
	c := bench.Multiplier(3)
	faults := core.Universe(c, core.UniverseOptions{
		ChannelBreak: true, StuckOn: true, Polarity: true,
	})
	patterns := faultsim.ExhaustivePatterns(c)

	results := map[string][2][]faultsim.Detection{}
	for _, engine := range []faultsim.Engine{faultsim.EngineReference, faultsim.EnginePacked} {
		engine := engine
		b.Run(engine.String(), func(b *testing.B) {
			results[engine.String()] = runTransistorBoth(b, c, engine, faults, patterns)
		})
	}
	checkBothAgree(b, "mult3", faults, results)
}

// runTransistorBoth times one single-worker RunTransistorBoth sweep per
// op on one engine, reports its gate evaluations and returns the last
// voltage-only and +IDDQ answer lists.
func runTransistorBoth(b *testing.B, c *logic.Circuit, engine faultsim.Engine, faults []core.Fault, patterns []faultsim.Pattern) [2][]faultsim.Detection {
	sim := faultsim.New(c)
	sim.Engine = engine
	var last [2][]faultsim.Detection
	b.ResetTimer()
	evals0 := engineGateEvals(engine)
	for i := 0; i < b.N; i++ {
		v, q, err := sim.RunTransistorBoth(context.Background(), faults, patterns, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = [2][]faultsim.Detection{v, q}
	}
	reportGateEvals(b, engine, evals0)
	return last
}

// checkBothAgree fails the benchmark unless every engine returned the
// reference oracle's voltage-only and +IDDQ answers over faults.
func checkBothAgree(b *testing.B, name string, faults []core.Fault, results map[string][2][]faultsim.Detection) {
	ref := results["reference"]
	for ename, cmp := range results {
		for k, class := range []string{"voltage", "+IDDQ"} {
			if len(ref[k]) != len(cmp[k]) {
				continue // a -bench filter skipped an engine: nothing to compare
			}
			for i, want := range ref[k] {
				if got := cmp[k][i]; want.Method != got.Method || want.Pattern != got.Pattern {
					b.Fatalf("%s: %s %s disagrees on %v: (%q, %d) vs (%q, %d)",
						name, ename, class, faults[i], want.Method, want.Pattern, got.Method, got.Pattern)
				}
			}
		}
	}
}

// BenchmarkBridgeCampaign is the same perf-regression harness for the
// bridge engines: neighbour-extracted bridges on mult3 with IDDQ
// observation, per engine, detections re-checked identical.
func BenchmarkBridgeCampaign(b *testing.B) {
	c := bench.Multiplier(3)
	bridges := core.NeighborBridges(c, 4)
	patterns := faultsim.ExhaustivePatterns(c)

	run := func(b *testing.B, engine faultsim.Engine) []faultsim.Detection {
		sim := faultsim.New(c)
		sim.Engine = engine
		var last []faultsim.Detection
		b.ResetTimer()
		evals0 := engineGateEvals(engine)
		for i := 0; i < b.N; i++ {
			ds, err := sim.RunBridgesObserved(context.Background(), bridges, patterns, true)
			if err != nil {
				b.Fatal(err)
			}
			last = ds
		}
		reportGateEvals(b, engine, evals0)
		return last
	}

	results := map[string][]faultsim.Detection{}
	for _, engine := range []faultsim.Engine{faultsim.EngineReference, faultsim.EnginePacked} {
		engine := engine
		b.Run(engine.String(), func(b *testing.B) { results[engine.String()] = run(b, engine) })
	}
	ref := results["reference"]
	for name, cmp := range results {
		if len(ref) != len(cmp) {
			continue // a -bench filter skipped an engine: nothing to compare
		}
		for i := range ref {
			if ref[i].Detected() != cmp[i].Detected() || ref[i].Method != cmp[i].Method || ref[i].Pattern != cmp[i].Pattern {
				b.Fatalf("%s disagrees on %v: (%v, %q, %d) vs (%v, %q, %d)",
					name, bridges[i], ref[i].Detected(), ref[i].Method, ref[i].Pattern,
					cmp[i].Detected(), cmp[i].Method, cmp[i].Pattern)
			}
		}
	}
}

// engineGateEvals reads the engine-native gate-evaluation counter for
// one engine from the process-wide faultsim stats. The units differ per
// engine (packed 64-lane evaluations, full hooked switch-level maps), so
// the throughput figures below compare an engine only against itself
// over time.
func engineGateEvals(engine faultsim.Engine) uint64 {
	s := faultsim.ReadEngineStats()
	if engine == faultsim.EngineReference {
		return s.ReferenceGateEvals
	}
	return s.PackedGateEvals
}

// reportGateEvals attaches engine-native gate-evals/sec (and per op) to
// the benchmark result, from the counter delta across the timed loop.
func reportGateEvals(b *testing.B, engine faultsim.Engine, evals0 uint64) {
	delta := engineGateEvals(engine) - evals0
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(delta)/sec, "gate_evals/s")
	}
	b.ReportMetric(float64(delta)/float64(b.N), "gate_evals/op")
}

// BenchmarkFaultSimScaling is the gates x faults x patterns scaling
// sweep over the generated corpus: array multipliers at ~100, ~1k and
// ~10k gates (mult5 / mult16 / mult50, sizes pinned by
// internal/bench's TestCorpusScales), a fixed 64-fault sample of the
// CP transistor universe and 64 random patterns, per engine, each op
// one single-worker RunTransistorBoth sweep (the service's call). The
// fault and pattern budgets are held constant across sizes so the
// per-op time isolates how each engine's cost grows with gate count;
// gate_evals/s shows whether the event-driven walk and bitplane packing
// hold their throughput as circuits grow, and faults is the sample
// size. Dated results live in BENCH_faultsim.json ("scaling" entries).
// -short keeps only the ~100-gate row (the CI bench-smoke budget,
// which also requires packed to be the fastest engine of the row and
// to make more packed evaluations per op than one site evaluation per
// fault, so that the row times the observability walk):
//
//	go test -bench=BenchmarkFaultSimScaling -benchtime=3x
func BenchmarkFaultSimScaling(b *testing.B) {
	const nFaults, nPatterns = 64, 64
	for _, name := range []string{"mult5", "mult16", "mult50"} {
		if testing.Short() && name != "mult5" {
			continue
		}
		c, err := bench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		all := core.Universe(c, core.UniverseOptions{
			ChannelBreak: true, StuckOn: true, Polarity: true,
		})
		// Deterministic stride sample: same faults every run, spread
		// across the whole circuit rather than clustered at its inputs.
		faults := all
		if len(all) > nFaults {
			faults = make([]core.Fault, 0, nFaults)
			for i := 0; i < nFaults; i++ {
				faults = append(faults, all[i*len(all)/nFaults])
			}
		}
		patterns := randomPatterns(c, nPatterns)

		results := map[string][2][]faultsim.Detection{}
		for _, engine := range []faultsim.Engine{faultsim.EngineReference, faultsim.EnginePacked} {
			engine := engine
			b.Run(fmt.Sprintf("%s/%s", name, engine), func(b *testing.B) {
				results[engine.String()] = runTransistorBoth(b, c, engine, faults, patterns)
				b.ReportMetric(float64(c.Statistics().Gates), "gates")
				b.ReportMetric(float64(len(faults)), "faults")
			})
		}
		checkBothAgree(b, name, faults, results)
	}
}

// BenchmarkStuckAtScaling is the line stuck-at scaling sweep: the full
// line-fault universe of mult5 / mult16 / mult50 (~100 / ~1k / ~10k
// gates) at one pattern — one live lane per block, so the per-net
// observability walks cost as much as they ever do per pattern — and at
// 256 random patterns, the service's default budget; c499 (433 gates,
// XOR trees with wide reconvergence) is campaign_cold's stuck-at
// sweep. Stuck-at runs on
// the packed engine whatever the simulator's engine, so there is one
// row per (circuit, patterns); gate_evals are packed 64-lane
// evaluations. Dated results live in
// BENCH_faultsim.json ("stuck_at_scaling" entries). -short keeps only
// the mult5 rows (the CI bench-smoke budget):
//
//	go test -run '^$' -bench BenchmarkStuckAtScaling -benchtime=3x .
func BenchmarkStuckAtScaling(b *testing.B) {
	for _, name := range []string{"mult5", "mult16", "mult50", "c499"} {
		if testing.Short() && name != "mult5" {
			continue
		}
		c, err := bench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		faults := core.Universe(c, core.ClassicalOnly())
		for _, n := range []int{1, 256} {
			patterns := randomPatterns(c, n)
			b.Run(fmt.Sprintf("%s/%dpat", name, n), func(b *testing.B) {
				sim := faultsim.New(c)
				sim.EnsureCompiled()
				var cov faultsim.Coverage
				b.ResetTimer()
				evals0 := engineGateEvals(faultsim.EnginePacked)
				for i := 0; i < b.N; i++ {
					cov = faultsim.Summarise(sim.RunStuckAt(faults, patterns))
				}
				reportGateEvals(b, faultsim.EnginePacked, evals0)
				b.ReportMetric(float64(len(faults)), "faults")
				b.ReportMetric(float64(cov.Detected), "detected")
			})
		}
	}
}

// BenchmarkATPGGenerate times one whole ATPG campaign (GenerateContext)
// per op on the atpg_gen workload's circuits: the line stuck-at,
// polarity and channel-break universe, PODEM implying on the dense
// compiled IR, with lazy fault dropping (each fault checked once,
// against every vector generated before it). implications/op counts
// PODEM implication steps (one per decision or backtrack, each
// re-evaluating only the gates whose inputs changed, in the good
// circuit and, when the attempt propagates, the faulty one) and
// backtracks/op the decisions undone; both are deterministic per
// circuit and read the same as under the earlier full passes. Dated
// parent-vs-change results live in BENCH_faultsim.json. -short keeps
// only parity32 (the CI bench-smoke budget):
//
//	go test -run '^$' -bench BenchmarkATPGGenerate -benchtime 10x .
func BenchmarkATPGGenerate(b *testing.B) {
	for _, name := range []string{"parity32", "rca32", "c432", "alu6"} {
		if testing.Short() && name != "parity32" {
			continue
		}
		c, err := bench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		universe := core.Universe(c, core.UniverseOptions{LineStuckAt: true, Polarity: true, ChannelBreak: true})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res *atpg.CampaignResult
			for i := 0; i < b.N; i++ {
				r, err := atpg.GenerateContext(context.Background(), c, universe, atpg.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(res.Implications), "implications/op")
			b.ReportMetric(float64(res.Backtracks), "backtracks/op")
			b.ReportMetric(float64(res.Set.TotalVectors()), "vectors")
		})
	}
}

// BenchmarkDictionaryCapture prices the fault-dictionary signature
// sink on the workload its acceptance budget names: a full packed
// mult16 campaign (stuck-at + CP transistor universe, IDDQ observed,
// 64 random patterns) run end to end — pattern build, stuck-at sweep,
// one transistor sweep answering both the voltage-only and the +IDDQ
// classes, report — with ("on") and without ("off") a dictionary store
// attached. "on" additionally harvests signatures in both sweeps (the
// transistor sweep's output and leak planes), compresses them and
// writes the artifact atomically. Capture rows are written straight
// from the engine's lane words — no second simulation pass. A fault's
// full signature is its flip lanes ANDed with its site net's
// observability mask, the same lanes its first detection is read from,
// so on this one-block campaign (64 patterns) a captured sweep makes
// exactly the uncaptured evaluations; BENCH_faultsim.json records dated
// results. Both runs must agree on coverage exactly.
//
//	go test -bench=BenchmarkDictionaryCapture -benchtime=5x
func BenchmarkDictionaryCapture(b *testing.B) {
	req := service.CampaignRequest{
		Benchmark: "mult16",
		Faults: service.FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			IDDQ: true,
		},
		Patterns: 64,
		Engine:   "packed",
	}
	norm, c, err := req.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	store, err := dict.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := service.CanonicalKey(c, norm)

	run := func(b *testing.B, ro *service.RunObserver) *service.CampaignReport {
		var last *service.CampaignReport
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := service.RunCampaignObserved(context.Background(), c, norm, ro)
			if err != nil {
				b.Fatal(err)
			}
			last = rep
		}
		return last
	}

	reports := map[string]*service.CampaignReport{}
	b.Run("off", func(b *testing.B) { reports["off"] = run(b, nil) })
	b.Run("on", func(b *testing.B) {
		reports["on"] = run(b, &service.RunObserver{Dict: store, DictKey: key})
	})
	off, on := reports["off"], reports["on"]
	if off == nil || on == nil {
		return // a -bench filter skipped a subtest: nothing to compare
	}
	for name, pair := range map[string][2]*service.CoverageJSON{
		"stuck_at":        {off.StuckAt, on.StuckAt},
		"transistor":      {off.Transistor, on.Transistor},
		"transistor_iddq": {off.TransistorIDDQ, on.TransistorIDDQ},
	} {
		was, now := pair[0], pair[1]
		if (was == nil) != (now == nil) ||
			(was != nil && (was.Detected != now.Detected || was.Total != now.Total)) {
			b.Fatalf("capture changed %s coverage: %+v vs %+v", name, was, now)
		}
	}
	if on.Dictionary == nil {
		b.Fatal("observed campaign produced no dictionary artifact")
	}
}

// BenchmarkDurableWrite prices the durable deployment's write path as
// store_diagnose's write op runs it in the service: a c432 campaign
// (stuck-at, polarity, stuck-open, stuck-on and IDDQ; 256 random
// patterns) with an auto-sized result store and a dictionary store
// attached, then the merged report's artifacts written as the service
// writes them: the universe's fault names (the first campaign only; the
// others share them), the campaign's undetected index, then the report.
// store_B/op is the result store's size on disk per campaign. "bare"
// runs the same campaigns with no stores. Every iteration takes a fresh
// seed, so nothing is served from a store. Dated parent-vs-change
// results live in BENCH_faultsim.json.
//
//	go test -run '^$' -bench BenchmarkDurableWrite -benchtime 100x .
func BenchmarkDurableWrite(b *testing.B) {
	faults := service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true}
	type campaign struct {
		c    *logic.Circuit
		norm service.CampaignRequest
		key  string
	}
	campaigns := func(b *testing.B) []campaign {
		out := make([]campaign, b.N)
		for i := range out {
			req := service.CampaignRequest{Benchmark: "c432", Faults: faults, Patterns: 256, Seed: int64(i + 1)}
			norm, c, err := req.Normalize()
			if err != nil {
				b.Fatal(err)
			}
			out[i] = campaign{c, norm, service.CanonicalKey(c, norm)}
		}
		return out
	}
	ctx := context.Background()
	b.Run("durable", func(b *testing.B) {
		rs, err := resultstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		ds, err := dict.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		cs := campaigns(b)
		b.ReportAllocs()
		b.ResetTimer()
		for _, cp := range cs {
			rep, err := service.RunCampaignSharded(ctx, cp.c, cp.norm, service.ShardedOptions{Key: cp.key, Store: rs},
				&service.RunObserver{Dict: ds, DictKey: cp.key})
			if err != nil {
				b.Fatal(err)
			}
			if err := service.PersistReport(rs, cp.key, rep); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(treeBytes(b, rs.Dir()))/float64(b.N), "store_B/op")
	})
	b.Run("bare", func(b *testing.B) {
		cs := campaigns(b)
		b.ReportAllocs()
		b.ResetTimer()
		for _, cp := range cs {
			if _, err := service.RunCampaignObserved(ctx, cp.c, cp.norm, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// treeBytes is the size of the files under dir.
func treeBytes(b *testing.B, dir string) int64 {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		n += fi.Size()
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkUndetectedRead prices a client that needs the names, over
// HTTP in process on httptest: an op resubmits a full-fault campaign
// (256 random patterns; a hit), GETs its report, then GETs and decodes
// its /undetected lists. "mem" answers from the LRU of the server that
// ran the campaigns; "store" from a server restarted on their result
// directory. A "first" op reads a campaign's lists for the first time
// (b.N campaigns, one seed each, run before the timer); an "again" op
// reads the lists of one campaign whose lists were read before. Dated
// parent-vs-change results live in BENCH_faultsim.json.
//
//	go test -run '^$' -bench BenchmarkUndetectedRead -benchtime 200x .
func BenchmarkUndetectedRead(b *testing.B) {
	faults := service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true}
	cl := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	exchange := func(b *testing.B, req *http.Request) []byte {
		resp, err := cl.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode/100 != 2 {
			b.Fatalf("%s %s: HTTP %d (%v): %s", req.Method, req.URL.Path, resp.StatusCode, err, raw)
		}
		return raw
	}
	for _, circuit := range []string{"c432", "c880"} {
		for _, path := range []string{"mem", "store"} {
			for _, read := range []string{"first", "again"} {
				b.Run(circuit+"/"+path+"/"+read, func(b *testing.B) {
					n := b.N
					if read == "again" {
						n = 1
					}
					cfg := service.ManagerConfig{Workers: 2, CacheSize: n + 1, ResultDir: b.TempDir()}
					srv := service.NewServer(cfg)
					bodies := make([][]byte, n)
					for i := range bodies {
						req := service.CampaignRequest{Benchmark: circuit, Faults: faults, Seed: int64(i + 1)}
						bodies[i], _ = json.Marshal(req)
						job, err := srv.Manager().Submit(req)
						if err != nil {
							b.Fatal(err)
						}
						for !job.Status().State.Terminal() {
							time.Sleep(time.Millisecond)
						}
						if st := job.Status(); st.State != service.StateDone {
							b.Fatalf("campaign %s: %s", st.State, st.Error)
						}
					}
					if path == "store" {
						srv.Close()
						srv = service.NewServer(cfg)
					}
					ts := httptest.NewServer(srv.Handler())
					defer func() { ts.Close(); srv.Close() }()
					op := func(body []byte) {
						rq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", bytes.NewReader(body))
						var st service.JobStatus
						if err := json.Unmarshal(exchange(b, rq), &st); err != nil || !st.CacheHit {
							b.Fatalf("resubmit: cache_hit %t (%v), want a hit", st.CacheHit, err)
						}
						rq, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/report", nil)
						exchange(b, rq)
						rq, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/undetected", nil)
						var lists service.UndetectedJSON
						if err := json.Unmarshal(exchange(b, rq), &lists); err != nil || len(lists.TransistorIDDQ) == 0 {
							b.Fatalf("undetected lists: %d +IDDQ names (%v)", len(lists.TransistorIDDQ), err)
						}
					}
					if read == "again" {
						op(bodies[0])
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op(bodies[i%n])
					}
				})
			}
		}
	}
}

// BenchmarkResubmitHit times one resubmit of a finished campaign over
// HTTP, in process on httptest, for each report shape campaign_cold
// serves: c432, c880, c499 posted as .bench text, and mult8, each a
// full-fault campaign with 256 random patterns. An iteration is what
// perfbench's client does for a hit: POST the identical request and
// decode the born-done status, GET the report, decode the report.
// post_ns and get_ns are the server's share, decode_ns the client's;
// body_bytes is the report body. Dated parent-vs-change results live in
// BENCH_faultsim.json.
//
//	go test -run '^$' -bench BenchmarkResubmitHit -benchtime 200x .
func BenchmarkResubmitHit(b *testing.B) {
	srv := service.NewServer(service.ManagerConfig{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	cl := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	exchange := func(req *http.Request) ([]byte, int) {
		resp, err := cl.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		return raw, resp.StatusCode
	}
	submit := func(body []byte) (service.JobStatus, int) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", bytes.NewReader(body))
		raw, code := exchange(req)
		var st service.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			b.Fatalf("submit: HTTP %d: %s", code, raw)
		}
		return st, code
	}
	faults := service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true}
	for _, label := range []string{"c432", "c880", "c499.bench", "mult8"} {
		req := service.CampaignRequest{Benchmark: label, Faults: faults, Seed: 1}
		if name, ok := strings.CutSuffix(label, ".bench"); ok {
			c, err := bench.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			var text strings.Builder
			if err := logic.WriteBench(&text, c); err != nil {
				b.Fatal(err)
			}
			req.Benchmark, req.Netlist = "", text.String()
		}
		body, _ := json.Marshal(req)
		st, _ := submit(body)
		for !st.State.Terminal() {
			time.Sleep(5 * time.Millisecond)
			get, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, nil)
			raw, _ := exchange(get)
			if err := json.Unmarshal(raw, &st); err != nil {
				b.Fatal(err)
			}
		}
		if st.State != service.StateDone {
			b.Fatalf("%s: campaign %s: %s", label, st.State, st.Error)
		}
		b.Run(label, func(b *testing.B) {
			var post, get, decode time.Duration
			var size int
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				hit, code := submit(body)
				t1 := time.Now()
				if code != http.StatusOK || !hit.CacheHit {
					b.Fatalf("resubmit answered %d cache_hit %t, want a hit", code, hit.CacheHit)
				}
				rq, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+hit.ID+"/report", nil)
				raw, code := exchange(rq)
				t2 := time.Now()
				if code != http.StatusOK {
					b.Fatalf("report: HTTP %d", code)
				}
				var rep service.CampaignReport
				if err := json.Unmarshal(raw, &rep); err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				post, get, decode, size = post+t1.Sub(t0), get+t2.Sub(t1), decode+t3.Sub(t2), len(raw)
			}
			n := float64(b.N)
			b.ReportMetric(float64(post.Nanoseconds())/n, "post_ns")
			b.ReportMetric(float64(get.Nanoseconds())/n, "get_ns")
			b.ReportMetric(float64(decode.Nanoseconds())/n, "decode_ns")
			b.ReportMetric(float64(size), "body_bytes")
		})
	}
}

// BenchmarkSwitchLevelXOR2 times one switch-level evaluation of the XOR2
// with an injected polarity fault.
func BenchmarkSwitchLevelXOR2(b *testing.B) {
	spec := gates.Get(gates.XOR2)
	in := []logic.V{logic.L1, logic.L0}
	faults := map[string]logic.TFault{"t3": logic.TFaultStuckAtN}
	for i := 0; i < b.N; i++ {
		logic.EvalSwitch(spec, in, faults, nil)
	}
}

func randomPatterns(c *logic.Circuit, n int) []faultsim.Pattern {
	out := make([]faultsim.Pattern, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for k := range out {
		p := faultsim.Pattern{}
		for _, pi := range c.Inputs {
			p[pi] = logic.FromBool(next()&1 == 1)
		}
		out[k] = p
	}
	return out
}
