// Command perfbench is the end-to-end benchmark of the CP-SiNW fault
// campaign service. It drives the real service.Server over httptest
// with closed-loop clients, checks every answer, and prints the
// metrics named in BENCHMARK.json; see perfbench/README.md.
//
//	perfbench --workload campaign_cold --seed 1 --seconds 30 --trace 0
//	perfbench --smoke          # few-second self-test of every workload
//	perfbench --regen-oracle   # rewrite perfbench/oracle.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cpsinw/internal/service"
)

// workRoot holds everything a run writes: stores and the span file.
const workRoot = ".bench_build/perfbench"

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	wl := flag.String("workload", "", "workload: campaign_cold, atpg_gen or store_diagnose")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced single-client run printing per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload for a few seconds and check the metric names")
	regen := flag.Bool("regen-oracle", false, "regenerate "+oraclePath+" for the default seed")
	flag.Parse()

	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return errors.New("run from the repository root (BENCHMARK.json not found)")
	}
	root, err := freshDir(filepath.Join(workRoot, "run"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	if *regen {
		return regenOracle(root)
	}
	orc, err := loadOracle()
	if err != nil {
		return err
	}
	if *smoke {
		return smokeTest(root, orc)
	}
	if *trace == 1 {
		m, ops, path, err := traceRun(*seed, *seconds, root, orc)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(workRoot, 0o755); err != nil {
			return err
		}
		keep := filepath.Join(workRoot, filepath.Base(path))
		if err := os.Rename(path, keep); err != nil {
			return err
		}
		fmt.Println("spans:", keep)
		return emit(output{Correct: true, Attempted: ops, Metrics: m}, nil)
	}
	if !knownWorkload(*wl) {
		return fmt.Errorf("unknown workload %q", *wl)
	}
	m, extra, res, err := timedRun(*wl, *seed, *seconds, root, orc)
	if err != nil {
		return err
	}
	return emit(output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, extra)
}

func knownWorkload(wl string) bool {
	for _, w := range workloadNames {
		if w == wl {
			return true
		}
	}
	return false
}

// emit prints every metric as a "name value unit" line (extra ones
// too), then the result object as the last line.
func emit(o output, extra map[string]metric) error {
	all := map[string]metric{}
	for k, v := range extra {
		all[k] = v
	}
	for k, v := range o.Metrics {
		all[k] = v
	}
	for _, k := range sortedMetricNames(all) {
		fmt.Printf("%-48s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setup starts a workload's deployment: warm-up ops for the cold
// workloads; for store_diagnose, the population campaigns, a server
// close, the dictionary targets read back, and a reopened server.
func setup(wl string, seed int64, dir string, orc *oracle) (*runner, error) {
	chk := newChecker(wl, seed, orc)
	if wl != wlStore {
		dep := newDeployment(wl, "")
		r := newRunner(wl, seed, dep, nil, chk)
		if res := r.runOps(warmOps(wl, seed), nil); res.failed > 0 {
			dep.stop()
			return nil, fmt.Errorf("%s warm-up: %d of %d ops failed", wl, res.failed, res.attempted)
		}
		return r, nil
	}
	dir, err := freshDir(dir)
	if err != nil {
		return nil, err
	}
	n := populationSize()
	pop := &population{keys: make([]string, n), reports: make([]*service.CampaignReport, n)}
	dep := newDeployment(wl, dir)
	r := newRunner(wl, seed, dep, pop, chk)
	res := r.runOps(populationOps(), func(o op, exs []exchange) {
		pop.keys[o.Pop], pop.reports[o.Pop] = exs[0].status.Key, exs[0].campaign
	})
	dep.stop()
	if res.failed > 0 {
		return nil, fmt.Errorf("store population: %d of %d campaigns failed", res.failed, res.attempted)
	}
	if err := pop.loadTargets(filepath.Join(dir, "dicts")); err != nil {
		return nil, err
	}
	dep.start()
	return r, nil
}

// timedRun sets up setupRepeats times (keeping the last deployment),
// then runs the closed loop for the given seconds. A canary samples the
// host's speed all along. Each end-to-end figure is reported in
// reference-host terms, every time multiplied and every rate divided by
// the host speed at the moment it was measured, and again in wall-clock
// terms as raw.<name>.
func timedRun(wl string, seed int64, seconds float64, root string, orc *oracle) (map[string]metric, map[string]metric, result, error) {
	can := startCanary()
	defer can.speed()
	type span struct{ from, to time.Time }
	var setups []span
	var r *runner
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		rr, err := setup(wl, seed, filepath.Join(root, fmt.Sprintf("%s-%d", wl, k)), orc)
		if err != nil {
			return nil, nil, result{}, err
		}
		setups = append(setups, span{t0, time.Now()})
		if k < setupRepeats-1 {
			rr.dep.stop()
		} else {
			r = rr
		}
	}
	mem := startMem()
	rss := sampleRSS(100 * time.Millisecond)
	res := r.timedLoop(time.Duration(seconds * float64(time.Second)))
	rssMean := rss.mean()
	r.dep.stop()
	alloc, pause := mem.perOp(res.attempted)
	host := can.speed()

	var setupRaw, setupRef []float64
	for _, s := range setups {
		secs := s.to.Sub(s.from).Seconds()
		setupRaw = append(setupRaw, secs)
		setupRef = append(setupRef, secs*host.over(s.from, s.to))
	}
	wins := windows(res.start, res.done, rateWindow[wl])
	if len(wins) == 0 { // a phase shorter than one window
		wins = []window{{from: res.start, to: res.start.Add(res.elapsed), ops: res.attempted - res.failed, campaigns: len(res.lat.get("campaign", nil))}}
	}
	var opsRaw, opsRef, campRaw, campRef []float64
	for _, w := range wins {
		sp := host.over(w.from, w.to)
		ops, camps := float64(w.ops)/w.secs(), float64(w.campaigns)/w.secs()
		opsRaw, opsRef = append(opsRaw, ops), append(opsRef, ops/sp)
		campRaw, campRef = append(campRaw, camps), append(campRef, camps/sp)
	}

	// rss_mb is not bounded: the Go scavenger returns memory per unit of
	// time, so the mean resident set grows with the host's speed.
	m := map[string]metric{}
	extra := map[string]metric{
		"rss_mb":                {rssMean, "MB"},
		"error_rate":            {float64(res.failed) / float64(max(res.attempted, 1)), "ratio"},
		"go.alloc_bytes_per_op": {alloc, "bytes"},
		"go.gc_pause_ms":        {pause, "ms"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"host.speed":            {host.overall(), "ratio"},
		"samples.window":        {float64(len(wins)), "count"},
	}
	both := func(name, unit string, raw, ref float64) {
		m[name] = metric{ref, unit}
		extra["raw."+name] = metric{raw, unit}
	}
	both("setup_s", "s", median(setupRaw), median(setupRef))
	both("ops_per_s", "1/s", median(opsRaw), median(opsRef))
	both("campaigns_per_s", "1/s", median(campRaw), median(campRef))
	type quant struct {
		name, kind string
		q          float64
	}
	for _, l := range []quant{{"campaign_p50_ms", "campaign", 0.5}, {"campaign_p90_ms", "campaign", 0.9}, {"hit_p50_ms", "hit", 0.5}, {"hit_p90_ms", "hit", 0.9}} {
		both(l.name, "ms", quantile(res.lat.get(l.kind, nil), l.q), quantile(res.lat.get(l.kind, host.at), l.q))
	}
	if wl == wlStore {
		for _, l := range []quant{{"store_hit_p50_ms", "hit_first_touch", 0.5}, {"diagnose_p50_ms", "diagnose", 0.5}, {"diagnose_p90_ms", "diagnose", 0.9}} {
			extra[l.name] = metric{quantile(res.lat.get(l.kind, host.at), l.q), "ms"}
		}
	}
	for _, kind := range []string{"campaign", "hit", "hit_first_touch", "diagnose", "diagnose_first_touch"} {
		if xs := res.lat.get(kind, nil); len(xs) > 0 {
			extra["samples."+kind] = metric{float64(len(xs)), "count"}
		}
	}
	return m, extra, res, nil
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames() (endToEnd, perLayer map[string]bool, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, err
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer, nil
}

func sameNames(what string, want map[string]bool, got map[string]metric) error {
	for k := range want {
		if _, ok := got[k]; !ok {
			return fmt.Errorf("%s: BENCHMARK.json names %s, the run did not print it", what, k)
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("%s: the run printed %s, BENCHMARK.json does not name it", what, k)
		}
	}
	return nil
}

// smokeTest runs every workload for a few seconds and one traced cycle
// of each, failing on any failed op or any metric-name mismatch.
func smokeTest(root string, orc *oracle) error {
	e2e, layers, err := benchmarkNames()
	if err != nil {
		return err
	}
	for _, wl := range workloadNames {
		m, _, res, err := timedRun(wl, 2, 2, filepath.Join(root, "smoke"), orc)
		if err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", wl, res.failed, res.attempted)
		}
		if err := sameNames(wl, e2e, m); err != nil {
			return err
		}
		for k, v := range m {
			if !(v.Value > 0) {
				return fmt.Errorf("%s: %s = %v, want > 0", wl, k, v.Value)
			}
		}
		fmt.Printf("smoke %s: %d ops ok\n", wl, res.attempted)
	}
	m, ops, _, err := traceRun(2, 0, filepath.Join(root, "smoke-trace"), orc)
	if err != nil {
		return err
	}
	if err := sameNames("trace", layers, m); err != nil {
		return err
	}
	fmt.Printf("smoke trace: %d ops ok, %d per-layer metrics\n", ops, len(m))
	fmt.Println("smoke: ok")
	return nil
}
