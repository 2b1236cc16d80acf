package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"

	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/logic"
	"cpsinw/internal/service"
)

// defaultSeed is the seed the committed oracle was generated for.
const defaultSeed = 1

const oraclePath = "perfbench/oracle.json"

// expectation is one answer's expected content: per-class [total,
// detected] counts and the ATPG outcome for campaigns, the target fault
// and the class that must rank first for diagnoses.
type expectation struct {
	Classes map[string][2]int `json:"classes,omitempty"`
	ATPG    *service.ATPGJSON `json:"atpg,omitempty"`
	Fault   string            `json:"fault,omitempty"`
	Class   string            `json:"class,omitempty"`
}

// oracle is the committed expected-results table for defaultSeed.
// Population entries hold for every seed: the population is fixed.
type oracle struct {
	Seed       int64                    `json:"seed"`
	Population []expectation            `json:"population"`
	Ops        map[string][]expectation `json:"ops"`
}

func loadOracle() (*oracle, error) {
	raw, err := os.ReadFile(oraclePath)
	if err != nil {
		return nil, err
	}
	o := &oracle{}
	if err := json.Unmarshal(raw, o); err != nil {
		return nil, fmt.Errorf("%s: %w", oraclePath, err)
	}
	if o.Seed != defaultSeed {
		return nil, fmt.Errorf("%s is for seed %d, want %d", oraclePath, o.Seed, defaultSeed)
	}
	return o, nil
}

// writeOracle writes one expectation per line, so regenerations diff
// by op.
func writeOracle(o *oracle) error {
	f, err := os.Create(oraclePath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	line := func(v interface{}) string { b, _ := json.Marshal(v); return string(b) }
	list := func(es []expectation) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = line(e)
		}
		return "[\n    " + strings.Join(parts, ",\n    ") + "\n  ]"
	}
	fmt.Fprintf(w, "{\n  \"seed\": %d,\n  \"population\": %s,\n  \"ops\": {", o.Seed, list(o.Population))
	for i, wl := range workloadNames {
		sep := ","
		if i == len(workloadNames)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "\n  %q: %s%s", wl, list(o.Ops[wl]), sep)
	}
	fmt.Fprint(w, "\n  }\n}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func classesOf(rep *service.CampaignReport) map[string][2]int {
	out := map[string][2]int{}
	add := func(name string, c *service.CoverageJSON) {
		if c != nil {
			out[name] = [2]int{c.Total, c.Detected}
		}
	}
	add("stuck_at", rep.StuckAt)
	add("transistor", rep.Transistor)
	add("transistor_iddq", rep.TransistorIDDQ)
	add("bridges", rep.Bridges)
	return out
}

func expectationOf(rep *service.CampaignReport) expectation {
	e := expectation{Classes: classesOf(rep)}
	if rep.ATPG != nil {
		a := *rep.ATPG
		e.ATPG = &a
	}
	return e
}

// checker validates every answer: against the oracle for the default
// seed, and against invariants that hold for any seed.
type checker struct {
	wl  string
	all *oracle // the committed table; nil while regenerating it
	orc *oracle // all, when the run uses defaultSeed

	mu     sync.Mutex
	shapes map[string]shape // universe sizes per circuit label
}

func newChecker(wl string, seed int64, orc *oracle) *checker {
	c := &checker{wl: wl, all: orc, shapes: map[string]shape{}}
	if seed == defaultSeed {
		c.orc = orc
	}
	return c
}

// shape is what a campaign's report must contain regardless of seed:
// the fault-universe size of every enabled class and the pattern count.
type shape struct {
	classes  map[string]int
	patterns int
	atpg     int // ATPG targeted faults, all classes
}

func shapeOf(c *logic.Circuit, req service.CampaignRequest) shape {
	s := shape{classes: map[string]int{}, patterns: len(service.BuildPatterns(c, req.Patterns, req.Seed))}
	f := req.Faults
	if f.StuckAt {
		s.classes["stuck_at"] = len(core.Universe(c, core.ClassicalOnly()))
	}
	uopt := core.UniverseOptions{ChannelBreak: f.StuckOpen, StuckOn: f.StuckOn, Polarity: f.Polarity}
	if uopt.ChannelBreak || uopt.StuckOn || uopt.Polarity {
		n := len(core.Universe(c, uopt))
		s.classes["transistor"] = n
		if f.IDDQ {
			s.classes["transistor_iddq"] = n
		}
	}
	if f.Bridges {
		s.classes["bridges"] = len(core.NeighborBridges(c, f.BridgeWindow))
	}
	if req.ATPG {
		uopt.LineStuckAt = f.StuckAt
		s.atpg = len(core.Universe(c, uopt))
	}
	return s
}

// shapeFor caches shapes of fixed circuits; generated topologies
// ("randl") are different every op.
func (ck *checker) shapeFor(o op) (shape, error) {
	cacheKey := o.Label + fmt.Sprint(o.Req.ATPG, o.Req.Faults)
	ck.mu.Lock()
	s, ok := ck.shapes[cacheKey]
	ck.mu.Unlock()
	if ok && o.Label != "randl" {
		return s, nil
	}
	norm, c, err := o.Req.Normalize()
	if err != nil {
		return s, err
	}
	s = shapeOf(c, norm)
	ck.mu.Lock()
	ck.shapes[cacheKey] = s
	ck.mu.Unlock()
	return s, nil
}

// campaign checks a simulated campaign's report.
func (ck *checker) campaign(o op, rep *service.CampaignReport) error {
	s, err := ck.shapeFor(o)
	if err != nil {
		return err
	}
	if err := invariants(rep, s); err != nil {
		return fmt.Errorf("%s: %w", o.Label, err)
	}
	if want, ok := ck.expected(o); ok {
		if got := expectationOf(rep); !reflect.DeepEqual(got.Classes, want.Classes) || !reflect.DeepEqual(got.ATPG, want.ATPG) {
			return fmt.Errorf("%s op %d: got %s, oracle says %s", o.Label, o.Index, jsonString(got), jsonString(want))
		}
	}
	return nil
}

func (ck *checker) expected(o op) (expectation, bool) {
	switch {
	case o.Kind == opHit || ck.all == nil:
		return expectation{}, false
	case o.Populate:
		// The population is fixed, so its table holds for every seed.
		if o.Pop >= len(ck.all.Population) {
			return expectation{}, false
		}
		return ck.all.Population[o.Pop], true
	case ck.orc == nil || o.Index < 0 || o.Index >= len(ck.orc.Ops[ck.wl]):
		return expectation{}, false
	}
	return ck.orc.Ops[ck.wl][o.Index], true
}

func invariants(rep *service.CampaignReport, s shape) error {
	if rep.Patterns != s.patterns {
		return fmt.Errorf("report has %d patterns, want %d", rep.Patterns, s.patterns)
	}
	got := classesOf(rep)
	if len(got) != len(s.classes) {
		return fmt.Errorf("report covers classes %v, want %v", got, s.classes)
	}
	for name, total := range s.classes {
		td, ok := got[name]
		if !ok || td[0] != total || td[1] < 0 || td[1] > total {
			return fmt.Errorf("class %s: [total detected] = %v, universe has %d", name, td, total)
		}
	}
	if rep.Transistor != nil && rep.TransistorIDDQ != nil && rep.TransistorIDDQ.Detected < rep.Transistor.Detected {
		return fmt.Errorf("IDDQ coverage %d below voltage-only coverage %d", rep.TransistorIDDQ.Detected, rep.Transistor.Detected)
	}
	for _, c := range []*service.CoverageJSON{rep.StuckAt, rep.Transistor, rep.TransistorIDDQ, rep.Bridges} {
		if c != nil && c.Total > 0 && math.Abs(c.Percent-100*float64(c.Detected)/float64(c.Total)) > 1e-9 {
			return fmt.Errorf("coverage percent %.6f disagrees with %d/%d", c.Percent, c.Detected, c.Total)
		}
	}
	a := rep.ATPG
	if (a != nil) != (s.atpg > 0) {
		return errors.New("ATPG section present without ATPG, or missing with it")
	}
	if a != nil {
		targeted := a.StuckAtTargeted + a.PolarityTargeted + a.CBSPTargeted + a.CBDPTargeted
		covered := a.StuckAtCovered + a.PolarityCovered + a.CBSPCovered + a.CBDPCovered
		switch {
		case targeted != s.atpg:
			return fmt.Errorf("ATPG targeted %d faults, universe has %d", targeted, s.atpg)
		case a.StuckAtCovered > a.StuckAtTargeted || a.PolarityCovered > a.PolarityTargeted ||
			a.CBSPCovered > a.CBSPTargeted || a.CBDPCovered > a.CBDPTargeted:
			return fmt.Errorf("ATPG covers more than it targets: %+v", *a)
		case covered+a.Untestable > targeted:
			return fmt.Errorf("ATPG covered %d + untestable %d exceed %d targeted", covered, a.Untestable, targeted)
		case covered > 0 && a.TotalVectors == 0:
			return errors.New("ATPG covered faults with no vectors")
		}
	}
	return nil
}

// sameReport checks that a cache- or store-served report equals the
// report the campaign produced, apart from its elapsed time.
func (ck *checker) sameReport(got, want *service.CampaignReport) error {
	if got == nil || want == nil {
		return errors.New("missing report")
	}
	g, w := *got, *want
	g.ElapsedMS, w.ElapsedMS = 0, 0
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("served report differs from the simulated one: %s vs %s", jsonString(expectationOf(&g)), jsonString(expectationOf(&w)))
	}
	return nil
}

// diagnosis checks that the observed signature of target ranks
// target's equivalence class first, as an exact match.
func (ck *checker) diagnosis(o op, target dict.Entry, resp *service.DiagnoseResponse) error {
	if len(resp.Candidates) == 0 {
		return fmt.Errorf("diagnose %s: no candidates", target.Fault)
	}
	top := resp.Candidates[0]
	if top.Class != target.Class || !top.Exact {
		return fmt.Errorf("diagnose %s: rank 1 is %s (class %s, exact %v), want class %s", target.Fault, top.Fault, top.Class, top.Exact, target.Class)
	}
	if want, ok := ck.expected(o); ok && (want.Fault != target.Fault || want.Class != top.Class) {
		return fmt.Errorf("diagnose op %d: target %s class %s, oracle says %s class %s", o.Index, target.Fault, top.Class, want.Fault, want.Class)
	}
	return nil
}

func jsonString(v interface{}) string {
	b, _ := json.Marshal(v)
	return string(b)
}
