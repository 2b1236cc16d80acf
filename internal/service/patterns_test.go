package service

import (
	"strings"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/dict"
)

// TestBuildPatternsZeroBudget is the regression test for the silent
// zero-pattern campaign: on a circuit too wide for exhaustive
// simulation, a non-positive budget must fall back to the documented
// default instead of producing an empty pattern set (which reported
// 0% coverage as a successful campaign).
func TestBuildPatternsZeroBudget(t *testing.T) {
	c := bench.ParityTree(20) // 20 inputs > exhaustiveInputLimit
	for _, n := range []int{0, -1, -100} {
		pats := BuildPatterns(c, n, 1)
		if len(pats) != DefaultPatternBudget {
			t.Errorf("BuildPatterns(n=%d) built %d patterns, want default %d", n, len(pats), DefaultPatternBudget)
		}
	}
	if got := len(BuildPatterns(c, 17, 1)); got != 17 {
		t.Errorf("explicit budget: %d patterns, want 17", got)
	}
	// Narrow circuits stay exhaustive regardless of the budget.
	if got := len(BuildPatterns(bench.C17(), 0, 1)); got != 32 {
		t.Errorf("c17 exhaustive: %d patterns, want 32", got)
	}
}

// TestNormalizePatternCeiling: a pattern budget wider than a dictionary
// signature may be is refused up front, so no accepted campaign writes
// an artifact the decoder rejects.
func TestNormalizePatternCeiling(t *testing.T) {
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true}, Patterns: dict.MaxPatterns}
	if _, _, err := req.normalize(); err != nil {
		t.Fatalf("budget at the ceiling refused: %v", err)
	}
	req.Patterns++
	if _, _, err := req.normalize(); err == nil || !strings.Contains(err.Error(), "ceiling") {
		t.Fatalf("budget %d above the ceiling: err %v", req.Patterns, err)
	}
}

// TestNormalizeResolvesCorpusFamilies: the campaign request's
// benchmark field accepts the parameterized corpus names.
func TestNormalizeResolvesCorpusFamilies(t *testing.T) {
	req := CampaignRequest{
		Benchmark: "mult5",
		Faults:    FaultConfig{StuckAt: true},
	}
	_, c, err := req.normalize()
	if err != nil {
		t.Fatalf("normalize(mult5): %v", err)
	}
	if c.Name != "mult5" || c.Statistics().Gates < 80 {
		t.Fatalf("resolved %q with %d gates", c.Name, c.Statistics().Gates)
	}
	// Oversize parameters are rejected at normalize time, before any
	// job is queued.
	req.Benchmark = "decoder24"
	if _, _, err := req.normalize(); err == nil {
		t.Error("decoder24 must be rejected")
	}
	req.Benchmark = "nosuch"
	if _, _, err := req.normalize(); err == nil || !strings.Contains(err.Error(), "families") {
		t.Errorf("unknown benchmark error should list families, got: %v", err)
	}
}
