package service

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/dict"
)

// TestBuildPatternsDigest pins the exact pattern stream a campaign
// simulates: reports and .cpd dictionaries depend on every bit of it.
// Each case digests the patterns as one line per pattern, one character
// per primary input in input order. The c432 cases draw random patterns
// (300 ends in a partial 64-pattern block); c17 is exhaustive.
func TestBuildPatternsDigest(t *testing.T) {
	c432, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		n      int
		seed   int64
		digest string
	}{
		{"c432", 256, 1, "65aff0f845e1751fe65d55bcc0220d15c6c957920f1a15ab8c7bd8436e740f73"},
		{"c432", 300, 2, "fde35bf7906c527ca934800af8d5673610ac4d8c9451bfb133eccbe6efe2871c"},
		{"c17", 0, 1, "fbabdd8ad9236b12cc04e12bb4265be1d108d714829bbf1855cdf07eee893c97"},
	} {
		c := c432
		if tc.name == "c17" {
			c = bench.C17()
		}
		h := sha256.New()
		for _, p := range BuildPatterns(c, tc.n, tc.seed) {
			for _, pi := range c.Inputs {
				h.Write([]byte(p[pi].String()))
			}
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s n=%d seed=%d: pattern digest %s, want %s", tc.name, tc.n, tc.seed, got, tc.digest)
		}
	}
}

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

// TestBuildPatternSetAllocs: building a c432 pattern set allocates the
// same number of times for 64 patterns as for 256. The set is sized once
// and every drawn bit is written into it, so no allocation grows with
// the pattern count.
func TestBuildPatternSetAllocs(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { buildPatternSet(c, n, 1) })
	}
	if a64, a256 := allocs(64), allocs(256); a64 != a256 {
		t.Errorf("c432 pattern set: %.0f allocations for 64 patterns, %.0f for 256", a64, a256)
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
