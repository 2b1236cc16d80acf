package atpg

import (
	"context"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// TestGenerateAllocBound guards the dense implication and the dense
// vectors: one c432 campaign over the stuck-at, polarity and
// channel-break universe allocates 3,477 times (3,507 while the class
// lists grew append by append). The map-based implication allocated
// about 2.1M (two fresh net maps per decision), and one Pattern map per
// generated vector made it about 5.7k. The bound leaves 2x headroom.
func TestGenerateAllocBound(t *testing.T) {
	const bound = 7_000
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	universe := core.Universe(c, core.UniverseOptions{LineStuckAt: true, Polarity: true, ChannelBreak: true})
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := GenerateContext(context.Background(), c, universe, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("c432 campaign: %.0f allocations", allocs)
	if allocs > bound {
		t.Errorf("c432 campaign made %.0f allocations, bound %d", allocs, bound)
	}
}
