package faultsim

import (
	"context"
	"errors"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
)

// twoPatternCampaign builds a channel-break campaign with several open
// faults and enough pairs that cancellation can land mid-run.
func twoPatternCampaign(t *testing.T) (*Simulator, []core.Fault, [][2]Pattern) {
	t.Helper()
	c := bench.C17()
	faults := core.Universe(c, core.UniverseOptions{ChannelBreak: true})
	if len(faults) < 2 {
		t.Fatalf("campaign needs >= 2 open faults, have %d", len(faults))
	}
	pats := ExhaustivePatterns(c)
	pairs := make([][2]Pattern, 0, len(pats)-1)
	for k := 0; k+1 < len(pats); k++ {
		pairs = append(pairs, [2]Pattern{pats[k], pats[k+1]})
	}
	return New(c), faults, pairs
}

// allEngines is every selectable engine.
var allEngines = []Engine{EngineReference, EnginePacked}

// TestTwoPatternCanceledContext: a canceled context aborts the campaign
// on every engine path before any fault is swept.
func TestTwoPatternCanceledContext(t *testing.T) {
	for _, eng := range allEngines {
		sim, faults, pairs := twoPatternCampaign(t)
		sim.Engine = eng
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out, err := sim.RunTwoPatternContext(ctx, faults, pairs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", eng, err)
		}
		if out != nil {
			t.Errorf("%v: returned %d detections after cancellation", eng, len(out))
		}
	}
}

// TestTwoPatternMidCampaignCancel cancels from the progress callback
// after the first fault completes — the way a service deadline lands
// mid-stage — and requires every engine path to stop between faults
// with the context's error.
func TestTwoPatternMidCampaignCancel(t *testing.T) {
	for _, eng := range allEngines {
		sim, faults, pairs := twoPatternCampaign(t)
		sim.Engine = eng
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		lastDone := -1
		sim.Progress = func(p Progress) {
			lastDone = p.Done
			if p.Done >= 1 {
				cancel()
			}
		}
		out, err := sim.RunTwoPatternContext(ctx, faults, pairs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", eng, err)
		}
		if out != nil {
			t.Errorf("%v: returned detections after mid-campaign cancellation", eng)
		}
		if lastDone < 1 || lastDone >= len(faults) {
			t.Errorf("%v: canceled after %d/%d faults, want mid-campaign", eng, lastDone, len(faults))
		}
	}
}

// TestTwoPatternProgressReported: every two-pattern engine path reports
// a complete monotone progress stream — the packed path used to skip
// the sink entirely, stalling SSE frames and stage ETAs at zero.
func TestTwoPatternProgressReported(t *testing.T) {
	for _, eng := range allEngines {
		sim, faults, pairs := twoPatternCampaign(t)
		sim.Engine = eng
		var snaps []Progress
		sim.Progress = func(p Progress) { snaps = append(snaps, p) }
		out, err := sim.RunTwoPattern(faults, pairs)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if len(snaps) == 0 {
			t.Fatalf("%v: no progress snapshots", eng)
		}
		first, last := snaps[0], snaps[len(snaps)-1]
		if first.Stage != "two_pattern" || first.Done != 0 || first.Total != len(faults) {
			t.Errorf("%v: initial snapshot = %+v, want stage two_pattern, 0/%d", eng, first, len(faults))
		}
		if last.Done != len(faults) {
			t.Errorf("%v: final Done = %d, want %d", eng, last.Done, len(faults))
		}
		detected := 0
		for _, d := range out {
			if d.Detected() {
				detected++
			}
		}
		if last.Detected != detected {
			t.Errorf("%v: final Detected = %d, want %d", eng, last.Detected, detected)
		}
		if last.GateEvals == 0 {
			t.Errorf("%v: no gate evaluations reported", eng)
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i].Done < snaps[i-1].Done || snaps[i].Detected < snaps[i-1].Detected ||
				snaps[i].GateEvals < snaps[i-1].GateEvals {
				t.Fatalf("%v: snapshot %d not monotone: %+v -> %+v", eng, i, snaps[i-1], snaps[i])
			}
		}
	}
}
