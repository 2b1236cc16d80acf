package atpg

import (
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// TestCampaignProgress checks the GenerateContext progress stream:
// every class is announced, Done strictly increases to Total within
// each class in at most 66 frames (the Done == 0 frame, one per
// ⌈total/64⌉ attempts, the closing frame), and the final class
// snapshots agree with the returned CampaignResult. c432's classes
// hold hundreds of faults, so its stream batches.
func TestCampaignProgress(t *testing.T) {
	c432, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*logic.Circuit{"mixed": parse(t, mixedCircuit), "c432": c432} {
		t.Run(name, func(t *testing.T) { checkCampaignProgress(t, c) })
	}
}

func checkCampaignProgress(t *testing.T, c *logic.Circuit) {
	faults := core.Universe(c, core.AllFaults())

	var snaps []Progress
	res := Generate(c, faults, Options{Progress: func(p Progress) {
		snaps = append(snaps, p)
	}})

	last := map[string]Progress{}
	frames := map[string]int{}
	seenOrder := []string{}
	for _, p := range snaps {
		prev, seen := last[p.Class]
		frames[p.Class]++
		if !seen {
			seenOrder = append(seenOrder, p.Class)
			if p.Done != 0 {
				t.Errorf("%s: first snapshot Done = %d, want 0", p.Class, p.Done)
			}
		} else {
			if p.Done <= prev.Done {
				t.Errorf("%s: Done did not increase: %d -> %d", p.Class, prev.Done, p.Done)
			}
			if p.Covered < prev.Covered || p.Untestable < prev.Untestable || p.Vectors < prev.Vectors {
				t.Errorf("%s: non-monotone snapshot %+v after %+v", p.Class, p, prev)
			}
		}
		if p.Total != last[p.Class].Total && seen {
			t.Errorf("%s: Total changed mid-class", p.Class)
		}
		last[p.Class] = p
	}
	want := []string{"stuck_at", "polarity", "channel_break"}
	if len(seenOrder) != 3 || seenOrder[0] != want[0] || seenOrder[1] != want[1] || seenOrder[2] != want[2] {
		t.Fatalf("class order = %v, want %v", seenOrder, want)
	}
	for _, class := range want {
		if p := last[class]; p.Done != p.Total {
			t.Errorf("%s: final Done = %d, Total = %d", class, p.Done, p.Total)
		}
		if frames[class] > 66 {
			t.Errorf("%s: %d frames, want at most 66", class, frames[class])
		}
	}
	if got := last["stuck_at"]; got.Total != res.StuckAtTargeted || got.Covered != res.StuckAtCovered {
		t.Errorf("stuck_at final %+v disagrees with result (%d targeted, %d covered)",
			got, res.StuckAtTargeted, res.StuckAtCovered)
	}
	if got := last["polarity"]; got.Total != res.PolarityTargeted || got.Covered != res.PolarityCovered {
		t.Errorf("polarity final %+v disagrees with result (%d targeted, %d covered)",
			got, res.PolarityTargeted, res.PolarityCovered)
	}
	cbCovered := res.CBSPCovered + res.CBDPCovered
	if got := last["channel_break"]; got.Covered != cbCovered {
		t.Errorf("channel_break final %+v disagrees with result (%d covered)", got, cbCovered)
	}
	if final := snaps[len(snaps)-1]; final.Vectors != res.Set.TotalVectors() {
		t.Errorf("final Vectors = %d, want %d", final.Vectors, res.Set.TotalVectors())
	}
}
