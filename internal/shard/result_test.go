package shard

import (
	"encoding/json"
	"testing"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
)

func sigFixture(t *testing.T, nFaults, nPatterns int, leak bool) *faultsim.SignatureCapture {
	t.Helper()
	c := faultsim.NewSignatureCapture(nFaults, nPatterns)
	for f := 0; f < nFaults; f++ {
		for p := 0; p < nPatterns; p++ {
			if (f+p)%3 == 0 {
				c.Out(f)[p/64] |= 1 << uint(p%64)
			}
			if leak && (f*p)%5 == 1 {
				c.Leak(f)[p/64] |= 1 << uint(p%64)
			}
		}
	}
	return c
}

// rowsOf copies a full capture's rows for r into a capture of r's own,
// what a shard that simulated only faults [r.Start, r.End) captures.
func rowsOf(full *faultsim.SignatureCapture, r Range) *faultsim.SignatureCapture {
	c := faultsim.NewSignatureCapture(r.Len(), full.NPatterns)
	for k := 0; k < r.Len(); k++ {
		copy(c.Out(k), full.Out(r.Start+k))
		copy(c.Leak(k), full.Leak(r.Start+k))
	}
	return c
}

// faultUniverse is a synthetic n-fault universe.
func faultUniverse(n int) []core.Fault {
	u := make([]core.Fault, n)
	for i := range u {
		u[i] = core.Fault{Net: string(rune('a' + i)), GateIdx: i, Pin: -1}
	}
	return u
}

// TestMergeSignaturesRoundTrip cuts a capture into shard parts, sends
// each through the store's wire form (JSON) and back, and merges them:
// the planes must come back bit for bit (the leak plane through the
// +IDDQ sweep, the only class whose leak rows persist). The 3-fault
// class cut 5 ways leaves two shards with an empty range, which store
// no rows yet must decode to an empty capture.
func TestMergeSignaturesRoundTrip(t *testing.T) {
	const nPatterns = 130 // spans >2 words per row
	for _, tc := range []struct{ nFaults, k int }{{23, 4}, {3, 5}} {
		universe := faultUniverse(tc.nFaults)
		for _, withLeak := range []bool{false, true} {
			full := sigFixture(t, tc.nFaults, nPatterns, withLeak)
			// A k-fault stuck-at class, not decoded below, lets the plan
			// cut the transistor class finer than its size.
			plan := NewPlan("", tc.k, tc.k, tc.nFaults, 0, true)
			parts := make([]*Part, 0, plan.Total)
			for _, j := range plan.Jobs {
				p := &Part{Range: j.Transistor, Dets: make([]faultsim.Detection, j.Transistor.Len()), Sig: rowsOf(full, j.Transistor)}
				o := &Output{TransistorV: p}
				if withLeak {
					o = &Output{TransistorV: &Part{Range: j.Transistor, Dets: p.Dets}, TransistorIQ: p}
				}
				raw, err := json.Marshal(o.Encode(j, ""))
				if err != nil {
					t.Fatal(err)
				}
				var stored Result
				if err := json.Unmarshal(raw, &stored); err != nil {
					t.Fatal(err)
				}
				back, err := stored.Decode(j, nil, universe, nil, withLeak, nPatterns)
				if err != nil {
					t.Fatalf("%d faults, withLeak=%t: shard %d: %v", tc.nFaults, withLeak, j.Index, err)
				}
				if withLeak {
					parts = append(parts, back.TransistorIQ)
				} else {
					parts = append(parts, back.TransistorV)
				}
			}
			// Shuffle order: merge must sort by range.
			parts[0], parts[2] = parts[2], parts[0]

			merged, err := MergeSignatures(tc.nFaults, nPatterns, parts)
			if err != nil {
				t.Fatalf("%d faults, withLeak=%t: %v", tc.nFaults, withLeak, err)
			}
			for f := 0; f < tc.nFaults; f++ {
				for w, v := range full.Out(f) {
					if merged.Out(f)[w] != v {
						t.Fatalf("%d faults, withLeak=%t: out plane differs at fault %d word %d", tc.nFaults, withLeak, f, w)
					}
				}
				for w, v := range full.Leak(f) {
					if merged.Leak(f)[w] != v {
						t.Fatalf("%d faults, withLeak=%t: leak plane differs at fault %d word %d", tc.nFaults, withLeak, f, w)
					}
				}
			}
		}
	}
}

func TestMergeSignaturesRejectsGapsAndMissingRows(t *testing.T) {
	const nFaults, nPatterns = 10, 8
	full := sigFixture(t, nFaults, nPatterns, false)
	part := func(r Range, sig bool) *Part {
		p := &Part{Range: r, Dets: make([]faultsim.Detection, r.Len())}
		if sig {
			p.Sig = rowsOf(full, r)
		}
		return p
	}

	gap := []*Part{part(Range{0, 4}, true), part(Range{5, 10}, true)}
	if _, err := MergeSignatures(nFaults, nPatterns, gap); err == nil {
		t.Fatal("merge accepted a coverage gap")
	}
	missing := []*Part{part(Range{0, 10}, false)}
	if _, err := MergeSignatures(nFaults, nPatterns, missing); err == nil {
		t.Fatal("merge accepted parts without signature rows")
	}

	// A malformed or missing stored row fails the decode, before any
	// merge: the stuck-at output plane, and the +IDDQ sweep's leak plane.
	plan := NewPlan("", 1, nFaults, 0, 0, true)
	j := plan.Jobs[0]
	res := (&Output{StuckAt: part(j.StuckAt, true)}).Encode(j, "")
	res.StuckAt.Out[0] = "AAAA"
	if _, err := res.Decode(j, faultUniverse(nFaults), nil, nil, false, nPatterns); err == nil {
		t.Fatal("decode accepted a malformed signature row")
	}
	res.StuckAt.Out = nil
	if _, err := res.Decode(j, faultUniverse(nFaults), nil, nil, false, nPatterns); err == nil {
		t.Fatal("decode accepted a captured class without signature rows")
	}

	iq := NewPlan("", 1, 0, nFaults, 0, true).Jobs[0]
	encodeIQ := func() *Result {
		tr := part(iq.Transistor, true)
		return (&Output{TransistorV: &Part{Range: iq.Transistor, Dets: tr.Dets}, TransistorIQ: tr}).Encode(iq, "")
	}
	if _, err := encodeIQ().Decode(iq, nil, faultUniverse(nFaults), nil, true, nPatterns); err != nil {
		t.Fatalf("decode rejected a well-formed +IDDQ result: %v", err)
	}
	noLeak := encodeIQ()
	noLeak.TransistorIQ.Leak = nil
	if _, err := noLeak.Decode(iq, nil, faultUniverse(nFaults), nil, true, nPatterns); err == nil {
		t.Fatal("decode accepted a +IDDQ result without leak rows")
	}
	noIQ := encodeIQ()
	noIQ.TransistorIQ = nil
	if _, err := noIQ.Decode(iq, nil, faultUniverse(nFaults), nil, true, nPatterns); err == nil {
		t.Fatal("decode accepted a result missing the +IDDQ class")
	}
}

func TestMergeDetectionsRoundTrip(t *testing.T) {
	universe := faultUniverse(9)
	full := make([]faultsim.Detection, len(universe))
	for i := range full {
		full[i] = faultsim.Detection{Fault: universe[i], Method: faultsim.ByOutput, Pattern: i * 2}
	}
	full[4].Method = faultsim.ByNone // undetected fault keeps its zero record

	plan := NewPlan("", 3, len(universe), 0, 0, false)
	parts := make([]*Part, 0, plan.Total)
	for _, j := range plan.Jobs {
		r := j.StuckAt
		o := &Output{StuckAt: &Part{Range: r, Dets: full[r.Start:r.End]}}
		back, err := o.Encode(j, "").Decode(j, universe, nil, nil, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, back.StuckAt)
	}
	merged, err := MergeDetections(len(universe), parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if merged[i] != full[i] {
			t.Fatalf("detection %d: got %+v, want %+v", i, merged[i], full[i])
		}
	}

	// Overlap detection: duplicated range must fail.
	bad := append(parts[:0:0], parts...)
	bad = append(bad, parts[1])
	if _, err := MergeDetections(len(universe), bad); err == nil {
		t.Fatal("merge accepted overlapping ranges")
	}
}

func TestMatchesRejectsMismatches(t *testing.T) {
	plan := NewPlan("eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee", 2, 8, 6, 0, false)
	j := plan.Jobs[1]
	ok := &Result{
		Key: j.Key, CampaignKey: plan.CampaignKey, Index: j.Index, Total: j.Total,
		StuckAt:     &ClassResult{Range: j.StuckAt, Dets: make([]Det, j.StuckAt.Len())},
		TransistorV: &ClassResult{Range: j.Transistor, Dets: make([]Det, j.Transistor.Len())},
	}
	if err := ok.Matches(j); err != nil {
		t.Fatal(err)
	}
	wrongKey := *ok
	wrongKey.Key = plan.Jobs[0].Key
	if err := wrongKey.Matches(j); err == nil {
		t.Fatal("accepted a result keyed for another shard")
	}
	wrongRange := *ok
	wrongRange.StuckAt = &ClassResult{Range: plan.Jobs[0].StuckAt, Dets: make([]Det, plan.Jobs[0].StuckAt.Len())}
	if err := wrongRange.Matches(j); err == nil {
		t.Fatal("accepted a result with another shard's range")
	}
}
