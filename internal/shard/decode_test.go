package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
)

// c17Fixture is a small real campaign to build and decode shard
// artifacts against: c17's stuck-at, transistor and bridge universes
// over its 32 exhaustive patterns, with IDDQ observed.
type c17Fixture struct {
	c    *logic.Circuit
	sa   []core.Fault
	tr   []core.Fault
	br   []core.Bridge
	pats []faultsim.Pattern
}

func newC17Fixture() *c17Fixture {
	c := bench.C17()
	return &c17Fixture{
		c:    c,
		sa:   core.Universe(c, core.ClassicalOnly()),
		tr:   core.Universe(c, core.UniverseOptions{ChannelBreak: true, StuckOn: true, Polarity: true}),
		br:   core.NeighborBridges(c, 2),
		pats: faultsim.ExhaustivePatterns(c),
	}
}

func (fx *c17Fixture) plan(k int, capture bool) *Plan {
	return NewPlan(strings.Repeat("c", 64), k, len(fx.sa), len(fx.tr), len(fx.br), capture)
}

// result simulates sub-job j the way the service does (one transistor
// sweep for both answers, captures where j captures) and encodes it.
func (fx *c17Fixture) result(tb testing.TB, j SubJob) *Result {
	tb.Helper()
	ctx := context.Background()
	sim := faultsim.New(fx.c)
	capture := func(r Range) *faultsim.SignatureCapture {
		if !j.Capture {
			return nil
		}
		sim.Signatures = faultsim.NewSignatureCapture(r.Len(), len(fx.pats))
		return sim.Signatures
	}
	o := &Output{StuckAt: &Part{Range: j.StuckAt}, TransistorV: &Part{Range: j.Transistor}, TransistorIQ: &Part{Range: j.Transistor}, Bridges: &Part{Range: j.Bridges}}
	o.StuckAt.Sig = capture(j.StuckAt)
	o.StuckAt.Dets = sim.RunStuckAt(fx.sa[j.StuckAt.Start:j.StuckAt.End], fx.pats)
	o.TransistorIQ.Sig = capture(j.Transistor)
	var err error
	o.TransistorV.Dets, o.TransistorIQ.Dets, err = sim.RunTransistorBoth(ctx, fx.tr[j.Transistor.Start:j.Transistor.End], fx.pats, 1)
	if err != nil {
		tb.Fatal(err)
	}
	sim.Signatures = nil
	if o.Bridges.Dets, err = sim.RunBridgesObserved(ctx, fx.br[j.Bridges.Start:j.Bridges.End], fx.pats, true); err != nil {
		tb.Fatal(err)
	}
	return o.Encode(j, strings.Repeat("c", 64))
}

func (fx *c17Fixture) decode(r *Result, j SubJob, iddq bool) (*Output, error) {
	return r.Decode(j, fx.sa, fx.tr, fx.br, iddq, len(fx.pats))
}

// cloneResult deep-copies a result through its wire form.
func cloneResult(tb testing.TB, r *Result) *Result {
	tb.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(raw, &out); err != nil {
		tb.Fatal(err)
	}
	return &out
}

// parentFormat renders r's wire form as builds before the one-record
// form stored it: every detected bridge record also carried "d":true,
// which only repeated its method.
func parentFormat(tb testing.TB, r *Result) []byte {
	tb.Helper()
	recs := make([][]byte, len(r.Bridges.Dets))
	for k, d := range r.Bridges.Dets {
		recs[k] = fmt.Appendf(nil, `{"p":%d}`, d.Pattern)
		if d.Method != "" {
			recs[k] = fmt.Appendf(nil, `{"m":%q,"p":%d,"d":true}`, d.Method, d.Pattern)
		}
	}
	bare := *r
	bare.Bridges = &ClassResult{Range: r.Bridges.Range}
	raw, err := json.Marshal(&bare)
	if err != nil {
		tb.Fatal(err)
	}
	// Only the bare bridge class has no records array.
	if bytes.Count(raw, []byte(`"dets":null`)) != 1 {
		tb.Fatalf("cannot place the bridge records in %s", raw)
	}
	dets := append(append([]byte(`"dets":[`), bytes.Join(recs, []byte(","))...), ']')
	return bytes.Replace(raw, []byte(`"dets":null`), dets, 1)
}

// TestDecodeParentBridgeRecords decodes a c17 artifact whose bridge
// records carry the "d" flag older builds wrote: stored artifacts must
// decode to the same detections as the records of this build.
func TestDecodeParentBridgeRecords(t *testing.T) {
	fx := newC17Fixture()
	j := fx.plan(1, false).Jobs[0]
	good := fx.result(t, j)
	good.Bridges.Dets[0] = Det{Method: "iddq", Pattern: 3}
	good.Bridges.Dets[1] = Det{Pattern: -1}
	want, err := fx.decode(good, j, true)
	if err != nil {
		t.Fatal(err)
	}
	raw := parentFormat(t, good)
	if !bytes.Contains(raw, []byte(`"dets":[{"m":"iddq","p":3,"d":true},{"p":-1}`)) {
		t.Fatalf("artifact is not in the parent's bridge record form: %s", raw)
	}
	var parent Result
	if err := json.Unmarshal(raw, &parent); err != nil {
		t.Fatal(err)
	}
	got, err := fx.decode(&parent, j, true)
	if err != nil {
		t.Fatalf("decode rejected a stored artifact: %v", err)
	}
	if !slices.Equal(got.Bridges.Dets, want.Bridges.Dets) {
		t.Errorf("bridges decode to %v, want %v", got.Bridges.Dets, want.Bridges.Dets)
	}
	if got.Bridges.Dets[0] != (faultsim.Detection{Method: faultsim.ByIDDQ, Pattern: 3}) || got.Bridges.Dets[1] != (faultsim.Detection{Pattern: -1}) {
		t.Errorf("records decode to %v and %v", got.Bridges.Dets[0], got.Bridges.Dets[1])
	}
}

// TestDecodeRejectsBadRecords damages one record (or one fault's record
// pair) of a real c17 artifact per case: every record a class cannot
// produce and every pair that breaks the two-answer invariant must be
// rejected, and every well-formed variant must decode.
func TestDecodeRejectsBadRecords(t *testing.T) {
	fx := newC17Fixture()
	j := fx.plan(1, false).Jobs[0]
	good := fx.result(t, j)
	if _, err := fx.decode(good, j, true); err != nil {
		t.Fatalf("decode rejected the simulated artifact: %v", err)
	}
	n := len(fx.pats)
	pair := func(v, q Det) func(*Result) {
		return func(r *Result) { r.TransistorV.Dets[0], r.TransistorIQ.Dets[0] = v, q }
	}
	// withoutIDDQ turns the artifact into one of a campaign without IDDQ
	// (its bridges detect by voltage only) before damaging it.
	withoutIDDQ := func(damage func(*Result)) func(*Result) {
		return func(r *Result) {
			for k, d := range r.Bridges.Dets {
				if d.Method == "iddq" {
					r.Bridges.Dets[k] = Det{Pattern: -1}
				}
			}
			damage(r)
		}
	}
	for _, tc := range []struct {
		name   string
		iddq   bool
		damage func(*Result)
		ok     bool
	}{
		{"stuck-at iddq method", true, func(r *Result) { r.StuckAt.Dets[0] = Det{Method: "iddq", Pattern: 0} }, false},
		{"stuck-at unknown method", true, func(r *Result) { r.StuckAt.Dets[0] = Det{Method: "bogus", Pattern: 0} }, false},
		{"voltage iddq method", true, func(r *Result) { r.TransistorV.Dets[0] = Det{Method: "iddq", Pattern: 0} }, false},
		{"+IDDQ two-pattern method", true, func(r *Result) { r.TransistorIQ.Dets[0] = Det{Method: "two-pattern", Pattern: 0} }, false},
		{"bridge unknown method", true, func(r *Result) { r.Bridges.Dets[0] = Det{Method: "x", Pattern: 0} }, false},
		{"bridge iddq without IDDQ", false, withoutIDDQ(func(r *Result) { r.Bridges.Dets[0] = Det{Method: "iddq", Pattern: 0} }), false},
		{"detection past the patterns", true, func(r *Result) { r.StuckAt.Dets[0] = Det{Method: "output", Pattern: n} }, false},
		{"detection at pattern -1", true, func(r *Result) { r.StuckAt.Dets[0] = Det{Method: "output", Pattern: -1} }, false},
		{"undetected with a pattern", true, func(r *Result) { r.StuckAt.Dets[0] = Det{Pattern: 0} }, false},
		{"undetected bridge with a pattern", true, func(r *Result) { r.Bridges.Dets[0] = Det{Pattern: 3} }, false},
		{"+IDDQ later than voltage", true, pair(Det{Method: "output", Pattern: 2}, Det{Method: "iddq", Pattern: 3}), false},
		{"+IDDQ undetected, voltage detected", true, pair(Det{Method: "output", Pattern: 2}, Det{Pattern: -1}), false},
		{"output +IDDQ before voltage", true, pair(Det{Method: "output", Pattern: 2}, Det{Method: "output", Pattern: 1}), false},
		{"output +IDDQ, voltage undetected", true, pair(Det{Pattern: -1}, Det{Method: "output", Pattern: 2}), false},
		{"+IDDQ leak at the voltage pattern", true, pair(Det{Method: "output", Pattern: 2}, Det{Method: "iddq", Pattern: 2}), true},
		{"+IDDQ leak before the voltage pattern", true, pair(Det{Method: "output", Pattern: 2}, Det{Method: "iddq", Pattern: 0}), true},
		{"+IDDQ output equal to voltage", true, pair(Det{Method: "output", Pattern: 2}, Det{Method: "output", Pattern: 2}), true},
		{"leak-only fault", true, pair(Det{Pattern: -1}, Det{Method: "iddq", Pattern: n - 1}), true},
		{"undetected pair", true, pair(Det{Pattern: -1}, Det{Pattern: -1}), true},
		{"campaign without IDDQ", false, withoutIDDQ(func(*Result) {}), true},
		{"campaign without IDDQ ignores the +IDDQ class", false, withoutIDDQ(pair(Det{Method: "output", Pattern: 2}, Det{Method: "bogus", Pattern: 99})), true},
		{"bridge iddq under IDDQ", true, func(r *Result) { r.Bridges.Dets[0] = Det{Method: "iddq", Pattern: 0} }, true},
	} {
		r := cloneResult(t, good)
		tc.damage(r)
		_, err := fx.decode(r, j, tc.iddq)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected a well-formed artifact: %v", tc.name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted a damaged artifact", tc.name)
		}
	}
}

// checkDecoded is the fuzz target's independent oracle: every record of
// a decoded shard is one its class can produce, and each fault's
// voltage and +IDDQ answers agree.
func checkDecoded(t *testing.T, o *Output, nPatterns int) {
	t.Helper()
	record := func(class string, m faultsim.DetectMethod, pattern int, iddqOK bool) {
		switch {
		case m == faultsim.ByNone && pattern != -1,
			m != faultsim.ByNone && (pattern < 0 || pattern >= nPatterns),
			m != faultsim.ByNone && m != faultsim.ByOutput && !(m == faultsim.ByIDDQ && iddqOK):
			t.Fatalf("%s record (%q, %d) decoded without error", class, m, pattern)
		}
	}
	for _, d := range o.StuckAt.Dets {
		record("stuck_at", d.Method, d.Pattern, false)
	}
	for k, v := range o.TransistorV.Dets {
		q := o.TransistorIQ.Dets[k]
		record("transistor", v.Method, v.Pattern, false)
		record("transistor_iddq", q.Method, q.Pattern, true)
		if v.Detected() && (!q.Detected() || q.Pattern > v.Pattern) ||
			q.Method == faultsim.ByOutput && (v.Method != q.Method || v.Pattern != q.Pattern) {
			t.Fatalf("fault %d: voltage (%q, %d) and +IDDQ (%q, %d) decoded without error", k, v.Method, v.Pattern, q.Method, q.Pattern)
		}
	}
	for _, d := range o.Bridges.Dets {
		record("bridges", d.Method, d.Pattern, true)
	}
}

// FuzzShardResultDecode feeds arbitrary JSON into a Result and decodes
// it against one sub-job of a small c17 plan (two shards, IDDQ
// observed, with or without capture). Decoding must never panic, and a
// nil error must mean every record passes checkDecoded. Seeds are the
// encoded artifacts of every sub-job, with and without capture, and
// one artifact in the parent's bridge record form.
func FuzzShardResultDecode(f *testing.F) {
	fx := newC17Fixture()
	plans := map[bool]*Plan{false: fx.plan(2, false), true: fx.plan(2, true)}
	for _, capture := range []bool{false, true} {
		for _, j := range plans[capture].Jobs {
			raw, err := json.Marshal(fx.result(f, j))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw, capture, uint8(j.Index))
		}
	}
	f.Add(parentFormat(f, fx.result(f, plans[false].Jobs[0])), false, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, capture bool, index uint8) {
		jobs := plans[capture].Jobs
		j := jobs[int(index)%len(jobs)]
		var r Result
		if json.Unmarshal(raw, &r) != nil {
			return
		}
		o, err := fx.decode(&r, j, true)
		if err != nil {
			return
		}
		checkDecoded(t, o, len(fx.pats))
	})
}
