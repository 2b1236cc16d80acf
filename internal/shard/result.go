package shard

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"sort"

	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
)

// Det is one serializable detection record. The fault it belongs to is
// implied by its position: class universes are enumerated
// deterministically (core.Universe / core.NeighborBridges), so a
// shard's records line up with its Range without carrying fault names.
type Det struct {
	Method  string `json:"m,omitempty"`
	Pattern int    `json:"p"`
	// Detected carries the bridge engines' explicit flag; for
	// transistor/stuck-at records it is implied by Method.
	Detected bool `json:"d,omitempty"`
}

// ClassResult is one fault class's slice of a shard result: the
// detection records for the shard's Range and, when the shard captured
// signatures, the per-fault detection bitsets (base64 rows, one per
// fault, little-endian 64-bit words, (patterns+63)/64 words per row).
type ClassResult struct {
	Range Range    `json:"range"`
	Dets  []Det    `json:"dets"`
	Out   []string `json:"out,omitempty"`
	Leak  []string `json:"leak,omitempty"`
}

// Result is the wire form of one completed sub-job, the unit persisted
// in internal/resultstore under the sub-job key. TransistorV and
// TransistorIQ are the voltage-only and +IDDQ sweeps over the same
// transistor range (the campaign runs both when IDDQ observation is
// on). Artifacts written by older builds may carry a "gate_evals"
// field; decoding ignores it.
type Result struct {
	Key         string `json:"key"`
	CampaignKey string `json:"campaign_key"`
	Index       int    `json:"index"`
	Total       int    `json:"total"`

	StuckAt      *ClassResult `json:"stuck_at,omitempty"`
	TransistorV  *ClassResult `json:"transistor,omitempty"`
	TransistorIQ *ClassResult `json:"transistor_iddq,omitempty"`
	Bridges      *ClassResult `json:"bridges,omitempty"`
}

// Part is one fault class's slice of a completed sub-job in engine
// form: the detections for Range in universe order (Bridges for the
// bridge class) and, when the sub-job captured signatures, their rows
// (row k is fault Range.Start+k). Sub-job results stay in this form in
// memory; ClassResult is its wire form in the result store.
type Part struct {
	Range   Range
	Dets    []faultsim.Detection
	Bridges []faultsim.BridgeDetection
	Sig     *faultsim.SignatureCapture
}

// Output is one completed sub-job in engine form. Classes the campaign
// does not simulate are nil.
type Output struct {
	StuckAt, TransistorV, TransistorIQ, Bridges *Part
}

// Matches validates a loaded result against the sub-job it should
// answer, so a corrupted or mis-keyed artifact fails loudly instead of
// merging wrong rows: every class it carries must cover the sub-job's
// range with one record per fault.
func (r *Result) Matches(j SubJob) error {
	if r.Key != j.Key || r.Index != j.Index || r.Total != j.Total {
		return fmt.Errorf("shard: result (%s %d/%d) does not answer sub-job (%s %d/%d)",
			r.Key, r.Index, r.Total, j.Key, j.Index, j.Total)
	}
	check := func(name string, cr *ClassResult, want Range) error {
		if cr == nil {
			return nil
		}
		if cr.Range != want {
			return fmt.Errorf("shard: result %d/%d %s range %v, sub-job wants %v", r.Index, r.Total, name, cr.Range, want)
		}
		if len(cr.Dets) != want.Len() {
			return fmt.Errorf("shard: result %d/%d %s has %d records for %d faults", r.Index, r.Total, name, len(cr.Dets), want.Len())
		}
		return nil
	}
	if err := check("stuck_at", r.StuckAt, j.StuckAt); err != nil {
		return err
	}
	if err := check("transistor", r.TransistorV, j.Transistor); err != nil {
		return err
	}
	if err := check("transistor_iddq", r.TransistorIQ, j.Transistor); err != nil {
		return err
	}
	return check("bridges", r.Bridges, j.Bridges)
}

// Encode converts a completed sub-job to its wire form for the result
// store. Signature rows are kept for the classes that captured them:
// the output plane always, the leak plane for the +IDDQ sweep.
func (o *Output) Encode(j SubJob, campaignKey string) *Result {
	return &Result{
		Key: j.Key, CampaignKey: campaignKey, Index: j.Index, Total: j.Total,
		StuckAt:      encodePart(o.StuckAt, false),
		TransistorV:  encodePart(o.TransistorV, false),
		TransistorIQ: encodePart(o.TransistorIQ, true),
		Bridges:      encodePart(o.Bridges, false),
	}
}

func encodePart(p *Part, leak bool) *ClassResult {
	if p == nil {
		return nil
	}
	cr := &ClassResult{Range: p.Range}
	if p.Bridges != nil {
		cr.Dets = make([]Det, len(p.Bridges))
		for i, d := range p.Bridges {
			cr.Dets[i] = Det{Method: string(d.Method), Pattern: d.Pattern, Detected: d.Detected}
		}
	} else {
		cr.Dets = make([]Det, len(p.Dets))
		for i, d := range p.Dets {
			cr.Dets[i] = Det{Method: string(d.Method), Pattern: d.Pattern}
		}
	}
	if p.Sig != nil {
		cr.Out = encodeSigRows(p.Sig, false)
		if leak {
			cr.Leak = encodeSigRows(p.Sig, true)
		}
	}
	return cr
}

// Decode checks a stored result against the sub-job it should answer
// (Matches) and converts it to engine form over the campaign's class
// universes, whose sizes the sub-job's ranges were cut from (nil for a
// class the campaign does not simulate), its IDDQ observation and its
// pattern count. Every simulated class must be present, with signature
// rows wherever the sub-job captured them, even for an empty range: the
// stuck-at and +IDDQ classes when j.Capture (the latter with its leak
// plane), the voltage-only transistor class when j.Capture without IDDQ.
// Any mismatch, missing class or missing or malformed row is an error,
// so a corrupted artifact is re-simulated, not merged.
func (r *Result) Decode(j SubJob, stuckAt, transistor []core.Fault, bridges []core.Bridge, iddq bool, nPatterns int) (*Output, error) {
	if err := r.Matches(j); err != nil {
		return nil, err
	}
	o := &Output{}
	var err error
	if stuckAt != nil {
		if o.StuckAt, err = decodeFaults("stuck_at", r.StuckAt, stuckAt, nPatterns, j.Capture, false); err != nil {
			return nil, err
		}
	}
	if transistor != nil {
		if o.TransistorV, err = decodeFaults("transistor", r.TransistorV, transistor, nPatterns, j.Capture && !iddq, false); err != nil {
			return nil, err
		}
		if iddq {
			if o.TransistorIQ, err = decodeFaults("transistor_iddq", r.TransistorIQ, transistor, nPatterns, j.Capture, true); err != nil {
				return nil, err
			}
		}
	}
	if bridges != nil {
		cr := r.Bridges
		if cr == nil {
			return nil, fmt.Errorf("shard: result %d/%d carries no bridges records", r.Index, r.Total)
		}
		p := &Part{Range: cr.Range, Bridges: make([]faultsim.BridgeDetection, len(cr.Dets))}
		for k, d := range cr.Dets {
			p.Bridges[k] = faultsim.BridgeDetection{
				Bridge:   bridges[cr.Range.Start+k],
				Method:   faultsim.DetectMethod(d.Method),
				Pattern:  d.Pattern,
				Detected: d.Detected,
			}
		}
		o.Bridges = p
	}
	return o, nil
}

// decodeFaults converts one fault class's stored slice, decoding its
// output plane when the class captured and its leak plane too when
// leak is set.
func decodeFaults(name string, cr *ClassResult, universe []core.Fault, nPatterns int, capture, leak bool) (*Part, error) {
	if cr == nil {
		return nil, fmt.Errorf("shard: result carries no %s records", name)
	}
	p := &Part{Range: cr.Range, Dets: make([]faultsim.Detection, len(cr.Dets))}
	for k, d := range cr.Dets {
		p.Dets[k] = faultsim.Detection{
			Fault:   universe[cr.Range.Start+k],
			Method:  faultsim.DetectMethod(d.Method),
			Pattern: d.Pattern,
		}
	}
	if !capture {
		return p, nil
	}
	p.Sig = faultsim.NewSignatureCapture(cr.Range.Len(), nPatterns)
	if err := decodeSigRows(cr.Range, cr.Out, p.Sig.Out, name+" out"); err != nil {
		return nil, err
	}
	if leak {
		if err := decodeSigRows(cr.Range, cr.Leak, p.Sig.Leak, name+" leak"); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// tile orders one class's parts by range and checks that they cover
// [0, n) exactly, each carrying one record per fault of its range.
func tile(n int, parts []*Part, records func(*Part) int) ([]*Part, error) {
	got := make([]*Part, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			got = append(got, p)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Range.Start < got[j].Range.Start })
	at := 0
	for _, p := range got {
		if p.Range.Start != at {
			return nil, fmt.Errorf("shard: merge gap at fault %d (next range starts at %d)", at, p.Range.Start)
		}
		if records(p) != p.Range.Len() {
			return nil, fmt.Errorf("shard: range %v carries %d records", p.Range, records(p))
		}
		at = p.Range.End
	}
	if at != n {
		return nil, fmt.Errorf("shard: merged ranges cover %d of %d faults", at, n)
	}
	return got, nil
}

// merge concatenates the tiled parts' records in universe order. A
// lone part already is the whole class and is returned as is.
func merge[D any](n int, parts []*Part, records func(*Part) []D) ([]D, error) {
	got, err := tile(n, parts, func(p *Part) int { return len(records(p)) })
	if err != nil {
		return nil, err
	}
	if len(got) == 1 {
		return records(got[0]), nil
	}
	out := make([]D, 0, n)
	for _, p := range got {
		out = append(out, records(p)...)
	}
	return out, nil
}

// MergeDetections reassembles the full detection list of one class of
// n faults from its parts, in universe order: bit-identical to one
// sweep over the whole class because each fault's outcome is
// independent of its neighbours.
func MergeDetections(n int, parts []*Part) ([]faultsim.Detection, error) {
	return merge(n, parts, func(p *Part) []faultsim.Detection { return p.Dets })
}

// MergeBridgeDetections is MergeDetections for the bridge universe.
func MergeBridgeDetections(n int, parts []*Part) ([]faultsim.BridgeDetection, error) {
	return merge(n, parts, func(p *Part) []faultsim.BridgeDetection { return p.Bridges })
}

// MergeSignatures reassembles one class's full signature capture, both
// planes, from its parts. A part without a capture is an error: a
// capturing sub-job captures every class the dictionary reads, even
// over an empty range, whether simulated or decoded from the store.
func MergeSignatures(nFaults, nPatterns int, parts []*Part) (*faultsim.SignatureCapture, error) {
	for _, p := range parts {
		if p != nil && (p.Sig == nil || p.Sig.NPatterns != nPatterns) {
			return nil, fmt.Errorf("shard: range %v carries no %d-pattern signature capture", p.Range, nPatterns)
		}
	}
	got, err := tile(nFaults, parts, func(p *Part) int { return p.Sig.NFaults })
	if err != nil {
		return nil, err
	}
	if len(got) == 1 {
		return got[0].Sig, nil
	}
	full := faultsim.NewSignatureCapture(nFaults, nPatterns)
	for _, p := range got {
		for k := 0; k < p.Range.Len(); k++ {
			copy(full.Out(p.Range.Start+k), p.Sig.Out(k))
			copy(full.Leak(p.Range.Start+k), p.Sig.Leak(k))
		}
	}
	return full, nil
}

// encodeSigRows serializes a capture's per-fault bitset rows: one
// base64 string per fault, little-endian 64-bit words.
func encodeSigRows(c *faultsim.SignatureCapture, leak bool) []string {
	out := make([]string, c.NFaults)
	buf := make([]byte, c.Words()*8)
	for i := range out {
		row := c.Out(i)
		if leak {
			row = c.Leak(i)
		}
		for w, v := range row {
			binary.LittleEndian.PutUint64(buf[w*8:], v)
		}
		out[i] = base64.StdEncoding.EncodeToString(buf)
	}
	return out
}

// decodeSigRows fills one plane of a range's capture from its rows.
func decodeSigRows(r Range, rows []string, plane func(int) []uint64, name string) error {
	if len(rows) != r.Len() {
		return fmt.Errorf("shard: range %v carries %d %s signature rows, want %d", r, len(rows), name, r.Len())
	}
	for k, s := range rows {
		dst := plane(k)
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return fmt.Errorf("shard: fault %d: %w", r.Start+k, err)
		}
		if len(raw) != len(dst)*8 {
			return fmt.Errorf("shard: fault %d: signature row is %d bytes, want %d", r.Start+k, len(raw), len(dst)*8)
		}
		for w := range dst {
			dst[w] = binary.LittleEndian.Uint64(raw[w*8:])
		}
	}
	return nil
}
