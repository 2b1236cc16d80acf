// Package shard turns one fault campaign into K independently
// schedulable, independently cacheable sub-jobs. The paper's campaigns
// are embarrassingly parallel over the fault list — every fault's
// detection outcome is independent of every other fault's — so a
// campaign splits into contiguous fault-range sub-jobs whose merged
// results are bit-identical to one sweep over each whole class (the
// service's differential suite and report goldens pin this). A
// one-shard plan is the single-shot campaign.
//
// The three pieces:
//
//   - Plan / Partition / SubKey: a deterministic fault-list partitioner.
//     Sub-job keys are content addresses derived from the campaign's
//     canonical key plus the partition coordinates, so the same shard of
//     the same campaign hashes to the same key on any machine, forever —
//     the unit of caching in internal/resultstore.
//
//   - Scheduler: runs sub-jobs across a bounded worker pool with
//     bounded retry and failure quarantine (a shard that exhausts its
//     retries is set aside; the remaining shards still run to
//     completion so their results persist for partial reuse). The
//     parent context, the campaign deadline, bounds every attempt.
//
//   - Output / Merge*: a sub-job's results in engine form (detections
//     and optional signature captures per class) and the deterministic
//     merge that reassembles full detection lists and signature
//     captures in fault order. Result is the serializable wire form,
//     used only at the result-store boundary (Encode on put, Decode on
//     get).
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Range is a half-open fault-index interval [Start, End) into one fault
// class's deterministic universe order.
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len is the number of faults in the range.
func (r Range) Len() int { return r.End - r.Start }

// Partition splits [0, n) into k contiguous ranges whose lengths differ
// by at most one, the leftover spread over the leading ranges. It is
// pure: the same (n, k) always yields the same ranges, which is what
// makes sub-job keys stable. k <= 0 is treated as 1; empty ranges are
// returned when k > n so every shard index exists.
func Partition(n, k int) []Range {
	if k <= 0 {
		k = 1
	}
	if n < 0 {
		n = 0
	}
	out := make([]Range, k)
	base, extra := n/k, n%k
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Start: start, End: start + size}
		start += size
	}
	return out
}

// SubKey derives the content address of one sub-job from the campaign's
// canonical key and the partition coordinates. The capture flag is part
// of the address because a signature-capturing shard produces a
// different (richer) artifact than an uncaptured one; keying them apart
// keeps both cacheable without confusion.
func SubKey(campaignKey string, index, total int, capture bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "shard\x00%s\x00%d/%d\x00capture=%t", campaignKey, index, total, capture)
	return hex.EncodeToString(h.Sum(nil))
}

// SubJob is one independently schedulable unit: the shard's content
// address plus its fault range in each class's universe. Classes the
// campaign does not simulate carry empty ranges.
type SubJob struct {
	Key     string `json:"key"`
	Index   int    `json:"index"`
	Total   int    `json:"total"`
	Capture bool   `json:"capture"`

	StuckAt    Range `json:"stuck_at"`
	Transistor Range `json:"transistor"`
	Bridges    Range `json:"bridges"`
}

// Plan is the deterministic decomposition of one campaign into Total
// sub-jobs.
type Plan struct {
	CampaignKey string
	Total       int
	Capture     bool

	// Class universe sizes the plan partitioned (0 for classes the
	// campaign does not simulate).
	StuckAt    int
	Transistor int
	Bridges    int

	Jobs []SubJob
}

// NewPlan partitions a campaign with the given per-class fault universe
// sizes into k sub-jobs. The same inputs always produce the same plan,
// including every sub-job key. k is clamped to [1, MaxShards] and to
// the largest class size (sharding finer than one fault per shard only
// manufactures empty work).
func NewPlan(campaignKey string, k, nStuckAt, nTransistor, nBridges int, capture bool) *Plan {
	k = ClampShards(k, nStuckAt, nTransistor, nBridges)
	p := &Plan{
		CampaignKey: campaignKey,
		Total:       k,
		Capture:     capture,
		StuckAt:     nStuckAt,
		Transistor:  nTransistor,
		Bridges:     nBridges,
	}
	sa := Partition(nStuckAt, k)
	tr := Partition(nTransistor, k)
	br := Partition(nBridges, k)
	p.Jobs = make([]SubJob, k)
	for i := range p.Jobs {
		p.Jobs[i] = SubJob{
			Key:        SubKey(campaignKey, i, k, capture),
			Index:      i,
			Total:      k,
			Capture:    capture,
			StuckAt:    sa[i],
			Transistor: tr[i],
			Bridges:    br[i],
		}
	}
	return p
}

// MaxShards bounds a single campaign's decomposition; past this the
// per-shard scheduling and merge overhead dominates any spread.
const MaxShards = 64

// ClampShards normalizes a requested shard count against the class
// sizes: at least 1, at most MaxShards, and no finer than the largest
// class (so no shard is empty in every class).
func ClampShards(k int, classSizes ...int) int {
	max := 1
	for _, n := range classSizes {
		if n > max {
			max = n
		}
	}
	if k < 1 {
		k = 1
	}
	if k > max {
		k = max
	}
	if k > MaxShards {
		k = MaxShards
	}
	return k
}

// AutoShards is the default shard count for a campaign that does not
// pin one: one shard per autoShardWork units of gates x faults, bounded
// by ClampShards. Small campaigns stay one shard (the scheduling
// overhead would exceed the work); the heavy campaigns the ROADMAP
// targets fan out.
func AutoShards(gates, faults int) int {
	if gates <= 0 || faults <= 0 {
		return 1
	}
	work := int64(gates) * int64(faults)
	k := int((work + autoShardWork - 1) / autoShardWork)
	return ClampShards(k, faults)
}

// autoShardWork is the gates x faults budget one auto-sized shard
// targets: at ~1k gates x ~4k faults (the mult16 transistor campaign) a
// campaign splits into a handful of shards, while sub-100-gate circuits
// stay one shard.
const autoShardWork = 1 << 20
