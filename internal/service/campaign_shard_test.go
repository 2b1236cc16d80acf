package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"cpsinw/internal/core"
	"cpsinw/internal/dict"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

// normalizeReport strips the only fields allowed to differ between a
// sharded and an unsharded run of the same campaign: wall-clock time
// and the dictionary artifact's compressed size (its payload embeds a
// creation timestamp; the signature rows themselves are compared
// separately, bit for bit).
func normalizeReport(t *testing.T, rep *CampaignReport) map[string]interface{} {
	t.Helper()
	cp := *rep
	cp.ElapsedMS = 0
	if cp.Dictionary != nil {
		d := *cp.Dictionary
		d.CompressedBytes = 0
		cp.Dictionary = &d
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runDifferential pins every shard count in ks bit-identical to the
// one-shard (single-shot) run of the same request.
func runDifferential(t *testing.T, req CampaignRequest, ks []int) {
	t.Helper()
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)

	baseDict, err := dict.Open(filepath.Join(t.TempDir(), "dict-base"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunCampaignObserved(context.Background(), c, norm, &RunObserver{Dict: baseDict, DictKey: key})
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	baseJSON := normalizeReport(t, base)
	baseD, err := baseDict.Get(key)
	if err != nil {
		t.Fatalf("unsharded dictionary: %v", err)
	}

	for _, k := range ks {
		shDict, err := dict.Open(filepath.Join(t.TempDir(), "dict-sharded"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunCampaignSharded(context.Background(), c, norm,
			ShardedOptions{Key: key, Shards: k}, &RunObserver{Dict: shDict, DictKey: key})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if gotJSON := normalizeReport(t, got); !reflect.DeepEqual(gotJSON, baseJSON) {
			b1, _ := json.MarshalIndent(baseJSON, "", " ")
			b2, _ := json.MarshalIndent(gotJSON, "", " ")
			t.Fatalf("k=%d: sharded report differs from unsharded\nunsharded: %s\nsharded:   %s", k, b1, b2)
		}
		shD, err := shDict.Get(key)
		if err != nil {
			t.Fatalf("k=%d sharded dictionary: %v", k, err)
		}
		if len(shD.Entries) != len(baseD.Entries) {
			t.Fatalf("k=%d: %d dictionary entries, unsharded has %d", k, len(shD.Entries), len(baseD.Entries))
		}
		for i := range baseD.Entries {
			if !reflect.DeepEqual(shD.Entries[i], baseD.Entries[i]) {
				t.Fatalf("k=%d: dictionary row %d (%s) differs from unsharded run",
					k, i, baseD.Entries[i].Fault)
			}
		}
	}
}

// TestShardedMergeBitIdenticalProperty is the merge-determinism
// property test: K in {1,2,4,8} shards, full fault configuration with
// IDDQ, against the packed single-shot engine.
func TestShardedMergeBitIdenticalProperty(t *testing.T) {
	runDifferential(t, CampaignRequest{
		Benchmark: "mult3",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
		Engine: "packed",
	}, []int{1, 2, 4, 8})
}

// TestShardedMult16Differential pins the mult16 campaign (random
// patterns, auto engine, ATPG riding along) sharded vs unsharded.
func TestShardedMult16Differential(t *testing.T) {
	if testing.Short() {
		t.Skip("mult16 differential is a long test")
	}
	runDifferential(t, CampaignRequest{
		Benchmark: "mult16",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, IDDQ: true,
		},
		Patterns: 48,
		Engine:   "packed",
	}, []int{4})
}

// TestShardedC432Differential pins the sharded path on the ISCAS-scale
// c432 reconstruction (36 inputs forces the random-pattern path, and
// the priority-chain topology exercises deep fault cones).
func TestShardedC432Differential(t *testing.T) {
	runDifferential(t, CampaignRequest{
		Benchmark: "c432",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
		Patterns: 64,
		Engine:   "packed",
	}, []int{3, 4})
}

// TestShardedStoreReuse pins the result store's caching contract: a
// second run of the same campaign serves every shard from the store,
// and removing one shard artifact re-simulates exactly that shard. The
// campaign captures a dictionary, so the served shards' signature rows
// must decode into the same dictionary, row for row. At 40 shards,
// c17's 34 stuck-at faults leave six shards with an empty stuck-at
// range, whose captured (empty) planes must be served too; with IDDQ
// the +IDDQ transistor sweep captures, without it the voltage-only one.
func TestShardedStoreReuse(t *testing.T) {
	transistor := FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true}
	transistorIDDQ := transistor
	transistorIDDQ.IDDQ = true
	for _, tc := range []struct {
		req    CampaignRequest
		shards int
	}{
		{CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}, Engine: "packed"}, 4},
		{CampaignRequest{Benchmark: "c17", Faults: transistor}, 40},
		{CampaignRequest{Benchmark: "c17", Faults: transistorIDDQ}, 40},
	} {
		t.Run(fmt.Sprintf("%s/iddq=%t/k=%d", tc.req.Benchmark, tc.req.Faults.IDDQ, tc.shards), func(t *testing.T) {
			norm, c, err := tc.req.normalize()
			if err != nil {
				t.Fatal(err)
			}
			key := CanonicalKey(c, norm)
			store, err := resultstore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}

			var firstDict *dict.Dictionary
			run := func(wantHits int) *CampaignReport {
				t.Helper()
				ds, err := dict.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var hits atomic.Int64 // OnCacheHit fires on scheduler goroutines
				rep, err := RunCampaignSharded(context.Background(), c, norm, ShardedOptions{
					Key: key, Shards: tc.shards, Store: store,
					OnCacheHit: func(shard.SubJob) { hits.Add(1) },
				}, &RunObserver{Dict: ds, DictKey: key})
				if err != nil {
					t.Fatal(err)
				}
				if got := hits.Load(); got != int64(wantHits) {
					t.Fatalf("shard cache hits = %d, want %d", got, wantHits)
				}
				d, err := ds.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if firstDict == nil {
					firstDict = d
				} else if !reflect.DeepEqual(d.Entries, firstDict.Entries) {
					t.Fatalf("dictionary from %d served shards differs from the simulated one", wantHits)
				}
				return rep
			}

			first := run(0)
			second := run(tc.shards) // every shard served from the store
			if !reflect.DeepEqual(normalizeReport(t, first), normalizeReport(t, second)) {
				t.Fatal("store-served report differs from the simulated one")
			}

			// Partial reuse: drop one shard artifact; only it re-simulates.
			keys, err := store.Keys(resultstore.KindShard)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != tc.shards {
				t.Fatalf("store holds %d shard artifacts, want %d", len(keys), tc.shards)
			}
			if err := store.Delete(resultstore.KindShard, keys[2]); err != nil {
				t.Fatal(err)
			}
			third := run(tc.shards - 1)
			if !reflect.DeepEqual(normalizeReport(t, first), normalizeReport(t, third)) {
				t.Fatal("partially reused report differs from the simulated one")
			}
		})
	}
}

// TestShardedDamagedRecordResimulates: a stored shard artifact that
// parses and answers its sub-job but carries a record its class cannot
// produce, or a transistor record pair one sweep cannot produce, is a
// miss: that shard re-simulates (and overwrites the artifact) and the
// report is the simulated one.
func TestShardedDamagedRecordResimulates(t *testing.T) {
	req := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true}}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(wantHits int) *CampaignReport {
		t.Helper()
		var hits atomic.Int64
		rep, err := RunCampaignSharded(context.Background(), c, norm, ShardedOptions{
			Key: key, Shards: 2, Store: store,
			OnCacheHit: func(shard.SubJob) { hits.Add(1) },
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hits.Load(); got != int64(wantHits) {
			t.Fatalf("shard cache hits = %d, want %d", got, wantHits)
		}
		return rep
	}
	want := normalizeReport(t, run(0))
	keys, err := store.Keys(resultstore.KindShard)
	if err != nil || len(keys) != 2 {
		t.Fatalf("store holds shard artifacts %v (%v), want 2", keys, err)
	}
	for _, tc := range []struct {
		name   string
		damage func(*shard.Result)
	}{
		{"unknown stuck-at method", func(r *shard.Result) { r.StuckAt.Dets[0].Method = "bogus" }},
		{"+IDDQ record later than voltage", func(r *shard.Result) {
			r.TransistorV.Dets[0] = shard.Det{Method: "output", Pattern: 0}
			r.TransistorIQ.Dets[0] = shard.Det{Method: "iddq", Pattern: 1}
		}},
	} {
		var r shard.Result
		if err := store.Get(resultstore.KindShard, keys[0], &r); err != nil {
			t.Fatal(err)
		}
		tc.damage(&r)
		if _, err := store.Put(resultstore.KindShard, keys[0], &r); err != nil {
			t.Fatal(err)
		}
		if got := normalizeReport(t, run(1)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report differs from the simulated one", tc.name)
		}
	}
	run(2) // the re-simulated shard overwrote the damaged artifact
}

// TestOneShardPlanSkipsShardStore: a one-shard plan neither reads nor
// writes shard artifacts, so a store-backed K=1 run leaves the shard
// namespace empty and a rerun re-simulates (the caller's stored report
// is what answers repeats).
func TestOneShardPlanSkipsShardStore(t *testing.T) {
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	for run := 0; run < 2; run++ {
		if _, err := RunCampaignSharded(context.Background(), c, norm, ShardedOptions{
			Key: key, Shards: 1, Store: store,
			OnCacheHit: func(shard.SubJob) { hits.Add(1) },
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if keys, err := store.Keys(resultstore.KindShard); err != nil || len(keys) != 0 {
		t.Fatalf("one-shard runs stored shard artifacts %v (err %v)", keys, err)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("one-shard rerun served %d shards from the store", n)
	}
}

// TestShardedRejectsUnkeyedStore guards the store against cross-
// campaign collisions: persistence requires a canonical campaign key.
func TestShardedRejectsUnkeyedStore(t *testing.T) {
	req := CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true}}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaignSharded(context.Background(), c, norm,
		ShardedOptions{Key: "not-a-key", Shards: 2, Store: store}, nil); err == nil {
		t.Fatal("sharded run accepted a store without a canonical key")
	}
}

// TestShardWorkersClamped pins the worker budget a campaign's shards
// share: the request's Workers, clamped to GOMAXPROCS (and GOMAXPROCS
// when unset), divided among the shards, at least one each. The
// function is called directly, so no test starts the workers a huge
// request names.
func TestShardWorkersClamped(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ budget, shards, want int }{
		{0, 1, procs},
		{-3, 1, procs},
		{1, 1, 1},
		{procs, 1, procs},
		{procs + 1, 1, procs},
		{1 << 30, 1, procs},
		{1 << 30, 4, max(1, procs/4)},
		{1, 8, 1},
	} {
		if got := shardWorkers(c.budget, c.shards); got != c.want {
			t.Errorf("shardWorkers(%d, %d) = %d, want %d", c.budget, c.shards, got, c.want)
		}
	}
}

// TestShardProgressCountsFaults pins the aggregated progress stream in
// fault units, for one shard, four shards and a store-served rerun: per
// class, done and total never decrease, total is the class universe on
// every frame, and the last frame has done == total. Frames must reach
// the observer serialized, so the recorder takes no lock and -race
// checks that.
func TestShardProgressCountsFaults(t *testing.T) {
	req := CampaignRequest{
		Benchmark: "c432",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
		Workers: 1,
	}
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := CanonicalKey(c, norm)
	f := norm.Faults
	tr := len(core.Universe(c, core.UniverseOptions{ChannelBreak: f.StuckOpen, StuckOn: f.StuckOn, Polarity: f.Polarity}))
	universe := map[string]int{
		"stuck_at":        len(core.Universe(c, core.ClassicalOnly())),
		"transistor":      tr,
		"transistor_iddq": tr,
		"bridges":         len(core.NeighborBridges(c, norm.Faults.BridgeWindow)),
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	for _, run := range []struct {
		name   string
		shards int
		store  *resultstore.Store
	}{
		{"K=1", 1, nil},
		{"K=4", 4, store},
		{"K=4 store-served", 4, store},
	} {
		var frames []JobProgress
		ro := &RunObserver{Progress: func(p JobProgress) { frames = append(frames, p) }}
		if _, err := RunCampaignSharded(context.Background(), c, norm,
			ShardedOptions{Key: key, Shards: run.shards, Store: run.store}, ro); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		last := map[string]JobProgress{}
		for _, p := range frames {
			want, ok := universe[p.Stage]
			if !ok {
				t.Fatalf("%s: frame for unknown stage %q", run.name, p.Stage)
			}
			if p.Total != want || p.Faults != want {
				t.Fatalf("%s: %s frame total %d faults %d, want the universe %d", run.name, p.Stage, p.Total, p.Faults, want)
			}
			if p.Shards != run.shards {
				t.Fatalf("%s: %s frame carries %d shards, want %d", run.name, p.Stage, p.Shards, run.shards)
			}
			if prev, ok := last[p.Stage]; ok && p.Done < prev.Done {
				t.Fatalf("%s: %s done fell from %d to %d", run.name, p.Stage, prev.Done, p.Done)
			}
			last[p.Stage] = p
		}
		for stage, n := range universe {
			if p, ok := last[stage]; !ok || p.Done != n {
				t.Errorf("%s: %s ended on %+v, want done == total == %d", run.name, stage, p, n)
			}
		}
	}
}
