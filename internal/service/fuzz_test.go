package service

import "testing"

// fuzzBenchmarks is the fixed benchmark list FuzzCampaignKey draws
// from: small circuits only, so the target never builds a large
// generator family, plus "" (the netlist path) and an unknown name.
var fuzzBenchmarks = []string{"", "c17", "fa_cp", "rca4", "mult3", "no-such-circuit"}

// FuzzCampaignKey checks the content-addressing contract over arbitrary
// requests. For every request Normalize accepts:
//   - normalizing the result again is a fixpoint;
//   - CanonicalKey is deterministic;
//   - the key ignores the execution-tuning fields (workers, timeout_ms,
//     shards);
//   - the engine comes out as "packed" or "reference".
func FuzzCampaignKey(f *testing.F) {
	f.Add(c17Bench, uint8(0), uint8(0x01), 0, 0, int64(0), "", 0, int64(0), 0)
	f.Add("", uint8(1), uint8(0x7f), 3, 64, int64(7), "reference", 4, int64(1000), 2)
	f.Add("", uint8(4), uint8(0x12), -1, -5, int64(-3), "packed", -1, int64(-1), -4)
	f.Add("", uint8(2), uint8(0x04), 0, 0, int64(0), "compiled", 0, int64(0), 0)
	f.Add("", uint8(3), uint8(0x08), 0, 0, int64(0), "auto", 0, int64(0), 0)
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", uint8(0), uint8(0x21), 0, 0, int64(0), "", 0, int64(0), 1)
	f.Fuzz(func(t *testing.T, netlist string, bench, classes uint8, window, patterns int, seed int64, engine string, workers int, timeoutMS int64, shards int) {
		if len(netlist) > 4096 {
			return
		}
		req := CampaignRequest{
			Netlist:   netlist,
			Benchmark: fuzzBenchmarks[int(bench)%len(fuzzBenchmarks)],
			Faults: FaultConfig{
				StuckAt:      classes&0x01 != 0,
				Polarity:     classes&0x02 != 0,
				StuckOpen:    classes&0x04 != 0,
				StuckOn:      classes&0x08 != 0,
				Bridges:      classes&0x10 != 0,
				IDDQ:         classes&0x20 != 0,
				BridgeWindow: window,
			},
			Patterns:  patterns,
			Seed:      seed,
			ATPG:      classes&0x40 != 0,
			Engine:    engine,
			Workers:   workers,
			TimeoutMS: timeoutMS,
			Shards:    shards,
		}
		norm, c, err := req.Normalize()
		if err != nil {
			return
		}
		if norm.Engine != "packed" && norm.Engine != "reference" {
			t.Fatalf("engine %q normalized to %q", engine, norm.Engine)
		}
		again, c2, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized request rejected on renormalization: %v", err)
		}
		if again != norm {
			t.Fatalf("normalize is not a fixpoint:\n%+v\n%+v", norm, again)
		}
		key := CanonicalKey(c, norm)
		if k := CanonicalKey(c, norm); k != key {
			t.Fatalf("CanonicalKey not deterministic: %s vs %s", key, k)
		}
		if k := CanonicalKey(c2, again); k != key {
			t.Fatalf("renormalized request keyed %s, want %s", k, key)
		}

		tuned := req
		tuned.Workers, tuned.TimeoutMS, tuned.Shards = workers+3, timeoutMS+500, shards+2
		tnorm, tc, err := tuned.Normalize()
		if err != nil {
			t.Fatalf("request rejected after changing execution tuning only: %v", err)
		}
		if k := CanonicalKey(tc, tnorm); k != key {
			t.Fatalf("key moved with workers/timeout_ms/shards: %s vs %s", k, key)
		}
	})
}
