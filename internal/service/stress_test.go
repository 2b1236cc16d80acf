package service

import (
	"sync"
	"testing"
	"time"
)

// sameCoverage compares the countable fields of two coverage reports
// (Undetected is a slice, so the structs are not directly comparable).
func sameCoverage(a, b *CoverageJSON) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Total == b.Total && a.Detected == b.Detected &&
		a.ByOutput == b.ByOutput && a.ByIDDQ == b.ByIDDQ &&
		a.ByTwoPattern == b.ByTwoPattern && a.Percent == b.Percent
}

// TestConcurrentMixedEngineCampaigns floods one manager with identical
// campaigns under both engine names at once (designed to run under
// -race in CI). It pins down:
//
//   - per-engine cache identity: every submission of one engine maps to
//     the same content address, and the two engines never share one;
//   - cache effectiveness: far fewer executions than submissions;
//   - counter integrity: the per-engine job counters account exactly
//     for the executed (non-cache-hit) jobs, with no interleaving lost
//     updates, and every job reaches a terminal done state with
//     coverage identical across engines.
func TestConcurrentMixedEngineCampaigns(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 4, QueueDepth: 256, JobTimeout: time.Minute})
	defer m.Close()

	engines := []string{"reference", "packed"}
	const perEngine = 30
	req := func(engine string) CampaignRequest {
		return CampaignRequest{
			Benchmark: "fa_cp",
			Faults:    FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, Bridges: true, IDDQ: true},
			Engine:    engine,
		}
	}

	var mu sync.Mutex
	ids := map[string][]string{}  // engine -> job ids
	keySet := map[string]string{} // engine -> content address
	var wg sync.WaitGroup
	for _, engine := range engines {
		for n := 0; n < perEngine; n++ {
			wg.Add(1)
			go func(engine string) {
				defer wg.Done()
				for {
					job, err := m.Submit(req(engine))
					if err == ErrQueueFull {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("%s: submit: %v", engine, err)
						return
					}
					mu.Lock()
					ids[engine] = append(ids[engine], job.ID)
					if prev, ok := keySet[engine]; ok && prev != job.Key {
						t.Errorf("%s: cache key drift: %s vs %s", engine, prev, job.Key)
					}
					keySet[engine] = job.Key
					mu.Unlock()
					return
				}
			}(engine)
		}
	}
	wg.Wait()

	deadline := time.Now().Add(time.Minute)
	covs := map[string]*CoverageJSON{}
	for _, engine := range engines {
		for _, id := range ids[engine] {
			job, ok := m.Get(id)
			if !ok {
				t.Fatalf("%s: job %s lost", engine, id)
			}
			for !job.Status().State.Terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("%s: job %s stuck in %s", engine, id, job.Status().State)
				}
				time.Sleep(2 * time.Millisecond)
			}
			rep, state, errmsg := job.Report()
			if state != StateDone {
				t.Fatalf("%s: job %s: %s (%s)", engine, id, state, errmsg)
			}
			if rep.Engine != engine {
				t.Errorf("job %s: report engine %q, want %q", id, rep.Engine, engine)
			}
			if prev, ok := covs[engine]; ok {
				if !sameCoverage(prev, rep.Bridges) {
					t.Errorf("%s: bridge coverage drift across identical jobs", engine)
				}
			} else {
				covs[engine] = rep.Bridges
			}
		}
	}
	// The two engines must agree on coverage (bit-identical results)
	// while living under distinct content addresses.
	if keySet["reference"] == keySet["packed"] {
		t.Errorf("engines share a cache key: %v", keySet)
	}
	if !sameCoverage(covs["reference"], covs["packed"]) {
		t.Errorf("coverage disagrees: reference %+v vs packed %+v", covs["reference"], covs["packed"])
	}

	met := m.Metrics()
	executed := met.Completed.Value()
	perEngineSum := met.ReferenceJobs.Value() + met.PackedJobs.Value()
	if perEngineSum != executed {
		t.Errorf("per-engine counters interleaved: reference %d + packed %d = %d, executed %d",
			met.ReferenceJobs.Value(), met.PackedJobs.Value(), perEngineSum, executed)
	}
	if met.ReferenceJobs.Value() < 1 || met.PackedJobs.Value() < 1 {
		t.Errorf("an engine never executed: %d/%d", met.ReferenceJobs.Value(), met.PackedJobs.Value())
	}
	if met.Submitted.Value() != int64(len(engines)*perEngine) {
		t.Errorf("submitted %d, want %d", met.Submitted.Value(), len(engines)*perEngine)
	}
	hits, misses, _ := m.Cache().Stats()
	if hits+misses != uint64(len(engines)*perEngine) {
		t.Errorf("cache saw %d lookups, want %d", hits+misses, len(engines)*perEngine)
	}
	if hits == 0 {
		t.Error("no cache hit across 30 identical submissions per engine")
	}
}
