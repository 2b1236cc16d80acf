package service

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cpsinw/internal/logic"
)

// parseCount is how many submissions were normalized and keyed.
func parseCount(m *Manager) uint64 { return m.metrics.stages["parse"].Count() }

// withEchoRunner makes every campaign finish at once with a small
// report derived from its request.
func withEchoRunner(t *testing.T) {
	withFakeRunner(t, func(_ context.Context, c *logic.Circuit, req CampaignRequest) (*CampaignReport, error) {
		return &CampaignReport{Circuit: CircuitInfo{Name: c.Name, Gates: len(c.Gates)}, Patterns: req.Patterns, Engine: req.Engine}, nil
	})
}

// submitDone submits the request and waits for its job to be done.
func submitDone(t *testing.T, m *Manager, req CampaignRequest) *Job {
	t.Helper()
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", job.ID, st.State, st.Error)
	}
	return job
}

// canonicalKey is the request's content address.
func canonicalKey(t *testing.T, req CampaignRequest) string {
	t.Helper()
	norm, c, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return CanonicalKey(c, norm)
}

// TestMemoHitSkipsNormalize pins a resubmit's path: a byte-identical
// resubmit takes its circuit from the memo of prepared circuits
// without parsing it again, is keyed, and is answered born done from
// the LRU as a cache hit.
func TestMemoHitSkipsNormalize(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()
	req := CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true, Polarity: true}}
	first := submitDone(t, m, req)

	circuitHits := m.metrics.CircuitMemoHits.Value()
	hits, _, _ := m.Cache().Stats()
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("resubmit: state %s cache_hit %t, want a born-done hit", st.State, st.CacheHit)
	}
	if job.Key != first.Key {
		t.Errorf("resubmit keyed %s, want %s", job.Key, first.Key)
	}
	if got := m.metrics.CircuitMemoHits.Value(); got != circuitHits+1 {
		t.Errorf("circuit memo hits %d → %d, want one more", circuitHits, got)
	}
	if h, _, _ := m.Cache().Stats(); h != hits+1 {
		t.Errorf("cache hits %d → %d, want one more", hits, h)
	}
	a, _, _ := first.result()
	if b, _, _ := job.result(); a == nil || a != b {
		t.Error("resubmit's record does not share the completed campaign's held report")
	}
}

// TestMemoKeepsResultFieldsApart submits requests that differ in one
// result-affecting field each. Each first submission is normalized and
// keyed under its own canonical key, and each resubmit is a hit under
// that key.
func TestMemoKeepsResultFieldsApart(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1, CacheSize: 64})
	defer m.Close()
	// rca8 has 17 inputs, so its patterns and seed reach the key.
	base := CampaignRequest{Benchmark: "rca8", Faults: FaultConfig{StuckAt: true}, Patterns: 64, Seed: 1}
	vary := func(f func(*CampaignRequest)) CampaignRequest {
		r := base
		f(&r)
		return r
	}
	cases := []struct {
		name string
		req  CampaignRequest
	}{
		{"base", base},
		{"netlist", vary(func(r *CampaignRequest) { r.Benchmark, r.Netlist = "", c17Bench })},
		{"netlist text", vary(func(r *CampaignRequest) { r.Benchmark, r.Netlist = "", c17BenchMessy })},
		{"benchmark", vary(func(r *CampaignRequest) { r.Benchmark = "rca4" })},
		{"stuck_at", vary(func(r *CampaignRequest) { r.Faults = FaultConfig{Polarity: true} })},
		{"polarity", vary(func(r *CampaignRequest) { r.Faults.Polarity = true })},
		{"stuck_open", vary(func(r *CampaignRequest) { r.Faults.StuckOpen = true })},
		{"stuck_on", vary(func(r *CampaignRequest) { r.Faults.StuckOn = true })},
		{"bridges", vary(func(r *CampaignRequest) { r.Faults.Bridges = true })},
		{"bridge_window", vary(func(r *CampaignRequest) { r.Faults.Bridges, r.Faults.BridgeWindow = true, 3 })},
		{"iddq", vary(func(r *CampaignRequest) { r.Faults.IDDQ = true })},
		{"patterns", vary(func(r *CampaignRequest) { r.Patterns = 128 })},
		{"seed", vary(func(r *CampaignRequest) { r.Seed = 2 })},
		{"atpg", vary(func(r *CampaignRequest) { r.ATPG = true })},
		{"engine", vary(func(r *CampaignRequest) { r.Engine = "reference" })},
	}
	keys := map[string]string{}
	for _, tc := range cases {
		parsed := parseCount(m)
		job := submitDone(t, m, tc.req)
		if got := parseCount(m); got != parsed+1 {
			t.Errorf("%s: first submission was not normalized (parse %d → %d)", tc.name, parsed, got)
		}
		keys[tc.name] = canonicalKey(t, tc.req)
		if job.Key != keys[tc.name] {
			t.Errorf("%s: keyed %s, want %s", tc.name, job.Key, keys[tc.name])
		}
	}
	for _, tc := range cases {
		job, err := m.Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); st.State != StateDone || !st.CacheHit {
			t.Errorf("%s: resubmit state %s cache_hit %t, want a hit", tc.name, st.State, st.CacheHit)
		}
		if job.Key != keys[tc.name] {
			t.Errorf("%s: resubmit keyed %s, want %s", tc.name, job.Key, keys[tc.name])
		}
	}
}

// TestMemoTuningVariantHitsByKey: a request that differs only in
// execution tuning is normalized and hits the LRU by canonical key,
// every time it is submitted.
func TestMemoTuningVariantHitsByKey(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()
	base := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true, StuckOn: true}}
	first := submitDone(t, m, base)
	for _, tune := range []func(*CampaignRequest){
		func(r *CampaignRequest) { r.Workers = 3 },
		func(r *CampaignRequest) { r.TimeoutMS = 60000 },
		func(r *CampaignRequest) { r.Shards = 2 },
	} {
		req := base
		tune(&req)
		for round := range 2 {
			parsed := parseCount(m)
			job, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := job.Status(); st.State != StateDone || !st.CacheHit || job.Key != first.Key {
				t.Fatalf("%+v round %d: state %s cache_hit %t key %s, want a hit on %s", req, round, st.State, st.CacheHit, job.Key, first.Key)
			}
			if got := parseCount(m) - parsed; got != 1 {
				t.Errorf("%+v round %d: normalized %d times, want 1", req, round, got)
			}
		}
	}
	if got := m.Metrics().Completed.Value(); got != 1 {
		t.Errorf("completed %d campaigns, want 1", got)
	}
}

// TestMemoHitAfterClose: a closed manager rejects a resubmit whose
// report it holds as it rejects every other submission.
func TestMemoHitAfterClose(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1})
	req := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}}
	submitDone(t, m, req)
	if _, _, size := m.Cache().Stats(); size != 1 {
		t.Fatalf("completed campaign's report was not cached (%d entries)", size)
	}
	m.Close()
	submitted := m.Metrics().Submitted.Value()
	if _, err := m.Submit(req); !errors.Is(err, ErrClosed) {
		t.Fatalf("resubmit after Close: err %v, want ErrClosed", err)
	}
	if got := m.Metrics().RejectedClosed.Value(); got != 1 {
		t.Errorf("rejected (closed) = %d, want 1", got)
	}
	if got := m.Metrics().Submitted.Value(); got != submitted {
		t.Errorf("submitted %d → %d after a rejected resubmit", submitted, got)
	}
}

// TestMemoConcurrentSubmissions floods one manager with identical and
// tuning-only variants of one campaign while it runs (designed for
// -race): every job ends done under one key, every lookup is counted
// once, the circuit is prepared into one memo entry, and the
// submissions after completion are hits.
func TestMemoConcurrentSubmissions(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 256})
	defer m.Close()
	base := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true, Polarity: true}}
	want := canonicalKey(t, base)
	const clients, each = 8, 16
	var wg sync.WaitGroup
	jobs := make(chan *Job, clients*each)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := base
				req.Workers = c % 3
				job, err := m.Submit(req)
				if err != nil {
					t.Error(err)
					return
				}
				jobs <- job
			}
		}(c)
	}
	wg.Wait()
	close(jobs)
	n := 0
	for job := range jobs {
		n++
		if st := waitTerminal(t, job); st.State != StateDone || job.Key != want {
			t.Errorf("job %s: %s under %s, want done under %s", job.ID, st.State, job.Key, want)
		}
	}
	for w := 0; w < 3; w++ {
		req := base
		req.Workers = w
		if job, err := m.Submit(req); err != nil || !job.Status().CacheHit {
			t.Errorf("workers %d after completion: err %v, want a hit", w, err)
		}
	}
	if hits, misses, _ := m.Cache().Stats(); hits+misses != uint64(n+3) {
		t.Errorf("cache saw %d lookups, want %d", hits+misses, n+3)
	}
	if hits, misses, size := m.circuits.Stats(); hits+misses != uint64(n+3) || size != 1 {
		t.Errorf("circuit memo saw %d lookups and holds %d entries, want %d and 1", hits+misses, size, n+3)
	}
}
