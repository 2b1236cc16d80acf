package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"

	"cpsinw/internal/logic"
)

// parseCount is how many submissions were normalized and keyed.
func parseCount(m *Manager) uint64 { return m.metrics.stages["parse"].Count() }

// memoSize is how many request digests the cache holds.
func memoSize(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}

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

// TestMemoHitSkipsNormalize pins the memo's fast path: a byte-identical
// resubmit is answered born done without normalizing or keying the
// circuit (the parse stage is not observed) and counts as a cache hit.
func TestMemoHitSkipsNormalize(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()
	req := CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true, Polarity: true}}
	first := submitDone(t, m, req)

	parsed := parseCount(m)
	hits, _, _ := m.Cache().Stats()
	job, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Status(); st.State != StateDone || !st.CacheHit {
		t.Fatalf("memo resubmit: state %s cache_hit %t, want a born-done hit", st.State, st.CacheHit)
	}
	if job.Key != first.Key {
		t.Errorf("memo resubmit keyed %s, want %s", job.Key, first.Key)
	}
	if got := parseCount(m); got != parsed {
		t.Errorf("memo resubmit observed the parse stage: %d → %d", parsed, got)
	}
	if h, _, _ := m.Cache().Stats(); h != hits+1 {
		t.Errorf("cache hits %d → %d, want one more", hits, h)
	}
	a, _, _ := first.result()
	if b, _, _ := job.result(); a == nil || a != b {
		t.Error("memo hit's record does not share the completed campaign's held report")
	}
}

// TestMemoKeepsResultFieldsApart submits requests that differ in one
// result-affecting field each. None may be answered from another's
// digest: each first submission is normalized, and each is keyed (and
// later recalled) under its own canonical key.
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
			t.Errorf("%s: first submission was not normalized (parse %d → %d): answered from another request's digest", tc.name, parsed, got)
		}
		keys[tc.name] = canonicalKey(t, tc.req)
		if job.Key != keys[tc.name] {
			t.Errorf("%s: keyed %s, want %s", tc.name, job.Key, keys[tc.name])
		}
	}
	for _, tc := range cases {
		parsed := parseCount(m)
		job, err := m.Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); st.State != StateDone || !st.CacheHit {
			t.Errorf("%s: resubmit state %s cache_hit %t, want a memo hit", tc.name, st.State, st.CacheHit)
		}
		if got := parseCount(m); got != parsed {
			t.Errorf("%s: resubmit was normalized, want a memo hit", tc.name)
		}
		if job.Key != keys[tc.name] {
			t.Errorf("%s: recalled key %s, want %s", tc.name, job.Key, keys[tc.name])
		}
	}
}

// TestMemoTuningVariantHitsByKey: a request that differs only in
// execution tuning misses the memo, hits the LRU by canonical key and
// is memoized from then on.
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
		for round, wantParsed := range []uint64{1, 0} {
			parsed := parseCount(m)
			job, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := job.Status(); st.State != StateDone || !st.CacheHit || job.Key != first.Key {
				t.Fatalf("%+v round %d: state %s cache_hit %t key %s, want a hit on %s", req, round, st.State, st.CacheHit, job.Key, first.Key)
			}
			if got := parseCount(m) - parsed; got != wantParsed {
				t.Errorf("%+v round %d: normalized %d times, want %d", req, round, got, wantParsed)
			}
		}
	}
	if got := m.Metrics().Completed.Value(); got != 1 {
		t.Errorf("completed %d campaigns, want 1", got)
	}
}

// TestMemoBoundedAndDroppedWithEntry: an entry keeps at most
// maxEntryDigests digests, newest kept, under a stream of requests that
// vary only timeout_ms; evicting the entry drops its digests.
func TestMemoBoundedAndDroppedWithEntry(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1, CacheSize: 1})
	defer m.Close()
	base := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}}
	submitDone(t, m, base)
	var last CampaignRequest
	for i := 1; i <= 3*maxEntryDigests; i++ {
		last = base
		last.TimeoutMS = int64(1000 + i)
		if _, err := m.Submit(last); err != nil {
			t.Fatal(err)
		}
		if n := memoSize(m.Cache()); n > maxEntryDigests {
			t.Fatalf("after %d variants the memo holds %d digests, want at most %d", i, n, maxEntryDigests)
		}
	}
	if _, _, ok := m.Cache().Recall(digestRequest(last)); !ok {
		t.Error("newest digest was not kept")
	}
	if _, _, ok := m.Cache().Recall(digestRequest(base)); ok {
		t.Error("oldest digest survived the per-entry cap")
	}

	// A second campaign evicts the only entry, and its digests with it.
	submitDone(t, m, CampaignRequest{Benchmark: "c17", Faults: FaultConfig{Polarity: true}})
	if _, _, ok := m.Cache().Recall(digestRequest(last)); ok {
		t.Error("digest outlived its evicted entry")
	}
	if n := memoSize(m.Cache()); n != 1 {
		t.Errorf("memo holds %d digests, want only the new entry's 1", n)
	}
}

// TestCacheMemoize covers the index itself: memoizing needs a resident
// entry, a digest is recorded once, and re-putting a key keeps its
// digests.
func TestCacheMemoize(t *testing.T) {
	c := NewCache(4)
	d := requestDigest(sha256.Sum256([]byte("request")))
	c.Memoize("a", d)
	if _, _, ok := c.Recall(d); ok {
		t.Fatal("digest memoized against a key that is not resident")
	}
	c.Put("a", held("1"))
	c.Memoize("a", d)
	c.Memoize("a", d)
	if n := memoSize(c); n != 1 {
		t.Fatalf("memo holds %d digests, want 1", n)
	}
	c.Put("a", held("2"))
	key, r, ok := c.Recall(d)
	if !ok || key != "a" || string(r.body) != "2" {
		t.Fatalf("recall = %q %v %t, want the refreshed entry a", key, r, ok)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 0 {
		t.Errorf("stats = %d hits %d misses, want 1/0 (a recall is a hit)", hits, misses)
	}
}

// TestMemoHitAfterClose: a closed manager rejects a memo hit as it
// rejects every other submission.
func TestMemoHitAfterClose(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1})
	req := CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}}
	submitDone(t, m, req)
	if _, _, ok := m.Cache().Recall(digestRequest(req)); !ok {
		t.Fatal("completed campaign was not memoized")
	}
	m.Close()
	submitted := m.Metrics().Submitted.Value()
	if _, err := m.Submit(req); !errors.Is(err, ErrClosed) {
		t.Fatalf("memo hit after Close: err %v, want ErrClosed", err)
	}
	if got := m.Metrics().RejectedClosed.Value(); got != 1 {
		t.Errorf("rejected (closed) = %d, want 1", got)
	}
	if got := m.Metrics().Submitted.Value(); got != submitted {
		t.Errorf("submitted %d → %d after a rejected memo hit", submitted, got)
	}
}

// TestMemoConcurrentSubmissions floods one manager with identical and
// tuning-only variants of one campaign while it runs (designed for
// -race): every job ends done under one key, every lookup is counted
// once, and the submissions after completion are memo hits.
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
	parsed := parseCount(m)
	for w := 0; w < 3; w++ {
		req := base
		req.Workers = w
		if job, err := m.Submit(req); err != nil || !job.Status().CacheHit {
			t.Errorf("workers %d after completion: err %v, want a memo hit", w, err)
		}
	}
	if got := parseCount(m); got != parsed {
		t.Errorf("resubmits after completion normalized %d times, want 0", got-parsed)
	}
	if hits, misses, _ := m.Cache().Stats(); hits+misses != uint64(n+3) {
		t.Errorf("cache saw %d lookups, want %d", hits+misses, n+3)
	}
}
