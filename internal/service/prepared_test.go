package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
)

// fullFaults is every fault class with IDDQ observation.
var fullFaults = FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true}

// benchText writes a built-in circuit as .bench text.
func benchText(t *testing.T, name string) string {
	t.Helper()
	c, err := bench.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := logic.WriteBench(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// reportBytes is a done job's held report re-encoded with ElapsedMS
// zeroed, the one field that differs between runs.
func reportBytes(t *testing.T, job *Job) []byte {
	t.Helper()
	held, state, msg := job.result()
	if held == nil {
		t.Fatalf("job %s: %s (%s), no report", job.ID, state, msg)
	}
	var rep CampaignReport
	if err := json.Unmarshal(held.body, &rep); err != nil {
		t.Fatal(err)
	}
	rep.ElapsedMS = 0
	enc, err := encodeReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return enc.body
}

// memoStats reports the memo's resident entries and counted bytes.
func memoStats(cm *circuitMemo) (entries int, bytes int64) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.ll.Len(), cm.bytes
}

// parseSource is the circuit attribute of the job's parse span.
func parseSource(t *testing.T, m *Manager, job *Job) string {
	t.Helper()
	tree, ok := m.Tracer().Tree(job.ID)
	if !ok {
		t.Fatalf("job %s has no trace", job.ID)
	}
	for _, ch := range tree.Children {
		if ch.Name == "parse" {
			return ch.Attrs["circuit"]
		}
	}
	t.Fatalf("job %s has no parse span", job.ID)
	return ""
}

// TestCircuitMemoHitReportsMatchFresh: a campaign on a circuit the
// memo already prepared (its universes, names, bridges and simulators
// reused from an earlier campaign with another seed) reports exactly
// what a fresh manager reports, for benchmarks, a netlist posted as
// text and a generated family member, with and without ATPG.
func TestCircuitMemoHitReportsMatchFresh(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2})
	defer m.Close()
	for _, req := range []CampaignRequest{
		{Benchmark: "c432", Faults: fullFaults, ATPG: true},
		{Benchmark: "alu8", Faults: fullFaults},
		{Netlist: benchText(t, "c499"), Faults: fullFaults},
		{Benchmark: "randl9_w16xd8", Faults: fullFaults, ATPG: true},
	} {
		name := req.Benchmark
		if name == "" {
			name = "c499.bench"
		}
		warm := req
		warm.Seed = 101
		first := submitDone(t, m, warm)
		if got := parseSource(t, m, first); got != "built" {
			t.Errorf("%s: first campaign's parse span circuit=%q, want built", name, got)
		}
		hits := m.metrics.CircuitMemoHits.Value()
		req.Seed = 202
		hit := submitDone(t, m, req)
		if got := m.metrics.CircuitMemoHits.Value(); got != hits+1 {
			t.Errorf("%s: memo hits %d → %d, want one more", name, hits, got)
		}
		if got := parseSource(t, m, hit); got != "memo" {
			t.Errorf("%s: second campaign's parse span circuit=%q, want memo", name, got)
		}

		fresh := NewManager(ManagerConfig{Workers: 2})
		want := reportBytes(t, submitDone(t, fresh, req))
		fresh.Close()
		if got := reportBytes(t, hit); !bytes.Equal(got, want) {
			t.Errorf("%s: memo-hit report differs from a fresh manager's:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestCircuitMemoConcurrentCampaigns runs 8 campaigns on one prepared
// circuit at once, mixing fault configurations, ATPG and signature
// capture, so they share the entry's universes, names and bridges
// while its simulator pool hands each shard its own simulator. Every
// report must equal a private run's; -race checks the sharing.
func TestCircuitMemoConcurrentCampaigns(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 4, DictDir: t.TempDir()})
	defer m.Close()
	configs := []struct {
		faults FaultConfig
		atpg   bool
	}{
		{fullFaults, false},
		{FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true}, true},
		{FaultConfig{Polarity: true, StuckOn: true, IDDQ: true}, false},
		{FaultConfig{StuckAt: true, Bridges: true, BridgeWindow: 3}, true},
	}
	var jobs []*Job
	var reqs []CampaignRequest
	for i := range 8 {
		cfg := configs[i%len(configs)]
		req := CampaignRequest{Benchmark: "alu8", Faults: cfg.faults, ATPG: cfg.atpg, Seed: int64(i + 1), Workers: 2}
		job, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs, reqs = append(jobs, job), append(reqs, req)
	}
	for i, job := range jobs {
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("campaign %d: %s (%s)", i, st.State, st.Error)
		}
		norm, c, err := reqs[i].normalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunCampaignObserved(context.Background(), c, norm, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.ElapsedMS = 0
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ := job.Report()
		if got.Dictionary == nil {
			t.Errorf("campaign %d captured no dictionary", i)
		}
		got.ElapsedMS, got.Dictionary = 0, nil
		if gotBody, _ := json.Marshal(got); !bytes.Equal(gotBody, wantBody) {
			t.Errorf("campaign %d report differs from a private run's", i)
		}
	}
	if hits, misses := m.metrics.CircuitMemoHits.Value(), m.metrics.CircuitMemoMisses.Value(); hits != 7 || misses != 1 {
		t.Errorf("memo hits/misses = %d/%d, want 7/1", hits, misses)
	}
}

// TestCircuitMemoBounded submits more distinct circuits than the memo
// holds: it keeps at most maxPreparedCircuits, the least recently used
// go first, and an evicted circuit is prepared again, correctly.
func TestCircuitMemoBounded(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2})
	defer m.Close()
	req := func(i int) CampaignRequest {
		return CampaignRequest{Benchmark: fmt.Sprintf("randl%d_w16xd4", i), Faults: FaultConfig{StuckAt: true, Polarity: true}, Seed: 5}
	}
	n := maxPreparedCircuits + 4
	for i := range n {
		submitDone(t, m, req(i))
		if entries, _ := memoStats(m.circuits); entries > maxPreparedCircuits {
			t.Fatalf("after %d circuits the memo holds %d, bound %d", i+1, entries, maxPreparedCircuits)
		}
	}
	if entries, _ := memoStats(m.circuits); entries != maxPreparedCircuits {
		t.Errorf("memo holds %d circuits, want %d", entries, maxPreparedCircuits)
	}
	if misses := m.metrics.CircuitMemoMisses.Value(); misses != int64(n) {
		t.Errorf("memo misses = %d, want %d", misses, n)
	}

	evicted := req(0)
	evicted.Seed = 6
	job := submitDone(t, m, evicted)
	if misses := m.metrics.CircuitMemoMisses.Value(); misses != int64(n+1) {
		t.Errorf("evicted circuit: memo misses = %d, want %d", misses, n+1)
	}
	if got := parseSource(t, m, job); got != "built" {
		t.Errorf("evicted circuit's parse span circuit=%q, want built", got)
	}
	fresh := NewManager(ManagerConfig{Workers: 2})
	defer fresh.Close()
	if got, want := reportBytes(t, job), reportBytes(t, submitDone(t, fresh, evicted)); !bytes.Equal(got, want) {
		t.Errorf("rebuilt circuit's report differs from a fresh manager's")
	}
}

// TestCircuitMemoByteBound: the memo also evicts by counted bytes, and
// an entry over the byte bound on its own is not kept; an entry's
// growth counts while it is resident.
func TestCircuitMemoByteBound(t *testing.T) {
	reg := obs.NewRegistry()
	cm := newCircuitMemo(reg.Counter("hits", ""), reg.Counter("misses", ""))
	entry := func(held int64) *preparedCircuit {
		p := newPrepared(nil)
		p.memo, p.held = cm, held
		return p
	}
	a := cm.put(circuitKey{benchmark: "a"}, entry(maxPreparedBytes/2))
	cm.put(circuitKey{benchmark: "b"}, entry(maxPreparedBytes/4))
	if n, b := memoStats(cm); n != 2 || b != maxPreparedBytes*3/4 {
		t.Fatalf("memo = %d entries, %d bytes; want 2, %d", n, b, maxPreparedBytes*3/4)
	}
	cm.charge(a, maxPreparedBytes/2) // a grows past the bound with b: a, the older, goes
	if n, b := memoStats(cm); n != 1 || b != maxPreparedBytes/4 || cm.get(circuitKey{benchmark: "a"}) != nil {
		t.Fatalf("after growth: %d entries, %d bytes; want b alone", n, b)
	}
	cm.charge(a, 1) // an evicted entry's growth is not counted
	if _, b := memoStats(cm); b != maxPreparedBytes/4 {
		t.Errorf("evicted entry's growth counted: %d bytes", b)
	}
	cm.put(circuitKey{benchmark: "huge"}, entry(maxPreparedBytes+1))
	if n, b := memoStats(cm); n != 0 || b != 0 {
		t.Errorf("an entry over the byte bound was kept: %d entries, %d bytes", n, b)
	}
}

// TestCircuitMemoSeparatesNetlists: netlist texts key the memo by
// their bytes, so two texts of one circuit are two entries (sharing
// one content key), a different circuit is a third, and a netlist that
// fails to parse is not memoized and fails the same way twice.
func TestCircuitMemoSeparatesNetlists(t *testing.T) {
	withEchoRunner(t)
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()
	faults := FaultConfig{StuckAt: true}
	a := submitDone(t, m, CampaignRequest{Netlist: c17Bench, Faults: faults})
	b := submitDone(t, m, CampaignRequest{Netlist: c17BenchMessy, Faults: faults})
	c := submitDone(t, m, CampaignRequest{Netlist: benchText(t, "rca4"), Faults: faults})
	if entries, _ := memoStats(m.circuits); entries != 3 {
		t.Errorf("three netlist texts share entries: memo holds %d", entries)
	}
	if a.Key != b.Key {
		t.Errorf("two texts of c17 keyed %s and %s, want one content key", a.Key, b.Key)
	}
	if c.Key == a.Key {
		t.Errorf("rca4 and c17 share the key %s", a.Key)
	}
	if hits := m.metrics.CircuitMemoHits.Value(); hits != 0 {
		t.Errorf("distinct texts hit the memo %d times", hits)
	}

	bad := CampaignRequest{Netlist: "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n", Faults: faults}
	_, err1 := m.Submit(bad)
	_, err2 := m.Submit(bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() || !strings.HasPrefix(err1.Error(), "bad netlist") {
		t.Errorf("bad netlist errors %v, %v; want one bad-netlist error twice", err1, err2)
	}
	if entries, _ := memoStats(m.circuits); entries != 3 {
		t.Errorf("a bad netlist was memoized: memo holds %d", entries)
	}
}

// TestCanonicalKeyPinned pins content keys computed before the memo
// existed: CanonicalKey and the manager's memoized path (the entry's
// canonical text) must both reproduce them, or every stored report and
// dictionary would be orphaned.
func TestCanonicalKeyPinned(t *testing.T) {
	reg := obs.NewRegistry()
	cm := newCircuitMemo(reg.Counter("hits", ""), reg.Counter("misses", ""))
	for _, tc := range []struct {
		req  CampaignRequest
		want string
	}{
		{CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}},
			"a6dc674169d56d1f1bb0966b34e75d44e4fdbeb03921e0f41a44ab0fbd8b7542"},
		{CampaignRequest{Benchmark: "c432", Faults: fullFaults, Seed: 7, Patterns: 128, ATPG: true},
			"48789c2a5346df7295158f543ee20743b350516500aaab40eb9313da61d8bcd3"},
		{CampaignRequest{Netlist: benchText(t, "c499"), Faults: fullFaults, Seed: 3},
			"272cb3e3bf40eb4dce9140cb512fdfd2c3d1de0b746639eb1b34611409ead63c"},
		{CampaignRequest{Benchmark: "alu8", Faults: FaultConfig{Bridges: true, BridgeWindow: 3, IDDQ: true}, Engine: "reference"},
			"1301050b697a8b142bc71c01c2ca55962003ec32fcb4e5ef0f04b18f18abb081"},
		{CampaignRequest{Benchmark: "randl5_w16xd8", Faults: FaultConfig{StuckAt: true, Polarity: true}, Workers: 3, Shards: 2},
			"7dd9ea7793b6e09dc2c96049e6e354c287a1da962bac92d15b8952fe38122959"},
	} {
		if got := canonicalKey(t, tc.req); got != tc.want {
			t.Errorf("CanonicalKey = %s, want %s", got, tc.want)
		}
		for range 2 { // the miss, then the hit
			norm, p, _, err := tc.req.normalizeIn(cm)
			if err != nil {
				t.Fatal(err)
			}
			if got := contentKey(p.canon, norm); got != tc.want {
				t.Errorf("memoized key = %s, want %s", got, tc.want)
			}
		}
	}
}

// TestPreparedUniverseShared: an entry builds each fault
// configuration's universe once and hands every campaign the same
// slices, concurrently too; the line half precedes the transistor half.
func TestPreparedUniverseShared(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	p := newPrepared(c)
	var wg sync.WaitGroup
	us := make([]*faultUniverse, 8)
	for i := range us {
		wg.Add(1)
		go func() {
			defer wg.Done()
			us[i] = p.universe(fullFaults)
		}()
	}
	wg.Wait()
	for _, u := range us[1:] {
		if u != us[0] {
			t.Fatal("one fault configuration got two universes")
		}
	}
	u := us[0]
	for i, f := range u.faults {
		if f.Kind.IsLineFault() != (i < u.lines) || u.names[i] != f.String() {
			t.Fatalf("fault %d (%s) misplaced or misnamed (%q), %d line faults", i, f, u.names[i], u.lines)
		}
	}
	if p.universe(FaultConfig{StuckAt: true}) == u {
		t.Error("two fault configurations share a universe")
	}
}
