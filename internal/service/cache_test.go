package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cpsinw/internal/logic"
)

// held is a cache entry's report with the given body.
func held(body string) *encodedReport { return &encodedReport{body: []byte(body)} }

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", held("1"))
	if r, ok := c.Get("a"); !ok || string(r.body) != "1" {
		t.Fatalf("lost entry: ok=%v r=%+v", ok, r)
	}
	hits, misses, size := c.Stats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Errorf("stats = %d hits %d misses %d size, want 1/1/1", hits, misses, size)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(2)
	c.Put("a", held("a"))
	c.Put("b", held("b"))
	// Touch "a": it becomes most recent, so "b" is the eviction victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", held("c"))

	if got, want := c.Keys(), []string{"c", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %v, want %v", got, want)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite being recently used")
	}
}

func TestCacheRePutRefreshes(t *testing.T) {
	c := NewCache(2)
	c.Put("a", held("1"))
	c.Put("b", held("b"))
	c.Put("a", held("2")) // refresh, not duplicate
	c.Put("c", held("c")) // evicts b, the true LRU

	if r, ok := c.Get("a"); !ok || string(r.body) != "2" {
		t.Errorf("a = %+v ok=%v, want refreshed entry", r, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
}

const c17Bench = `# c17
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
INPUT(i5)
OUTPUT(o22)
OUTPUT(o23)
n10 = NAND(i1, i3)
n11 = NAND(i3, i4)
n16 = NAND(i2, n11)
n19 = NAND(n11, i5)
o22 = NAND(n10, n16)
o23 = NAND(n16, n19)
`

// c17BenchMessy is the same circuit with different whitespace, casing of
// keywords, extra comments and a different advertised name.
const c17BenchMessy = `# totally different name
# another comment
INPUT( i1 )
INPUT(i2)
INPUT(  i3)
INPUT(i4  )
INPUT(i5)
OUTPUT(o22)
OUTPUT(o23)

n10 = NAND( i1 ,  i3 )   # first gate
n11=NAND(i3,i4)
n16 =  NAND(i2, n11)
n19= NAND(n11 , i5)
o22 = NAND(n10, n16)
o23 = NAND(n16, n19)
`

func parseBench(t *testing.T, src string) *logic.Circuit {
	t.Helper()
	c, err := logic.ParseBench("campaign", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCanonicalKeyWhitespaceInsensitive(t *testing.T) {
	req := CampaignRequest{Faults: FaultConfig{Polarity: true, IDDQ: true}, Patterns: 256, Seed: 1}
	k1 := CanonicalKey(parseBench(t, c17Bench), req)
	k2 := CanonicalKey(parseBench(t, c17BenchMessy), req)
	if k1 != k2 {
		t.Errorf("whitespace-different netlists keyed differently:\n%s\n%s", k1, k2)
	}
}

func TestCanonicalKeySensitivity(t *testing.T) {
	c := parseBench(t, c17Bench)
	base := CampaignRequest{Faults: FaultConfig{Polarity: true}, Patterns: 256, Seed: 1}
	k := CanonicalKey(c, base)

	seed := base
	seed.Seed = 2
	if CanonicalKey(c, seed) == k {
		t.Error("seed change did not change the key")
	}
	cfg := base
	cfg.Faults.StuckOn = true
	if CanonicalKey(c, cfg) == k {
		t.Error("fault-config change did not change the key")
	}
	tuning := base
	tuning.Workers = 7
	tuning.TimeoutMS = 12345
	if CanonicalKey(c, tuning) != k {
		t.Error("execution tuning (workers/timeout) perturbed the key")
	}
}

func TestCanonicalKeySharedAcrossSubmissions(t *testing.T) {
	// End-to-end at the cache level: simulate first submission storing,
	// second (messy) submission hitting.
	cache := NewCache(8)
	req := CampaignRequest{Faults: FaultConfig{StuckAt: true}, Patterns: 256, Seed: 1}
	cache.Put(CanonicalKey(parseBench(t, c17Bench), req), held("32"))
	if _, ok := cache.Get(CanonicalKey(parseBench(t, c17BenchMessy), req)); !ok {
		t.Error("semantically identical submission missed the cache")
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("stats = %d hits %d misses, want 1/0", hits, misses)
	}
}

func TestNormalizeExhaustiveDropsPatternBudget(t *testing.T) {
	// c17 has 5 inputs: always simulated exhaustively, so the pattern
	// budget and seed must not perturb the content address.
	a := CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}, Patterns: 64, Seed: 3}
	b := CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}, Patterns: 512, Seed: 9}
	na, ca, err := a.normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, cb, err := b.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.Patterns != 0 || na.Seed != 0 {
		t.Errorf("normalized budget = %d/%d, want 0/0 for exhaustive circuits", na.Patterns, na.Seed)
	}
	if CanonicalKey(ca, na) != CanonicalKey(cb, nb) {
		t.Error("pattern budget perturbed the key of an exhaustively simulated circuit")
	}

	// A 13-input circuit is random-pattern simulated: budget must stay.
	var wide strings.Builder
	for i := 0; i < 13; i++ {
		fmt.Fprintf(&wide, "INPUT(a%d)\n", i)
	}
	wide.WriteString("OUTPUT(y)\ny = NAND(a0, a1)\n")
	w := CampaignRequest{Netlist: wide.String(), Faults: FaultConfig{StuckAt: true}, Patterns: 64, Seed: 3}
	nw, _, err := w.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nw.Patterns != 64 || nw.Seed != 3 {
		t.Errorf("normalized budget = %d/%d, want 64/3 for random-pattern circuits", nw.Patterns, nw.Seed)
	}
}

func TestManagerPrunesFinishedJobs(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, MaxJobs: 3})
	defer m.Close()

	var last *Job
	cfgs := []FaultConfig{{StuckAt: true}, {Polarity: true}, {StuckOn: true}, {StuckOpen: true}, {Bridges: true}}
	ids := make([]string, 0, len(cfgs))
	for _, cfg := range cfgs {
		job, err := m.Submit(CampaignRequest{Netlist: c17Bench, Faults: cfg})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job)
		ids = append(ids, job.ID)
		last = job
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest finished job survived pruning past MaxJobs")
	}
	if _, ok := m.Get(last.ID); !ok {
		t.Error("newest job pruned")
	}
}
