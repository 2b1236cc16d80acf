package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"cpsinw/internal/logic"
)

// CanonicalKey content-addresses a campaign: SHA-256 over the
// canonicalized netlist (parse + re-emit, so whitespace, comments and
// the submitted circuit name do not perturb the address) plus the
// normalized result-affecting config. Two semantically identical
// submissions therefore share one cache entry.
func CanonicalKey(c *logic.Circuit, req CampaignRequest) string {
	canon := *c
	canon.Name = "canonical"
	var b strings.Builder
	// WriteBench on a strings.Builder cannot fail.
	_ = logic.WriteBench(&b, &canon)
	b.WriteByte(0)

	// Only fields that change the result participate; Workers and
	// TimeoutMS tune execution, and the netlist text is replaced by its
	// canonical form above.
	cfg, _ := json.Marshal(struct {
		Faults   FaultConfig `json:"faults"`
		Patterns int         `json:"patterns"`
		Seed     int64       `json:"seed"`
		ATPG     bool        `json:"atpg"`
		// The engines are differentially proven result-identical, but
		// keying them apart keeps a cross-check of one engine against
		// the other's cached report a real re-simulation.
		Engine string `json:"engine"`
	}{req.Faults, req.Patterns, req.Seed, req.ATPG, req.Engine})
	b.Write(cfg)

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// maxEntryDigests bounds the request digests one cache entry
// memoizes. Requests that differ only in execution tuning (workers,
// timeout_ms, shards) share an entry under distinct digests; the cap
// keeps a client that varies them from growing the memo.
const maxEntryDigests = 8

// requestDigest is the SHA-256 of a decoded request's JSON encoding,
// the request memo's key. Hashing the whole encoding rather than a
// list of fields means a field added to CampaignRequest later cannot be
// left out of the digest.
type requestDigest [sha256.Size]byte

func digestRequest(req CampaignRequest) requestDigest {
	// CampaignRequest holds only strings, integers and booleans, so
	// the encoding cannot fail.
	raw, _ := json.Marshal(req)
	return sha256.Sum256(raw)
}

// encodedReport is a finished campaign's report as it is held and
// served: the compact JSON body, encoded once, plus the dictionary
// metadata JobStatus and /dictionary carry. The decoded CampaignReport
// is not kept: it takes more heap than its JSON and the collector must
// scan it, while a []byte is never scanned.
type encodedReport struct {
	body []byte
	dict *DictionaryJSON
}

func encodeReport(rep *CampaignReport) (*encodedReport, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return &encodedReport{body: body, dict: rep.Dictionary}, nil
}

// Cache is a content-addressed LRU result cache with hit/miss
// accounting and a request memo: a second index from request digests
// to entries, so a byte-identical resubmit finds its report without
// normalizing or hashing the circuit. All methods are safe for
// concurrent use.
type Cache struct {
	mu           sync.Mutex
	max          int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	memo         map[requestDigest]*list.Element
	hits, misses uint64
}

type cacheEntry struct {
	key     string
	report  *encodedReport
	digests []requestDigest // memoized requests, oldest first
}

// NewCache builds a cache holding at most max reports (default 128).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 128
	}
	return &Cache{max: max, ll: list.New(), items: map[string]*list.Element{}, memo: map[requestDigest]*list.Element{}}
}

// Get returns the cached report for the key, promoting it to most
// recently used, and records a hit or miss.
func (c *Cache) Get(key string) (*encodedReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).report, true
}

// Recall looks a request digest up in the memo and returns the key and
// report of the entry it was recorded against, promoting the entry. A
// recall is a hit; a miss records nothing, because the request goes on
// to Get by its canonical key.
func (c *Cache) Recall(d requestDigest) (string, *encodedReport, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.memo[d]
	if !ok {
		return "", nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.key, e.report, true
}

// Memoize records the digest against the key's entry, so the same
// request is answered by Recall from then on. It does nothing when the
// key is not resident or the digest is already recorded. An entry keeps
// its newest maxEntryDigests digests; its digests go when it does.
func (c *Cache) Memoize(key string, d requestDigest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, dup := c.memo[d]; dup {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.digests) == maxEntryDigests {
		delete(c.memo, e.digests[0])
		e.digests = append(e.digests[:0], e.digests[1:]...)
	}
	e.digests = append(e.digests, d)
	c.memo[d] = el
}

// Put stores the report under the key, evicting the least recently used
// entry when full. Re-putting an existing key refreshes its recency and
// keeps its memoized digests.
func (c *Cache) Put(key string, r *encodedReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).report = r
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, report: r})
	for c.ll.Len() > c.max {
		e := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.items, e.key)
		for _, d := range e.digests {
			delete(c.memo, d)
		}
	}
}

// Stats returns the hit/miss counters and current size.
func (c *Cache) Stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// Keys lists the cached keys from most to least recently used, for
// eviction-order inspection.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}
