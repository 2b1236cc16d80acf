package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cpsinw/internal/logic"
)

// CanonicalKey content-addresses a campaign: SHA-256 over the
// canonicalized netlist (parse + re-emit, so whitespace, comments and
// the submitted circuit name do not perturb the address) plus the
// normalized result-affecting config. Two semantically identical
// submissions therefore share one cache entry.
func CanonicalKey(c *logic.Circuit, req CampaignRequest) string {
	return contentKey(canonicalBench(c), req)
}

// canonicalBench writes the circuit as .bench text under a fixed name:
// the netlist half of its content address.
func canonicalBench(c *logic.Circuit) []byte {
	canon := *c
	canon.Name = "canonical"
	var b bytes.Buffer
	// WriteBench on a bytes.Buffer cannot fail.
	_ = logic.WriteBench(&b, &canon)
	return b.Bytes()
}

// contentKey is CanonicalKey over the circuit's canonical text: the
// SHA-256 of the text, a zero byte and the config's JSON.
func contentKey(canon []byte, req CampaignRequest) string {
	// Only fields that change the result participate; Workers and
	// TimeoutMS tune execution, and the netlist text is replaced by its
	// canonical form.
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
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte{0})
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil))
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

// Cache is the content-addressed LRU of finished reports: Get, Put,
// Stats and Keys, with hit/miss accounting. Putting a key it holds
// replaces the key's report. All methods are safe for concurrent use.
type Cache struct {
	*lru[string, *encodedReport]
}

// NewCache builds a cache holding at most max reports (default 128).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 128
	}
	return &Cache{newLRU[string, *encodedReport](max, 0, nil, nil)}
}
