package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
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

// contentKey is CanonicalKey over the circuit's canonical text.
func contentKey(canon []byte, req CampaignRequest) string {
	// Only fields that change the result participate; Workers and
	// TimeoutMS tune execution, and the netlist text is replaced by its
	// canonical form.
	return textKey(canon, struct {
		Faults   FaultConfig `json:"faults"`
		Patterns int         `json:"patterns"`
		Seed     int64       `json:"seed"`
		ATPG     bool        `json:"atpg"`
		// The engines are differentially proven result-identical, but
		// keying them apart keeps a cross-check of one engine against
		// the other's cached report a real re-simulation.
		Engine string `json:"engine"`
	}{req.Faults, req.Patterns, req.Seed, req.ATPG, req.Engine})
}

// textKey is a content address the service derives from a circuit: the
// SHA-256, in hex, of its canonical text, a zero byte and cfg's JSON.
func textKey(canon []byte, cfg any) string {
	b, _ := json.Marshal(cfg)
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// encodedReport is a finished campaign's report as it is held and
// served: the compact report body, encoded once, the dictionary
// metadata JobStatus and /dictionary carry, and the undetected-lists
// body, rendered when /undetected first asks (undetectedBody) from the
// campaign's undetected faults by index or, for a report the result
// store served, from its stored index and names, and then held. The
// decoded CampaignReport is not kept: it takes more heap than its JSON
// and the collector must scan it, while a []byte is never scanned.
type encodedReport struct {
	body []byte
	dict *DictionaryJSON

	mu         sync.Mutex
	missed     *missedFaults // until rendered; nil when the store served body
	undetected []byte        // the rendered /undetected body
}

// encodeReport encodes a finished report's body, which carries no
// undetected lists, and keeps its undetected faults by index.
func encodeReport(rep *CampaignReport) (*encodedReport, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return &encodedReport{body: body, dict: rep.Dictionary, missed: rep.missed()}, nil
}

// persistReport writes a finished report's artifacts under key: its
// universe's names when absent, its undetected index, then the report,
// so a stored report always has its index and names beside it. It runs
// before the report is published, while held still has its indices.
func persistReport(st *resultstore.Store, key string, held *encodedReport) error {
	if held.missed == nil {
		return errors.New("report holds no undetected faults to persist")
	}
	if err := persistMissed(st, key, held.missed); err != nil {
		return err
	}
	_, err := st.Write(resultstore.KindReport, key, held.body)
	return err
}

// PersistReport encodes a finished campaign's report and writes it to
// the result store under the campaign's key as the service does, for
// CLI front-ends that share a store with it.
func PersistReport(st *resultstore.Store, key string, rep *CampaignReport) error {
	held, err := encodeReport(rep)
	if err != nil {
		return err
	}
	return persistReport(st, key, held)
}

// errStaleReport marks a stored report the service does not serve: it
// is not a version ReportVersion body, or its undetected index is
// missing. A store an older build wrote holds only such reports.
var errStaleReport = errors.New("stored report is not served")

// readStored reads the key's stored report for serving, with its
// undetected faults left in the store. A report is served only when its
// body reads version ReportVersion and its undetected-index artifact
// exists; any other stored report is an errStaleReport miss, which the
// caller re-simulates, rewriting its artifacts. A missing report is a
// wrapped fs.ErrNotExist, and a torn one or one that is not JSON a
// read or decode error.
func readStored(st *resultstore.Store, key string) (*encodedReport, error) {
	body, err := st.Read(resultstore.KindReport, key)
	if err != nil {
		return nil, err
	}
	var head struct {
		Version    int             `json:"version"`
		Dictionary *DictionaryJSON `json:"dictionary"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return nil, err
	}
	if head.Version != ReportVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", errStaleReport, head.Version, ReportVersion)
	}
	if !st.Has(resultstore.KindUndetectedIndex, key) {
		return nil, fmt.Errorf("%w: no undetected-index artifact", errStaleReport)
	}
	// A copy at its exact size: the read buffer's spare capacity would
	// stay resident in the LRU with the body.
	return &encodedReport{body: bytes.Clone(body), dict: head.Dictionary}, nil
}

// LoadReport decodes the key's stored report under the rule the
// service serves it by (see readStored), for CLI front-ends that share
// a store with it. Its coverage carries no undetected faults.
func LoadReport(st *resultstore.Store, key string) (*CampaignReport, error) {
	held, err := readStored(st, key)
	if err != nil {
		return nil, err
	}
	var rep CampaignReport
	if err := json.Unmarshal(held.body, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
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
