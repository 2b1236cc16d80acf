// Package service exposes the reproduction's fault campaigns as a
// long-lived HTTP/JSON service: a bounded job queue feeds a worker pool
// that drives the faultsim/atpg engines under per-job deadlines, and a
// content-addressed LRU cache serves resubmissions of previously
// evaluated (netlist, fault-model) pairs without re-simulation.
package service

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"cpsinw/internal/bench"
	"cpsinw/internal/dict"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
)

// FaultConfig selects the fault classes a campaign simulates, mirroring
// core.UniverseOptions over the wire.
type FaultConfig struct {
	StuckAt      bool `json:"stuck_at"`                // classical line SA0/SA1
	Polarity     bool `json:"polarity"`                // the paper's SA-n / SA-p polarity faults
	StuckOpen    bool `json:"stuck_open"`              // channel breaks (nanowire opens)
	StuckOn      bool `json:"stuck_on"`                // always-conducting transistors
	Bridges      bool `json:"bridges"`                 // inter-net bridging faults
	BridgeWindow int  `json:"bridge_window,omitempty"` // neighbour window for bridge extraction (default 2)
	IDDQ         bool `json:"iddq"`                    // add quiescent-current observation
}

// Any reports whether at least one class is enabled.
func (f FaultConfig) Any() bool {
	return f.StuckAt || f.Polarity || f.StuckOpen || f.StuckOn || f.Bridges
}

// CampaignRequest is the POST /v1/campaigns body. Exactly one of Netlist
// (.bench source) or Benchmark (a bench.Suite name) selects the circuit.
type CampaignRequest struct {
	Netlist   string      `json:"netlist,omitempty"`
	Benchmark string      `json:"benchmark,omitempty"`
	Faults    FaultConfig `json:"faults"`
	// Patterns is the random-pattern budget, at most dict.MaxPatterns;
	// circuits with <= 12 inputs are always simulated exhaustively
	// (default 256).
	Patterns int   `json:"patterns,omitempty"`
	Seed     int64 `json:"seed,omitempty"` // random pattern seed (default 1)
	ATPG     bool  `json:"atpg,omitempty"` // also run the test-generation campaign
	// Engine selects the fault-simulation engine: "packed" (default;
	// bit-parallel PPSFP: N x 64 ternary lanes per block) or "reference"
	// (the serial switch-level oracle); any other name is rejected. Line
	// stuck-at always runs packed. The engines are differentially tested
	// to return identical results, so the choice only affects speed —
	// but it is kept in the cache key so a cross-check of one engine
	// against another's cached report is always a real re-simulation.
	Engine string `json:"engine,omitempty"`
	// Workers and TimeoutMS tune execution without affecting results, so
	// they are excluded from the cache key.
	Workers   int   `json:"workers,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Shards splits the campaign's fault lists into independently
	// scheduled, independently cached sub-jobs whose merged results do
	// not depend on the split. 0 auto-sizes from the circuit gate count
	// and fault population on a server with a result store, and runs
	// one shard otherwise; 1 runs one shard, which sweeps with the whole
	// worker budget. Like Workers, sharding cannot affect results, so it
	// is excluded from the cache key: submissions of one campaign with
	// any shard count share one content address (and one stored report).
	Shards int `json:"shards,omitempty"`
}

// Normalize applies defaults, validates the request and resolves the
// circuit, returning the canonical form used for content addressing.
// Exported for CLI front-ends that must derive the same artifact keys
// as the service (CanonicalKey over the normalized request).
func (r CampaignRequest) Normalize() (CampaignRequest, *logic.Circuit, error) {
	return r.normalize()
}

// normalize applies defaults and validates the request, resolving the
// circuit. The returned request is the canonical form used for cache
// keying.
func (r CampaignRequest) normalize() (CampaignRequest, *logic.Circuit, error) {
	norm, p, _, err := r.normalizeIn(nil)
	if err != nil {
		return norm, nil, err
	}
	return norm, p.c, nil
}

// normalizeIn is normalize resolving the circuit to its prepared entry
// through the memo; a nil memo prepares a private entry. hit reports
// that the memo already held the circuit.
func (r CampaignRequest) normalizeIn(memo *circuitMemo) (norm CampaignRequest, p *preparedCircuit, hit bool, err error) {
	if (r.Netlist == "") == (r.Benchmark == "") {
		return r, nil, false, errors.New("exactly one of netlist or benchmark is required")
	}
	if !r.Faults.Any() {
		return r, nil, false, errors.New("at least one fault class must be enabled")
	}
	if r.Patterns <= 0 {
		r.Patterns = DefaultPatternBudget
	}
	if r.Patterns > dict.MaxPatterns {
		return r, nil, false, fmt.Errorf("pattern budget %d exceeds the %d-pattern ceiling", r.Patterns, dict.MaxPatterns)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Faults.BridgeWindow <= 0 {
		r.Faults.BridgeWindow = 2
	}
	if r.Shards < 0 {
		r.Shards = 0 // auto
	}
	if !r.Faults.Bridges {
		r.Faults.BridgeWindow = 0 // irrelevant: keep the cache key stable
	}
	eng, err := faultsim.ParseEngine(r.Engine)
	if err != nil {
		return r, nil, false, err
	}
	r.Engine = eng.String() // canonical name for the cache key
	if p, hit, err = memo.resolve(r); err != nil {
		return r, nil, false, err
	}
	if len(p.c.Inputs) <= exhaustiveInputLimit {
		// The circuit is simulated exhaustively: the random-pattern
		// budget and seed cannot affect the result, so zero them for a
		// stable content address.
		r.Patterns, r.Seed = 0, 0
	}
	return r, p, hit, nil
}

// circuit resolves the request's circuit: the named benchmark, or the
// netlist parsed.
func (r CampaignRequest) circuit() (*logic.Circuit, error) {
	if r.Benchmark != "" {
		return bench.Get(r.Benchmark)
	}
	c, err := logic.ParseBench("campaign", strings.NewReader(r.Netlist))
	if err != nil {
		return nil, fmt.Errorf("bad netlist: %w", err)
	}
	return c, nil
}

// CircuitInfo summarises the campaign's circuit in the report.
type CircuitInfo struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	DPGates int    `json:"dp_gates"`
}

// CoverageJSON is the wire form of faultsim.Coverage.
type CoverageJSON struct {
	Total        int      `json:"total"`
	Detected     int      `json:"detected"`
	ByOutput     int      `json:"by_output,omitempty"`
	ByIDDQ       int      `json:"by_iddq,omitempty"`
	ByTwoPattern int      `json:"by_two_pattern,omitempty"`
	Percent      float64  `json:"percent"`
	Undetected   []string `json:"undetected,omitempty"`
}

// ATPGJSON is the wire form of atpg.CampaignResult.
type ATPGJSON struct {
	StuckAtTargeted  int     `json:"stuck_at_targeted"`
	StuckAtCovered   int     `json:"stuck_at_covered"`
	PolarityTargeted int     `json:"polarity_targeted"`
	PolarityCovered  int     `json:"polarity_covered"`
	CBSPTargeted     int     `json:"cb_sp_targeted"`
	CBSPCovered      int     `json:"cb_sp_covered"`
	CBDPTargeted     int     `json:"cb_dp_targeted"`
	CBDPCovered      int     `json:"cb_dp_covered"`
	Coverage         float64 `json:"coverage"`
	TotalVectors     int     `json:"total_vectors"`
	Untestable       int     `json:"untestable"`
}

// DictionaryJSON is the fault-dictionary artifact metadata carried in
// CampaignReport and JobStatus and served by GET
// /v1/campaigns/{id}/dictionary. The artifact itself lives in the
// manager's dictionary store under Key and answers POST /v1/diagnose
// after any number of process restarts.
type DictionaryJSON struct {
	Key                 string `json:"key"`      // content address, shared with the campaign cache key
	Entries             int    `json:"entries"`  // faults with stored signatures
	Patterns            int    `json:"patterns"` // signature width
	IDDQ                bool   `json:"iddq"`     // leak plane populated
	CompressedBytes     int64  `json:"compressed_bytes"`
	Detected            int    `json:"detected"`
	Classes             int    `json:"classes"`
	UniquelyDiagnosable int    `json:"uniquely_diagnosable"`
}

// DiagnoseRequest is the POST /v1/diagnose body. Exactly one of Key (a
// dictionary artifact's content address) or CampaignID (a convenience:
// resolved to that job's key) selects the dictionary. FailingPatterns
// and LeakingPatterns are the observed tester response as pattern
// indices into the campaign's pattern set.
type DiagnoseRequest struct {
	Key             string `json:"key,omitempty"`
	CampaignID      string `json:"campaign_id,omitempty"`
	FailingPatterns []int  `json:"failing_patterns"`
	LeakingPatterns []int  `json:"leaking_patterns,omitempty"`
	TopK            int    `json:"top_k,omitempty"` // default 5
}

// DiagnoseResponse ranks the dictionary faults against the observation.
// The answer comes entirely from the stored dictionary — no simulation
// runs, so it works after any number of process restarts.
type DiagnoseResponse struct {
	Key        string           `json:"key"`
	Circuit    string           `json:"circuit"`
	Patterns   int              `json:"patterns"`
	IDDQ       bool             `json:"iddq"`
	Candidates []dict.Candidate `json:"candidates"`
}

// CampaignReport is the GET /v1/campaigns/{id}/report body: structured
// coverage per fault class plus the same report.Table set the CLI tools
// render, marshalled through internal/report's JSON form. The service
// encodes each finished report once, as compact JSON, and holds and
// serves those bytes; it keeps no decoded copy.
type CampaignReport struct {
	Circuit        CircuitInfo     `json:"circuit"`
	Patterns       int             `json:"patterns"`
	Engine         string          `json:"engine,omitempty"` // fault-simulation engine used
	StuckAt        *CoverageJSON   `json:"stuck_at,omitempty"`
	Transistor     *CoverageJSON   `json:"transistor,omitempty"`      // voltage observation only
	TransistorIDDQ *CoverageJSON   `json:"transistor_iddq,omitempty"` // voltage + IDDQ
	Bridges        *CoverageJSON   `json:"bridges,omitempty"`
	ATPG           *ATPGJSON       `json:"atpg,omitempty"`
	Dictionary     *DictionaryJSON `json:"dictionary,omitempty"`
	Tables         []*report.Table `json:"tables"`
	ElapsedMS      int64           `json:"elapsed_ms"`
}

// JobState is the lifecycle of one campaign job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	// StateResumable marks a campaign that was persisted to the result
	// store but never finished: it was queued or draining when the
	// service stopped. The job record is terminal (this process will not
	// run it on its own), but the stored request survives restarts —
	// POST /v1/campaigns/{id}/resume resubmits it, and completed shards
	// already in the result store are reused, not re-simulated.
	StateResumable JobState = "resumable"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final for this job record
// (resumable campaigns continue under a new job ID via resume).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateResumable
}

// JobProgress is a live snapshot of a running campaign stage, carried
// in JobStatus and streamed over /v1/campaigns/{id}/events. Done/Total
// count the stage's faults (bridges on the bridge stage) summed over
// the campaign's shards: Total is the stage's whole fault universe from
// the first frame, and a finished shard counts all of its range done.
// Faults is the stage's targeted fault universe (the coverage
// denominator); GateEvals counts engine-native gate evaluations, so
// rates compare within an engine, not across engines.
type JobProgress struct {
	Stage      string  `json:"stage"`
	Class      string  `json:"class,omitempty"` // ATPG fault class
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Detected   int     `json:"detected"`
	Dropped    int     `json:"dropped,omitempty"`
	Untestable int     `json:"untestable,omitempty"` // ATPG only
	Vectors    int     `json:"vectors,omitempty"`    // ATPG only
	Faults     int     `json:"faults,omitempty"`
	GateEvals  uint64  `json:"gate_evals,omitempty"`
	Coverage   float64 `json:"coverage_percent"`
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	// Shards is the campaign's plan size (1 for a one-shard campaign),
	// ShardsDone the sub-jobs finished (store-served shards count
	// immediately); ATPG frames report every shard done.
	Shards     int `json:"shards,omitempty"`
	ShardsDone int `json:"shards_done,omitempty"`
}

// JobStatus is the GET /v1/campaigns/{id} body (and the SSE frame).
// Dictionary is set once the job is done and a fault-dictionary
// artifact was persisted for it.
type JobStatus struct {
	ID         string          `json:"id"`
	State      JobState        `json:"state"`
	CacheHit   bool            `json:"cache_hit"`
	Key        string          `json:"key"` // content address of (netlist, config)
	Error      string          `json:"error,omitempty"`
	Submitted  string          `json:"submitted,omitempty"`
	Started    string          `json:"started,omitempty"`
	Finished   string          `json:"finished,omitempty"`
	Progress   *JobProgress    `json:"progress,omitempty"`
	Dictionary *DictionaryJSON `json:"dictionary,omitempty"`
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
