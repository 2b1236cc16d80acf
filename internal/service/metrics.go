package service

import (
	"time"

	"cpsinw/internal/faultsim"
	"cpsinw/internal/obs"
)

// Reject reasons for the cpsinw_jobs_rejected_total counter.
const (
	rejectInvalid   = "invalid"
	rejectQueueFull = "queue_full"
	rejectClosed    = "closed"
)

// campaignStages is every span/stage name a campaign can report, in
// execution order. Registering the per-stage histograms up front keeps
// the /metrics exposition stable from the first scrape (golden tests
// pin the series set).
var campaignStages = []string{
	"parse", "patterns", "compile", "simulate",
	"stuck_at", "transistor", "bridges", "atpg",
	"merge", "dictionary", "report",
}

// Metrics collects the service counters on an obs.Registry and renders
// them in the Prometheus text exposition via the registry. The counter
// fields keep their historical names (and Value accessors) so direct
// consumers are unaffected; the legacy flat-JSON form survives as
// Snapshot, served by /metrics?format=json and publishable through
// expvar.Func.
type Metrics struct {
	reg *obs.Registry

	Submitted *obs.Counter
	Completed *obs.Counter
	Failed    *obs.Counter
	Canceled  *obs.Counter

	// Rejected submissions never become jobs; the reasons are the
	// reject* constants.
	RejectedInvalid   *obs.Counter
	RejectedQueueFull *obs.Counter
	RejectedClosed    *obs.Counter

	// Per-engine job accounting: which fault-simulation engine each
	// executed campaign selected (packed is the default).
	ReferenceJobs *obs.Counter
	PackedJobs    *obs.Counter

	// ProgressEvents counts live progress snapshots delivered by
	// running campaigns (before SSE throttling).
	ProgressEvents *obs.Counter

	// Fault-dictionary accounting: artifacts persisted by completed
	// campaigns, their compressed on-disk bytes, and diagnosis queries
	// answered from stored dictionaries.
	DictBuilt     *obs.Counter
	DictBytes     *obs.Counter
	DictDiagnoses *obs.Counter

	// Sharded-execution accounting: sub-jobs dispatched to the shard
	// scheduler, re-attempts after failures, sub-jobs answered from the
	// persistent result store without simulation, and sub-jobs that
	// exhausted their retry budget.
	ShardScheduled   *obs.Counter
	ShardRetried     *obs.Counter
	ShardCacheHits   *obs.Counter
	ShardQuarantined *obs.Counter
	// StoreReportHits counts whole campaigns answered from the
	// persistent result store (merged reports surviving restarts); the
	// in-memory LRU's hits are cpsinw_cache_hits_total.
	StoreReportHits *obs.Counter

	// JobDuration observes end-to-end execution time of non-cached
	// jobs, in seconds.
	JobDuration *obs.Histogram

	stages map[string]*obs.Histogram
}

// NewMetrics registers the service instruments on the registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		reg:       reg,
		Submitted: reg.Counter("cpsinw_jobs_submitted_total", "Accepted campaign submissions (including cache hits)."),
	}
	rejected := func(reason string) *obs.Counter {
		return reg.Counter("cpsinw_jobs_rejected_total", "Submissions rejected without becoming jobs.", obs.L("reason", reason))
	}
	m.RejectedInvalid = rejected(rejectInvalid)
	m.RejectedQueueFull = rejected(rejectQueueFull)
	m.RejectedClosed = rejected(rejectClosed)
	m.Completed = reg.Counter("cpsinw_jobs_completed_total", "Jobs that finished successfully.")
	m.Failed = reg.Counter("cpsinw_jobs_failed_total", "Jobs that finished with an error.")
	m.Canceled = reg.Counter("cpsinw_jobs_canceled_total", "Jobs canceled by deadline or shutdown.")
	engine := func(name string) *obs.Counter {
		return reg.Counter("cpsinw_jobs_engine_total", "Executed (non-cached) jobs per fault-simulation engine.", obs.L("engine", name))
	}
	m.ReferenceJobs = engine("reference")
	m.PackedJobs = engine("packed")
	m.ProgressEvents = reg.Counter("cpsinw_progress_events_total", "Campaign progress snapshots delivered by running jobs.")
	m.DictBuilt = reg.Counter("cpsinw_dict_built_total", "Fault-dictionary artifacts persisted by completed campaigns.")
	m.DictBytes = reg.Counter("cpsinw_dict_bytes_total", "Compressed bytes written to the fault-dictionary store.")
	m.DictDiagnoses = reg.Counter("cpsinw_dict_diagnoses_total", "Diagnosis queries answered from stored fault dictionaries.")
	m.ShardScheduled = reg.Counter("cpsinw_shard_scheduled_total", "Campaign sub-jobs dispatched to the shard scheduler.")
	m.ShardRetried = reg.Counter("cpsinw_shard_retried_total", "Campaign sub-job re-attempts after a failed attempt.")
	m.ShardCacheHits = reg.Counter("cpsinw_shard_cache_hits_total", "Campaign sub-jobs answered from the persistent result store.")
	m.ShardQuarantined = reg.Counter("cpsinw_shard_quarantined_total", "Campaign sub-jobs that exhausted their retry budget.")
	m.StoreReportHits = reg.Counter("cpsinw_resultstore_report_hits_total", "Campaigns answered whole from the persistent result store.")
	m.JobDuration = reg.Histogram("cpsinw_job_duration_seconds", "End-to-end execution time of non-cached jobs.", nil)
	m.stages = make(map[string]*obs.Histogram, len(campaignStages))
	for _, stage := range campaignStages {
		m.stages[stage] = reg.Histogram("cpsinw_stage_duration_seconds", "Per-stage campaign execution time.", nil, obs.L("stage", stage))
	}
	return m
}

// ObserveLatency records one finished job's wall-clock time.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.JobDuration.Observe(d.Seconds())
}

// ObserveStage records one campaign stage's wall-clock time. Unknown
// stage names register a new series on first use (the stages map is
// read-only after NewMetrics; Registry registration is idempotent).
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	h, ok := m.stages[stage]
	if !ok {
		h = m.reg.Histogram("cpsinw_stage_duration_seconds", "Per-stage campaign execution time.", nil, obs.L("stage", stage))
	}
	h.Observe(d.Seconds())
}

// registerManagerMetrics wires the instruments that need live manager
// state: queue/worker/cache/subscriber gauges, the cache hit counters
// and the process-wide faultsim engine counters. Called once from
// NewManager, after the manager's queue and cache exist.
func registerManagerMetrics(reg *obs.Registry, m *Manager) {
	reg.GaugeFunc("cpsinw_queue_depth", "Jobs waiting for a worker.", func() float64 { return float64(m.QueueDepth()) })
	reg.GaugeFunc("cpsinw_queue_capacity", "Bounded submission queue size.", func() float64 { return float64(m.QueueCapacity()) })
	reg.GaugeFunc("cpsinw_workers", "Worker pool size.", func() float64 { return float64(m.Workers()) })
	reg.GaugeFunc("cpsinw_event_subscribers", "Connected progress-event (SSE) subscribers.", func() float64 { return float64(m.subscribers.Load()) })
	reg.CounterFunc("cpsinw_cache_hits_total", "Result-cache hits.", func() uint64 { h, _, _ := m.cache.Stats(); return h })
	reg.CounterFunc("cpsinw_cache_misses_total", "Result-cache misses.", func() uint64 { _, mi, _ := m.cache.Stats(); return mi })
	reg.GaugeFunc("cpsinw_cache_entries", "Resident result-cache entries.", func() float64 { _, _, n := m.cache.Stats(); return float64(n) })

	// The faultsim engine counters are process-wide (the engines are
	// shared by every simulator). Gate evaluations are engine-native
	// units: packed evaluations covering up to 64 lanes (packed, which
	// also carries every line stuck-at campaign) and full hooked-map
	// evaluations (reference).
	es := func(pick func(faultsim.EngineStats) uint64) func() uint64 {
		return func() uint64 { return pick(faultsim.ReadEngineStats()) }
	}
	reg.CounterFunc("cpsinw_faultsim_fault_runs_total", "Fault x campaign units simulated, per engine.",
		es(func(s faultsim.EngineStats) uint64 { return s.ReferenceFaultRuns }), obs.L("engine", "reference"))
	reg.CounterFunc("cpsinw_faultsim_fault_runs_total", "Fault x campaign units simulated, per engine.",
		es(func(s faultsim.EngineStats) uint64 { return s.PackedFaultRuns }), obs.L("engine", "packed"))
	reg.CounterFunc("cpsinw_faultsim_bridge_runs_total", "Bridge x campaign units simulated, per engine.",
		es(func(s faultsim.EngineStats) uint64 { return s.ReferenceBridgeRuns }), obs.L("engine", "reference"))
	reg.CounterFunc("cpsinw_faultsim_bridge_runs_total", "Bridge x campaign units simulated, per engine.",
		es(func(s faultsim.EngineStats) uint64 { return s.PackedBridgeRuns }), obs.L("engine", "packed"))
	reg.CounterFunc("cpsinw_faultsim_gate_evals_total", "Engine-native gate evaluations (units differ per engine).",
		es(func(s faultsim.EngineStats) uint64 { return s.ReferenceGateEvals }), obs.L("engine", "reference"))
	reg.CounterFunc("cpsinw_faultsim_gate_evals_total", "Engine-native gate evaluations (units differ per engine).",
		es(func(s faultsim.EngineStats) uint64 { return s.PackedGateEvals }), obs.L("engine", "packed"))
	reg.CounterFunc("cpsinw_faultsim_fault_luts_compiled_total", "Distinct per-fault behaviour tables compiled.",
		es(func(s faultsim.EngineStats) uint64 { return s.FaultLUTsCompiled }))
	reg.CounterFunc("cpsinw_faultsim_two_pattern_runs_total", "Fault x pattern-pair units through the packed two-pattern engine.",
		es(func(s faultsim.EngineStats) uint64 { return s.TwoPatternRuns }))
}

// Snapshot renders every counter plus derived statistics as a flat map:
// the legacy JSON form served by /metrics?format=json and published
// through expvar. The latency percentiles come from the job-duration
// histogram (linear interpolation inside the owning bucket).
func (m *Metrics) Snapshot(queueDepth, workers int, cache *Cache) map[string]interface{} {
	hits, misses, size := cache.Stats()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	es := faultsim.ReadEngineStats()
	return map[string]interface{}{
		"queue_depth":           queueDepth,
		"workers":               workers,
		"jobs_submitted":        m.Submitted.Value(),
		"jobs_completed":        m.Completed.Value(),
		"jobs_failed":           m.Failed.Value(),
		"jobs_canceled":         m.Canceled.Value(),
		"jobs_rejected":         m.RejectedInvalid.Value() + m.RejectedQueueFull.Value() + m.RejectedClosed.Value(),
		"jobs_engine_reference": m.ReferenceJobs.Value(),
		"jobs_engine_packed":    m.PackedJobs.Value(),
		"progress_events":       m.ProgressEvents.Value(),
		"dict_built":            m.DictBuilt.Value(),
		"dict_bytes":            m.DictBytes.Value(),
		"dict_diagnoses":        m.DictDiagnoses.Value(),
		"shard_scheduled":       m.ShardScheduled.Value(),
		"shard_retried":         m.ShardRetried.Value(),
		"shard_cache_hits":      m.ShardCacheHits.Value(),
		"shard_quarantined":     m.ShardQuarantined.Value(),
		"resultstore_hits":      m.StoreReportHits.Value(),
		"cache_hits":            hits,
		"cache_misses":          misses,
		"cache_size":            size,
		"cache_hit_rate":        hitRate,
		"latency_ms_p50":        m.JobDuration.Quantile(0.50) * 1000,
		"latency_ms_p99":        m.JobDuration.Quantile(0.99) * 1000,
		"latency_samples":       m.JobDuration.Count(),

		"faultsim_reference_fault_runs":  es.ReferenceFaultRuns,
		"faultsim_fault_luts_compiled":   es.FaultLUTsCompiled,
		"faultsim_two_pattern_runs":      es.TwoPatternRuns,
		"faultsim_packed_fault_runs":     es.PackedFaultRuns,
		"faultsim_packed_gate_evals":     es.PackedGateEvals,
		"faultsim_packed_bridge_runs":    es.PackedBridgeRuns,
		"faultsim_reference_gate_evals":  es.ReferenceGateEvals,
		"faultsim_reference_bridge_runs": es.ReferenceBridgeRuns,
	}
}
