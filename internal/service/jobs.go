package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpsinw/internal/dict"
	"cpsinw/internal/obs"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

// ErrQueueFull is returned by Submit when the bounded queue cannot
// accept another job; clients should back off and retry.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close: the instance is shutting
// down and clients should retry elsewhere.
var ErrClosed = errors.New("service: manager closed")

// ErrTooManySubscribers is returned by Subscribe when the manager
// already serves maxSubscribers event streams; clients should retry.
var ErrTooManySubscribers = errors.New("service: too many event subscribers")

// runCampaign is the worker's execution function, a seam for tests that
// need deterministic blocking, cancellation or synthetic progress.
var runCampaign = runPrepared

// subscriberBuffer is the per-subscriber event channel depth; a slow
// consumer drops intermediate frames (each frame is a full snapshot)
// and always receives the terminal state via channel close.
const subscriberBuffer = 64

// maxSubscribers bounds the live event subscriptions one manager holds
// at once, across all jobs: each pins a subscriberBuffer-deep channel
// and, over HTTP, a streaming connection.
const maxSubscribers = 256

// Job is one campaign submission moving through the queue.
type Job struct {
	ID  string
	Key string

	mu       sync.Mutex
	state    JobState
	cacheHit bool
	err      string
	submitted, started,
	finished time.Time
	// report is set once the job is done: the held, encoded report,
	// shared with the cache entry and every hit's job record.
	report *encodedReport

	// Live observability: the latest progress snapshot, the SSE
	// subscriber channels, and the broadcast throttle state.
	progress   *JobProgress
	subs       []chan JobStatus
	lastEmit   time.Time
	stage      string
	stageClass string
	stageStart time.Time

	// parse timing from Submit, recorded into the trace by run, and
	// whether the circuit memo already held the circuit.
	parseStart, parseEnd time.Time
	circuitHit           bool

	circuit *preparedCircuit
	req     CampaignRequest
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Key:       j.Key,
		Error:     j.err,
		Submitted: rfc3339(j.submitted),
		Started:   rfc3339(j.started),
		Finished:  rfc3339(j.finished),
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	if j.report != nil {
		st.Dictionary = j.report.dict
	}
	return st
}

// Report decodes the held report body; it is nil unless the job is
// done. Its coverage carries no undetected names: the lists are a body
// of their own. The HTTP handlers serve the held bytes and never
// decode.
func (j *Job) Report() (*CampaignReport, JobState, string) {
	held, state, errMsg := j.result()
	if held == nil {
		return nil, state, errMsg
	}
	var rep CampaignReport
	if err := json.Unmarshal(held.body, &rep); err != nil {
		return nil, state, fmt.Sprintf("decoding the held report: %v", err)
	}
	return &rep, state, errMsg
}

// result returns the held report (nil unless done), the state and the
// error message.
func (j *Job) result() (*encodedReport, JobState, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.state, j.err
}

// broadcastLocked delivers one snapshot to every subscriber without
// blocking: a full consumer misses this frame (every frame is a
// self-contained snapshot) and learns the terminal state from the
// channel close. Callers hold j.mu.
func (j *Job) broadcastLocked(st JobStatus) {
	for _, ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

// closeSubsLocked ends every subscription; buffered frames still drain
// to the consumers before they observe the close. Callers hold j.mu.
func (j *Job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// ManagerConfig tunes the job manager.
type ManagerConfig struct {
	Workers    int           // worker pool size (default GOMAXPROCS)
	QueueDepth int           // bounded submission queue (default 64)
	CacheSize  int           // LRU result cache entries (default 128)
	MaxJobs    int           // retained job records; oldest finished are pruned (default 4096)
	JobTimeout time.Duration // per-job deadline (default 60s)

	// DictDir, when set, enables the persistent fault-dictionary store:
	// campaigns harvest per-fault signatures during simulation and
	// persist one content-addressed artifact per campaign key there,
	// served by /v1/campaigns/{id}/dictionary and /v1/diagnose across
	// process restarts. Empty disables dictionary capture entirely.
	DictDir string

	// ResultDir, when set, enables the durable content-addressed result
	// store: campaigns auto-size their shard count, each merged report
	// (and, in plans of two or more shards, each sub-job) persisting
	// under its content address, so repeat campaigns — and the
	// already-computed shards of interrupted ones — are answered
	// without re-simulation across process restarts. Campaigns that
	// were accepted but unfinished when the process stopped surface as
	// resumable jobs on the next start. Empty disables persistence;
	// campaigns then run as one shard unless a request asks for more.
	ResultDir string
	// ShardRetries re-attempts a failed shard before quarantining it
	// (default 1; negative disables retry).
	ShardRetries int

	// Logger receives structured job lifecycle lines (default: discard).
	Logger *slog.Logger
	// ProgressInterval throttles progress broadcasts per job: at most
	// one frame per interval, plus every stage-completing frame
	// (default 100ms; negative disables throttling).
	ProgressInterval time.Duration
	// MaxTraces bounds the retained span trees (default 256).
	MaxTraces int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.Logger == nil {
		// No record reaches this level. Not slog.Default(): that writes
		// to stderr.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = 100 * time.Millisecond
	}
	if c.ShardRetries == 0 {
		c.ShardRetries = 1
	}
	if c.ShardRetries < 0 {
		c.ShardRetries = 0
	}
	return c
}

// Manager owns the queue, the worker pool, the in-memory caches (the
// result cache, the memo of prepared circuits and the loaded
// dictionaries, each an lru) and the observability surfaces (metrics
// registry, span tracer, logger).
type Manager struct {
	cfg      ManagerConfig
	cache    *Cache
	circuits *circuitMemo
	dicts    *lru[string, *dict.Dictionary] // loaded by /v1/diagnose
	metrics  *Metrics
	reg      *obs.Registry
	tracer   *obs.Tracer
	log      *slog.Logger
	dict     *dict.Store        // nil unless DictDir is configured
	store    *resultstore.Store // nil unless ResultDir is configured

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup
	// drain, when closed, tells shard schedulers to stop starting new
	// sub-jobs and workers to park still-queued jobs as resumable.
	drain chan struct{}

	subscribers atomic.Int64 // connected SSE event subscribers

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job IDs, oldest first, for pruning
	seq      int
	closed   bool
}

// NewManager starts the worker pool.
func NewManager(cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	m := &Manager{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheSize),
		circuits: newCircuitMemo(metrics.CircuitMemoHits, metrics.CircuitMemoMisses),
		dicts:    newLRU[string, *dict.Dictionary](maxLoadedDictionaries, 0, nil, nil),
		metrics:  metrics,
		reg:      reg,
		tracer:   obs.NewTracer(cfg.MaxTraces),
		log:      cfg.Logger,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *Job, cfg.QueueDepth),
		drain:    make(chan struct{}),
		jobs:     map[string]*Job{},
	}
	if cfg.DictDir != "" {
		store, err := dict.Open(cfg.DictDir)
		if err != nil {
			// A broken dictionary directory must not take the campaign
			// service down: run without persistence and say so loudly.
			m.log.Warn("dictionary store disabled", "dir", cfg.DictDir, "error", err.Error())
		} else {
			m.dict = store
		}
	}
	if cfg.ResultDir != "" {
		store, err := resultstore.Open(cfg.ResultDir)
		if err != nil {
			// Same posture as the dictionary store: a broken directory
			// degrades to no persistence, not a dead service.
			m.log.Warn("result store disabled", "dir", cfg.ResultDir, "error", err.Error())
		} else {
			m.store = store
			m.recoverPending()
		}
	}
	registerManagerMetrics(reg, m)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates the request and either answers it from a held
// report (the job is born terminal, marked as a hit) or enqueues it.
// Every request takes one path: it resolves its circuit through the
// memo of prepared circuits (parsed, canonicalized and, once run,
// compiled and enumerated once per circuit), is keyed canonically and
// looked up in the LRU, then in the result store. Returns ErrQueueFull
// when the bounded queue is saturated. Only accepted submissions count
// as submitted; rejections increment the rejected counter with their
// reason.
func (m *Manager) Submit(req CampaignRequest) (*Job, error) {
	parseStart := time.Now()
	norm, circuit, circuitHit, err := req.normalizeIn(m.circuits)
	if err != nil {
		m.metrics.RejectedInvalid.Inc()
		return nil, err
	}
	key := contentKey(circuit.canon, norm)
	parseEnd := time.Now()
	m.metrics.ObserveStage("parse", parseEnd.Sub(parseStart))

	if rep, ok := m.cache.Get(key); ok {
		return m.answer(key, rep, "campaign answered from cache")
	}
	// The persistent result store outlives the LRU and the process: a
	// stored merged report answers the campaign with zero simulation,
	// warming the LRU on the way. The read runs before m.mu, so it
	// stalls no other submission.
	if rep := m.storedReport(key); rep != nil {
		m.cache.Put(key, rep)
		m.metrics.StoreReportHits.Inc()
		return m.answer(key, rep, "campaign answered from result store")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.metrics.RejectedClosed.Inc()
		return nil, ErrClosed
	}
	// Only Submit sends on the queue, always under m.mu, so a queue
	// with room now still has room below.
	if len(m.queue) == cap(m.queue) {
		m.metrics.RejectedQueueFull.Inc()
		return nil, ErrQueueFull
	}
	m.seq++
	job := &Job{
		ID:         fmt.Sprintf("c-%06d", m.seq),
		Key:        key,
		state:      StateQueued,
		submitted:  time.Now(),
		parseStart: parseStart,
		parseEnd:   parseEnd,
		circuitHit: circuitHit,
		circuit:    circuit,
		req:        norm,
	}
	// The pending marker makes the accepted campaign durable: if the
	// process stops before the report lands, the next start surfaces it
	// as a resumable job instead of losing it silently. It is written
	// before a worker can see the job, so a fast campaign cannot finish
	// (and consume the marker) before the marker exists.
	if m.store != nil {
		pc := pendingCampaign{Request: job.req, Submitted: rfc3339(job.submitted), JobID: job.ID}
		if _, err := m.store.Put(resultstore.KindPending, key, pc); err != nil {
			m.log.Warn("pending marker not persisted", "job", job.ID, "key", key, "error", err.Error())
		}
	}
	m.queue <- job
	m.jobs[job.ID] = job
	m.metrics.Submitted.Inc()
	m.log.Debug("campaign queued", "job", job.ID, "engine", job.req.Engine, "key", job.Key)
	return job, nil
}

// answer registers a submission answered from a held report: the job is
// born done, marked as a cache hit, and shares the report's bytes.
func (m *Manager) answer(key string, rep *encodedReport, msg string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.metrics.RejectedClosed.Inc()
		return nil, ErrClosed
	}
	m.seq++
	now := time.Now()
	job := &Job{
		ID:        fmt.Sprintf("c-%06d", m.seq),
		Key:       key,
		state:     StateDone,
		cacheHit:  true,
		submitted: now,
		started:   now,
		finished:  now,
		report:    rep,
	}
	m.jobs[job.ID] = job
	m.noteTerminalLocked(job.ID)
	m.metrics.Submitted.Inc()
	m.log.Debug(msg, "job", job.ID, "key", key)
	return job, nil
}

// storedReport reads the key's merged report from the result store for
// serving; nil without a store or a report readStored serves. The body
// is served as stored and only its version and dictionary fields are
// decoded; its undetected index and names stay in the store until
// /undetected asks. A stored report that is torn, not JSON, of another
// version or without its index is logged; a missing one is not.
func (m *Manager) storedReport(key string) *encodedReport {
	if m.store == nil {
		return nil
	}
	held, err := readStored(m.store, key)
	switch {
	case err == nil:
		return held
	case errors.Is(err, errStaleReport):
		m.log.Warn("stored report not served, campaign re-simulates", "key", key, "error", err.Error())
	case !errors.Is(err, fs.ErrNotExist):
		m.log.Warn("stored report unreadable", "key", key, "error", err.Error())
	}
	return nil
}

// undetected returns a done job's undetected-lists body, rendered once
// per held report (encodedReport.undetectedBody): from its campaign's
// indices, or, for a report the result store served, from the stored
// index and names. An index or names artifact that is missing, torn or
// inconsistent is a logged error, never a partial list.
func (m *Manager) undetected(key string, held *encodedReport) ([]byte, error) {
	body, err := held.undetectedBody(m.store, key)
	if err != nil {
		m.log.Warn("stored undetected faults unreadable", "key", key, "error", err.Error())
	}
	return body, err
}

// pendingCampaign is the resumable-state artifact in the result store's
// pending/ tree: the accepted request itself, so a restarted service
// can resubmit it verbatim (same canonical key, so every shard already
// computed is reused).
type pendingCampaign struct {
	Request   CampaignRequest `json:"request"`
	Submitted string          `json:"submitted,omitempty"`
	JobID     string          `json:"job_id,omitempty"` // ID in the accepting process, for log correlation
}

// recoverPending scans the result store's pending markers at startup:
// campaigns whose stored report would be served (storedReport) are
// finished (stale marker, removed), markers whose request this build
// rejects are dropped, and the rest become resumable job records: so
// does a campaign whose stored report does not decode, predates report
// v2 or lacks its undetected index. Runs from NewManager before the
// workers start, so it needs no locking.
func (m *Manager) recoverPending() {
	keys, err := m.store.Keys(resultstore.KindPending)
	if err != nil {
		m.log.Warn("pending scan failed", "error", err.Error())
		return
	}
	for _, key := range keys {
		if m.storedReport(key) != nil {
			_ = m.store.Delete(resultstore.KindPending, key)
			continue
		}
		var pc pendingCampaign
		if err := m.store.Get(resultstore.KindPending, key, &pc); err != nil {
			m.log.Warn("pending marker unreadable", "key", key, "error", err.Error())
			continue
		}
		// A marker an older build wrote may name a request this build
		// rejects, such as a retired engine. Resume could never submit
		// it, so it would be listed as resumable on every start.
		if _, _, err := pc.Request.normalize(); err != nil {
			m.log.Warn("pending marker no longer valid, deleted", "key", key, "error", err.Error())
			_ = m.store.Delete(resultstore.KindPending, key)
			continue
		}
		m.seq++
		job := &Job{
			ID:    fmt.Sprintf("c-%06d", m.seq),
			Key:   key,
			state: StateResumable,
			req:   pc.Request,
		}
		if t, err := time.Parse(time.RFC3339Nano, pc.Submitted); err == nil {
			job.submitted = t
		}
		job.finished = time.Now()
		m.jobs[job.ID] = job
		m.noteTerminalLocked(job.ID)
		m.log.Info("campaign recovered as resumable", "job", job.ID, "key", key)
	}
}

// Resumable lists the resumable campaign records, oldest first.
// Records whose pending marker is gone (the campaign was resumed and
// finished, so the marker was consumed) are filtered out: the listing
// reflects what a restart would actually recover.
func (m *Manager) Resumable() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []JobStatus
	for _, j := range m.jobs {
		st := j.Status()
		if st.State != StateResumable {
			continue
		}
		if m.store != nil && !m.store.Has(resultstore.KindPending, st.Key) {
			continue
		}
		out = append(out, st)
	}
	sortStatusesByID(out)
	return out
}

// Resume resubmits a resumable campaign's stored request as a new job.
// Shards (and possibly the whole report) already in the result store
// are served from it, so resuming only pays for the missing work.
func (m *Manager) Resume(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("service: no such job %s", id)
	}
	j.mu.Lock()
	state, req := j.state, j.req
	j.mu.Unlock()
	if state != StateResumable {
		return nil, fmt.Errorf("service: job %s is %s, not resumable", id, state)
	}
	return m.Submit(req)
}

// sortStatusesByID orders statuses by job number. An ID is "c-" and a
// sequence number padded to at least six digits, so a longer ID is a
// larger number and IDs of one length order as text.
func sortStatusesByID(sts []JobStatus) {
	slices.SortFunc(sts, func(a, b JobStatus) int {
		if c := cmp.Compare(len(a.ID), len(b.ID)); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Subscribe registers a live event channel on the job. Every frame is a
// full JobStatus snapshot; the channel closes when the job reaches a
// terminal state (read the final status from the job afterwards). On an
// already-terminal job the returned channel is closed immediately. The
// cancel func is idempotent and must be called to release the
// subscription. With maxSubscribers live subscriptions already open,
// Subscribe refuses with ErrTooManySubscribers.
func (m *Manager) Subscribe(j *Job) (<-chan JobStatus, func(), error) {
	ch := make(chan JobStatus, subscriberBuffer)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}, nil
	}
	if m.subscribers.Add(1) > maxSubscribers {
		j.mu.Unlock()
		m.subscribers.Add(-1)
		return nil, nil, ErrTooManySubscribers
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			j.mu.Lock()
			for i, c := range j.subs {
				if c == ch {
					j.subs = append(j.subs[:i], j.subs[i+1:]...)
					break
				}
			}
			j.mu.Unlock()
			m.subscribers.Add(-1)
		})
	}
	return ch, cancel, nil
}

// noteProgress folds one campaign snapshot into the job: it derives
// coverage and a per-stage ETA, stores the snapshot for Status, and
// broadcasts to subscribers under the configured throttle (stage
// starts and completions always broadcast). The engines batch their
// progress, a few dozen frames per stage and shard, and so does ATPG,
// at most 66 frames per class, so this runs a few hundred times per
// campaign: it allocates nothing, updating the stored snapshot in
// place (statusLocked hands out copies).
func (m *Manager) noteProgress(job *Job, p JobProgress) {
	m.metrics.ProgressEvents.Inc()
	now := time.Now()
	if p.Faults > 0 {
		p.Coverage = 100 * float64(p.Detected) / float64(p.Faults)
	}

	job.mu.Lock()
	if p.Stage != job.stage || p.Class != job.stageClass {
		job.stage, job.stageClass = p.Stage, p.Class
		job.stageStart = now
	}
	if p.Done > 0 && p.Done < p.Total {
		perUnit := now.Sub(job.stageStart).Seconds() / float64(p.Done)
		p.ETASeconds = perUnit * float64(p.Total-p.Done)
	}
	if job.progress == nil {
		job.progress = new(JobProgress)
	}
	*job.progress = p
	boundary := p.Done == 0 || (p.Total > 0 && p.Done >= p.Total)
	if m.cfg.ProgressInterval < 0 || boundary || now.Sub(job.lastEmit) >= m.cfg.ProgressInterval {
		job.lastEmit = now
		job.broadcastLocked(job.statusLocked())
	}
	job.mu.Unlock()
}

// noteTerminalLocked records a finished job and prunes the oldest
// finished records beyond MaxJobs, bounding the job table on long-lived
// servers. Queued and running jobs are never pruned. Callers hold m.mu.
func (m *Manager) noteTerminalLocked(id string) {
	m.finished = append(m.finished, id)
	for len(m.jobs) > m.cfg.MaxJobs && len(m.finished) > 0 {
		victim := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, victim)
	}
}

func (m *Manager) noteTerminal(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteTerminalLocked(id)
}

// QueueDepth reports the jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// QueueCapacity reports the bounded queue size.
func (m *Manager) QueueCapacity() int { return m.cfg.QueueDepth }

// Metrics exposes the counters for the /metrics handler.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Registry exposes the metrics registry (Prometheus exposition).
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Tracer exposes the span tracer (the /trace endpoint).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// Cache exposes the result cache (read-mostly: stats and keys).
func (m *Manager) Cache() *Cache { return m.cache }

// maxLoadedDictionaries bounds the manager's cache of dictionaries
// loaded from the store. Stored dictionaries are not cached: a
// store-backed server writes one per campaign, most never read back.
const maxLoadedDictionaries = 64

// dictionary returns the stored dictionary under key, loading it on a
// miss of the cache of loaded dictionaries; os.ErrNotExist surfaces
// (wrapped) when none is stored. Callers share cached dictionaries and
// must not modify them. The manager must have a dictionary store.
func (m *Manager) dictionary(key string) (*dict.Dictionary, error) {
	if d, ok := m.dicts.Get(key); ok {
		return d, nil
	}
	d, err := m.dict.Get(key)
	if err != nil {
		return nil, err
	}
	// A key names its content, so a concurrent load's copy serves too.
	return m.dicts.publish(key, d, 0), nil
}

// Workers reports the pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Closed reports whether Close has begun.
func (m *Manager) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close cancels in-flight jobs and stops the workers.
func (m *Manager) Close() {
	m.shutdown(false)
}

// Drain shuts down gracefully: no new submissions, in-flight shards run
// to completion and persist, and still-queued jobs park as resumable
// state in the result store instead of being canceled (without a store
// they are canceled: nothing persisted to resume from). Returns when
// the workers have exited.
func (m *Manager) Drain() {
	m.shutdown(true)
}

func (m *Manager) shutdown(drain bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	if drain {
		close(m.drain)
	} else {
		m.cancel()
	}
	close(m.queue)
	m.wg.Wait()
	m.cancel()
}

// shardedOptions wires one job's execution to the manager's store,
// drain signal, metrics and logger. The shard count is the request's;
// else auto-sized when shards can persist to a result store; else one
// shard, the single-shot run.
func (m *Manager) shardedOptions(job *Job) ShardedOptions {
	shards := job.req.Shards
	if shards == 0 && m.store == nil {
		shards = 1
	}
	return ShardedOptions{
		Key:      job.Key,
		Shards:   shards,
		Store:    m.store,
		Retries:  m.cfg.ShardRetries,
		Draining: m.drain,
		Events: shard.Events{
			Scheduled: func(shard.SubJob) { m.metrics.ShardScheduled.Inc() },
			Retried: func(j shard.SubJob, attempt int, err error) {
				m.metrics.ShardRetried.Inc()
				m.log.Warn("shard retrying", "job", job.ID, "shard", j.Index, "attempt", attempt, "error", err.Error())
			},
			Quarantined: func(j shard.SubJob, err error) {
				m.metrics.ShardQuarantined.Inc()
				m.log.Warn("shard quarantined", "job", job.ID, "shard", j.Index, "error", err.Error())
			},
		},
		OnCacheHit: func(shard.SubJob) { m.metrics.ShardCacheHits.Inc() },
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		if m.ctx.Err() != nil {
			job.mu.Lock()
			job.state = StateCanceled
			job.err = "service shutting down"
			job.finished = time.Now()
			job.circuit, job.req.Netlist = nil, ""
			job.closeSubsLocked()
			job.mu.Unlock()
			m.metrics.Canceled.Inc()
			m.noteTerminal(job.ID)
			continue
		}
		if m.isDraining() {
			m.parkResumable(job, "service draining before the campaign started")
			continue
		}
		m.run(job)
	}
}

// isDraining reports whether Drain has fired.
func (m *Manager) isDraining() bool {
	select {
	case <-m.drain:
		return true
	default:
		return false
	}
}

// parkResumable terminates a job without running it: with a result
// store its pending marker survives and the record says so; without
// one there is nothing durable to come back to, so it is canceled.
func (m *Manager) parkResumable(job *Job, reason string) {
	job.mu.Lock()
	if m.store != nil {
		job.state = StateResumable
		job.err = reason
		// Keep req (the resume payload); drop only the parsed circuit.
		job.circuit = nil
	} else {
		job.state = StateCanceled
		job.err = reason
		job.circuit, job.req.Netlist = nil, ""
		m.metrics.Canceled.Inc()
	}
	job.finished = time.Now()
	job.closeSubsLocked()
	state := job.state
	job.mu.Unlock()
	m.noteTerminal(job.ID)
	m.log.Info("campaign parked", "job", job.ID, "state", string(state))
}

func (m *Manager) run(job *Job) {
	timeout := m.cfg.JobTimeout
	if job.req.TimeoutMS > 0 {
		if d := time.Duration(job.req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(m.ctx, timeout)
	defer cancel()

	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.broadcastLocked(job.statusLocked())
	job.mu.Unlock()

	// One span tree per executed job, keyed by the job ID. The root
	// covers submission to completion; parse and queue wait are
	// recorded retroactively from the timestamps Submit captured.
	root := m.tracer.StartAt(job.ID, "campaign", job.submitted)
	root.SetAttr("engine", job.req.Engine)
	root.SetAttr("key", job.Key)
	circuitFrom := "built"
	if job.circuitHit {
		circuitFrom = "memo"
	}
	root.Record("parse", job.parseStart, job.parseEnd, obs.L("circuit", circuitFrom))
	root.Record("queued", job.submitted, job.started)

	if job.req.Engine == "reference" {
		m.metrics.ReferenceJobs.Inc()
	} else {
		m.metrics.PackedJobs.Inc()
	}
	m.log.Info("campaign started", "job", job.ID, "engine", job.req.Engine)

	observer := &RunObserver{
		Span:     root,
		OnStage:  m.metrics.ObserveStage,
		Progress: func(p JobProgress) { m.noteProgress(job, p) },
		Dict:     m.dict,
		DictKey:  job.Key,
	}
	rep, err := runCampaign(ctx, job.circuit, job.req, m.shardedOptions(job), observer)
	root.End()

	var state JobState
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, shard.ErrDraining) && m.store != nil:
		// In-flight shards finished and persisted; the pending marker
		// stays, so the campaign resumes cheaply after restart.
		state = StateResumable
	case errors.Is(err, shard.ErrDraining):
		// Without a store nothing persisted: there is nothing to
		// resume, so the drained campaign is canceled, as
		// parkResumable does.
		state = StateCanceled
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = StateCanceled
	default:
		state = StateFailed
	}
	// Encode the report once, outside job.mu: the store, the cache, this
	// record and every later hit's record hold these bytes, and its
	// undetected faults by index until /undetected names them.
	var held *encodedReport
	if state == StateDone {
		if held, err = encodeReport(rep); err != nil {
			state = StateFailed
		}
	}
	// Persist before publishing: a client that sees the terminal state
	// finds the report, its index and its names in the store and the
	// pending marker gone. A report that did not land keeps its marker,
	// so the next start lists the campaign as resumable.
	if m.store != nil {
		switch state {
		case StateDone:
			if perr := persistReport(m.store, job.Key, held); perr != nil {
				m.log.Warn("report not persisted", "job", job.ID, "key", job.Key, "error", perr.Error())
			} else {
				_ = m.store.Delete(resultstore.KindPending, job.Key)
			}
		case StateFailed:
			// A deterministic failure would fail again on resume; drop
			// the marker so it does not resurrect forever.
			_ = m.store.Delete(resultstore.KindPending, job.Key)
		}
		// Canceled (deadline) and resumable keep their markers: both
		// represent work worth finishing after a restart.
	}

	job.mu.Lock()
	job.finished = time.Now()
	elapsed := job.finished.Sub(job.started)
	job.state = state
	switch state {
	case StateDone:
		job.report = held
		m.cache.Put(job.Key, held)
		m.metrics.Completed.Inc()
		if held.dict != nil {
			m.metrics.DictBuilt.Inc()
			m.metrics.DictBytes.Add(uint64(held.dict.CompressedBytes))
		}
	case StateCanceled:
		m.metrics.Canceled.Inc()
	case StateFailed:
		m.metrics.Failed.Inc()
	}
	if err != nil {
		job.err = err.Error()
	}
	errMsg := job.err
	// Release the parsed circuit and netlist text: terminal jobs only
	// serve status and report reads. Subscribers learn the terminal
	// state from the channel close. Resumable jobs keep the request —
	// it is the resume payload.
	job.circuit = nil
	if job.state != StateResumable {
		job.req.Netlist = ""
	}
	job.closeSubsLocked()
	job.mu.Unlock()

	m.metrics.ObserveLatency(elapsed)
	m.noteTerminal(job.ID)
	if state == StateDone {
		m.log.Info("campaign finished", "job", job.ID, "state", string(state),
			"duration_ms", float64(elapsed)/float64(time.Millisecond))
	} else {
		m.log.Warn("campaign finished", "job", job.ID, "state", string(state), "error", errMsg,
			"duration_ms", float64(elapsed)/float64(time.Millisecond))
	}
}
