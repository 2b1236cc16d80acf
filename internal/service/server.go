package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"cpsinw/internal/dict"
	"cpsinw/internal/resultstore"
)

// maxBodyBytes bounds a campaign submission (netlists are small; this
// is a denial-of-service guard, not a format limit).
const maxBodyBytes = 8 << 20

// Server is the HTTP front of the job manager.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer starts a manager with the config and wires the routes.
func NewServer(cfg ManagerConfig) *Server {
	s := &Server{mgr: NewManager(cfg), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/undetected", s.handleUndetected)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/dictionary", s.handleDictionary)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/resume", s.handleResume)
	s.mux.HandleFunc("GET /v1/resumable", s.handleResumable)
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the underlying job manager (metrics publication,
// direct submission in tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Close stops the worker pool.
func (s *Server) Close() { s.mgr.Close() }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	job, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := job.Status()
	w.Header().Set("Location", "/v1/campaigns/"+job.ID)
	code := http.StatusAccepted
	if st.CacheHit {
		code = http.StatusOK // answered immediately from the cache
	}
	writeJSON(w, code, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	rep, state, errMsg := job.result()
	if state != StateDone {
		writeNotDone(w, job.ID, state, errMsg)
		return
	}
	writeBody(w, rep.body)
}

// handleUndetected serves a finished campaign's undetected-fault lists
// (UndetectedJSON), which report v2 leaves out. A job with no report
// answers as /report does; lists that do not read back whole from the
// result store are a server error, never a partial list.
func (s *Server) handleUndetected(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	rep, state, errMsg := job.result()
	if state != StateDone {
		writeNotDone(w, job.ID, state, errMsg)
		return
	}
	body, err := s.mgr.undetected(job.Key, rep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("reading the undetected lists: %v", err))
		return
	}
	writeBody(w, body)
}

// writeBody writes an encoded JSON body as held: compact, with no
// trailing newline.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeNotDone answers a report, lists or dictionary read on a job
// that has no report: 409 with the machine-readable state, except a
// failed execution, which is a server error. Only a job still queued
// or running gets Retry-After; resumable is terminal for this record,
// so the answer names the resume call instead.
func writeNotDone(w http.ResponseWriter, id string, state JobState, errMsg string) {
	switch state {
	case StateFailed:
		writeStateError(w, http.StatusInternalServerError, state,
			fmt.Sprintf("campaign %s: %s", state, errMsg))
	case StateCanceled:
		// A canceled campaign has no report and never will; the job is
		// in a well-understood terminal state, so answer 409 with a
		// machine-readable state instead of pretending a server fault.
		writeStateError(w, http.StatusConflict, state,
			fmt.Sprintf("campaign %s: %s", state, errMsg))
	case StateResumable:
		writeStateError(w, http.StatusConflict, state,
			fmt.Sprintf("campaign %s is resumable and will not finish under this id: POST /v1/campaigns/%s/resume runs it", id, id))
	default:
		w.Header().Set("Retry-After", "1")
		writeStateError(w, http.StatusConflict, state, fmt.Sprintf("campaign still %s", state))
	}
}

// handleEvents streams job lifecycle and progress snapshots as
// server-sent events. Frames are named "state" (lifecycle, including
// the initial snapshot and the guaranteed terminal frame) or
// "progress"; every data payload is a full JobStatus JSON object. The
// stream always ends with a terminal-state frame. Past the manager's
// subscriber ceiling it answers 503 with Retry-After.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel, err := s.mgr.Subscribe(job)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	writeEvent := func(name string, st JobStatus) {
		data, _ := json.Marshal(st)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		fl.Flush()
	}

	st := job.Status()
	writeEvent("state", st)
	if st.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				// Terminal: the channel closed after the job finished;
				// the final state comes from the job itself so the
				// last frame is always terminal.
				writeEvent("state", job.Status())
				return
			}
			name := "state"
			if ev.Progress != nil && ev.State == StateRunning {
				name = "progress"
			}
			writeEvent(name, ev)
		}
	}
}

// handleTrace serves the job's span tree. Cache-answered jobs never
// execute, so they have no trace; evicted traces are also gone.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.mgr.Get(id); !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	tree, ok := s.mgr.Tracer().Tree(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace recorded (cache hit, not started, or evicted)")
		return
	}
	writeJSON(w, http.StatusOK, tree)
}

// handleDictionary serves the fault-dictionary artifact metadata for a
// finished campaign. 404 means the job produced no dictionary (store
// not configured, or the job predates it); the artifact itself answers
// POST /v1/diagnose by key.
func (s *Server) handleDictionary(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	rep, state, errMsg := job.result()
	switch {
	case state != StateDone:
		writeNotDone(w, job.ID, state, errMsg)
	case rep.dict == nil:
		writeError(w, http.StatusNotFound, "campaign has no dictionary artifact (store not configured)")
	default:
		writeJSON(w, http.StatusOK, rep.dict)
	}
}

// handleResumable lists campaigns that were accepted but unfinished
// when a previous process stopped: their requests persist in the result
// store, and each entry resumes via POST /v1/campaigns/{id}/resume.
func (s *Server) handleResumable(w http.ResponseWriter, _ *http.Request) {
	sts := s.mgr.Resumable()
	if sts == nil {
		sts = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"resumable": sts})
}

// handleResume resubmits a resumable campaign's stored request as a new
// job. Completed shards (or the whole report) already in the result
// store are reused, so resuming only pays for the missing work.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	if st := job.Status(); st.State != StateResumable {
		writeStateError(w, http.StatusConflict, st.State,
			fmt.Sprintf("campaign is %s, not resumable", st.State))
		return
	}
	nj, err := s.mgr.Resume(id)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st := nj.Status()
	w.Header().Set("Location", "/v1/campaigns/"+nj.ID)
	code := http.StatusAccepted
	if st.CacheHit {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleDiagnose answers a diagnosis query from a stored dictionary:
// one bitset-AND pass over the artifact, zero simulation. The
// dictionary is addressed by content key (stable across restarts) or,
// as a convenience, by a live campaign ID.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if s.mgr.dict == nil {
		writeError(w, http.StatusServiceUnavailable, "dictionary store not configured (start the server with -dict-dir)")
		return
	}
	var req DiagnoseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	key := req.Key
	if key != "" && !resultstore.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "malformed dictionary key (want 64 lowercase hex digits)")
		return
	}
	if key == "" {
		if req.CampaignID == "" {
			writeError(w, http.StatusBadRequest, "one of key or campaign_id is required")
			return
		}
		job, ok := s.mgr.Get(req.CampaignID)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown campaign")
			return
		}
		key = job.Key
	} else if req.CampaignID != "" {
		writeError(w, http.StatusBadRequest, "key and campaign_id are mutually exclusive")
		return
	}
	if len(req.FailingPatterns) == 0 && len(req.LeakingPatterns) == 0 {
		writeError(w, http.StatusBadRequest, "at least one failing or leaking pattern index is required")
		return
	}
	d, err := s.mgr.dictionary(key)
	if err != nil {
		if os.IsNotExist(err) {
			writeError(w, http.StatusNotFound, "no dictionary artifact for key "+key)
			return
		}
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("dictionary load: %v", err))
		return
	}
	for _, i := range append(append([]int{}, req.FailingPatterns...), req.LeakingPatterns...) {
		if i < 0 || i >= d.Meta.Patterns {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("pattern index %d out of range (dictionary has %d patterns)", i, d.Meta.Patterns))
			return
		}
	}
	obs := dict.ObservationFrom(d.Meta.Patterns, req.FailingPatterns, req.LeakingPatterns)
	cands := d.Diagnose(obs, req.TopK)
	s.mgr.Metrics().DictDiagnoses.Inc()
	writeJSON(w, http.StatusOK, DiagnoseResponse{
		Key:        d.Meta.Key,
		Circuit:    d.Meta.Circuit,
		Patterns:   d.Meta.Patterns,
		IDDQ:       d.Meta.IDDQ,
		Candidates: cands,
	})
}

// handleHealthz reports real readiness: 200 while the manager accepts
// work, 503 once it is shutting down or the submission queue is
// saturated (a submission right now would be rejected).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	depth, capacity := s.mgr.QueueDepth(), s.mgr.QueueCapacity()
	ready := !s.mgr.Closed() && depth < capacity
	status, code := "ok", http.StatusOK
	if !ready {
		status, code = "unavailable", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]interface{}{
		"status":         status,
		"ready":          ready,
		"workers":        s.mgr.Workers(),
		"queue_depth":    depth,
		"queue_capacity": capacity,
	})
}

// handleMetrics serves the Prometheus text exposition; the legacy flat
// JSON form remains available as /metrics?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.mgr.Metrics().Snapshot(s.mgr.QueueDepth(), s.mgr.Workers(), s.mgr.Cache()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mgr.Registry().WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeStateError is writeError with the job's machine-readable state.
func writeStateError(w http.ResponseWriter, code int, state JobState, msg string) {
	writeJSON(w, code, map[string]string{"error": msg, "state": string(state)})
}
