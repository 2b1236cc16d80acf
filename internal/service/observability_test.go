package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsinw/internal/atpg"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
)

// sseEvent is one parsed server-sent-events frame.
type sseEvent struct {
	name string
	st   JobStatus
}

// sseStream opens the events endpoint and returns a frame reader; each
// call to next blocks for the following frame (ok=false at stream end).
func sseStream(t *testing.T, url string) (next func() (sseEvent, bool), stop func()) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("events content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	next = func() (sseEvent, bool) {
		var ev sseEvent
		haveData := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if haveData {
					return ev, true
				}
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.st); err != nil {
					t.Fatalf("bad SSE data: %v", err)
				}
				haveData = true
			}
		}
		return sseEvent{}, false
	}
	return next, func() { resp.Body.Close() }
}

// TestSSEProgressStream pins the streaming contract: at least one
// mid-flight progress frame with done/total/coverage, monotone Done,
// and a guaranteed terminal frame closing the stream.
func TestSSEProgressStream(t *testing.T) {
	proceed := make(chan struct{})
	const totalFaults = 5
	withObservedRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest, ro *RunObserver) (*CampaignReport, error) {
		<-proceed // the subscriber is connected before any progress flows
		for done := 0; done <= totalFaults; done++ {
			ro.Progress(JobProgress{
				Stage: "transistor", Done: done, Total: totalFaults,
				Detected: done, Faults: totalFaults, GateEvals: uint64(done) * 10,
			})
			time.Sleep(time.Millisecond)
		}
		return &CampaignReport{}, nil
	})

	srv := NewServer(ManagerConfig{Workers: 1, QueueDepth: 4, ProgressInterval: -1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	st, code := postCampaign(t, ts, CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{Polarity: true}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	next, stop := sseStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/events")
	defer stop()

	first, ok := next()
	if !ok || first.name != "state" {
		t.Fatalf("first frame = %+v (ok=%v), want a state frame", first, ok)
	}
	close(proceed)

	var frames []sseEvent
	for {
		ev, ok := next()
		if !ok {
			break
		}
		frames = append(frames, ev)
	}
	if len(frames) == 0 {
		t.Fatal("no frames after the initial snapshot")
	}

	progress := 0
	lastDone := -1
	for _, ev := range frames {
		if ev.name != "progress" {
			continue
		}
		progress++
		p := ev.st.Progress
		if p == nil {
			t.Fatalf("progress frame without progress payload: %+v", ev.st)
		}
		if p.Total != totalFaults || p.Stage != "transistor" {
			t.Errorf("progress payload = %+v", p)
		}
		if p.Done < lastDone {
			t.Errorf("progress not monotone: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		if want := 100 * float64(p.Detected) / float64(totalFaults); p.Coverage != want {
			t.Errorf("coverage = %v, want %v", p.Coverage, want)
		}
	}
	if progress == 0 {
		t.Error("no mid-flight progress frame streamed")
	}
	final := frames[len(frames)-1]
	if final.name != "state" || final.st.State != StateDone {
		t.Errorf("final frame = %s/%s, want terminal state frame", final.name, final.st.State)
	}
	if srv.Manager().Metrics().ProgressEvents.Value() < int64(totalFaults) {
		t.Errorf("progress events counter = %d", srv.Manager().Metrics().ProgressEvents.Value())
	}
}

// TestCampaignProgressEventsBounded: the engines and ATPG batch their
// progress, so a full-fault c499 campaign (one shard: stuck-at,
// transistor and bridge sweeps of thousands of units) and a c432 ATPG
// campaign (two sweeps, then three generation classes of hundreds of
// attempts) each deliver a few hundred frames, not one per fault or
// attempt, and still end on done == total.
func TestCampaignProgressEventsBounded(t *testing.T) {
	for _, req := range []CampaignRequest{
		{Benchmark: "c499", Workers: 2, Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true,
		}},
		{Benchmark: "c432", Workers: 2, ATPG: true, Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true}},
	} {
		m := NewManager(ManagerConfig{Workers: 1, ProgressInterval: -1})
		j, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, j)
		m.Close()
		if st.State != StateDone {
			t.Fatalf("%s campaign finished %s: %s", req.Benchmark, st.State, st.Error)
		}
		if p := st.Progress; p == nil || p.Done != p.Total {
			t.Errorf("%s: final progress %+v, want done == total", req.Benchmark, p)
		}
		if got := m.Metrics().ProgressEvents.Value(); got == 0 || got > 400 {
			t.Errorf("%s campaign delivered %d progress frames, want 1..400", req.Benchmark, got)
		}
	}
}

// TestSSETerminalJobStreamsOneFrame subscribes after completion: the
// stream must immediately deliver the terminal state and end.
func TestSSETerminalJobStreamsOneFrame(t *testing.T) {
	withFakeRunner(t, func(context.Context, *logic.Circuit, CampaignRequest) (*CampaignReport, error) {
		return &CampaignReport{}, nil
	})
	_, ts := newTestServer(t)
	st, _ := postCampaign(t, ts, CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}})
	pollDone(t, ts, st.ID)

	next, stop := sseStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/events")
	defer stop()
	ev, ok := next()
	if !ok || ev.name != "state" || !ev.st.State.Terminal() {
		t.Fatalf("frame = %+v (ok=%v), want terminal state", ev, ok)
	}
	if _, ok := next(); ok {
		t.Error("stream did not end after the terminal frame")
	}
}

// TestSSEDisconnectFreesSubscriber closes the client mid-job and checks
// the subscription is released while the job is still running.
func TestSSEDisconnectFreesSubscriber(t *testing.T) {
	release := make(chan struct{})
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		select {
		case <-release:
			return &CampaignReport{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv, ts := newTestServer(t)
	defer close(release)

	st, _ := postCampaign(t, ts, CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}})
	next, stop := sseStream(t, ts.URL+"/v1/campaigns/"+st.ID+"/events")
	if _, ok := next(); !ok {
		t.Fatal("no initial frame")
	}
	if n := srv.Manager().subscribers.Load(); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	stop() // client disconnects while the job is still running

	deadline := time.Now().Add(5 * time.Second)
	for srv.Manager().subscribers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not released: %d", srv.Manager().subscribers.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// eventSubscribers scrapes the cpsinw_event_subscribers gauge.
func eventSubscribers(t *testing.T, ts *httptest.Server) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "cpsinw_event_subscribers "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no cpsinw_event_subscribers sample in the exposition")
	return 0
}

// TestSSESubscriberCeiling: one manager holds at most maxSubscribers
// live event subscriptions, however many goroutines subscribe at once.
// Past the ceiling Subscribe refuses and the events endpoint answers
// 503 with Retry-After; once the subscriptions are cancelled the
// cpsinw_event_subscribers gauge is back to 0 and a stream opens again.
func TestSSESubscriberCeiling(t *testing.T) {
	release := make(chan struct{})
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		select {
		case <-release:
			return &CampaignReport{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv, ts := newTestServer(t)
	defer close(release)
	st, _ := postCampaign(t, ts, CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}})
	job, _ := srv.Manager().Get(st.ID)
	events := ts.URL + "/v1/campaigns/" + st.ID + "/events"

	// Eight goroutines race for the slots, 40 attempts each: exactly
	// maxSubscribers attempts succeed and every other one is refused.
	var mu sync.Mutex
	var cancels []func()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_, cancel, err := srv.Manager().Subscribe(job)
				if err != nil {
					if !errors.Is(err, ErrTooManySubscribers) {
						t.Errorf("Subscribe: %v", err)
					}
					continue
				}
				mu.Lock()
				cancels = append(cancels, cancel)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(cancels) != maxSubscribers {
		t.Fatalf("%d of 320 subscriptions succeeded, want the ceiling %d", len(cancels), maxSubscribers)
	}
	resp, err := http.Get(events)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("events past the ceiling: HTTP %d, Retry-After %q; want 503, 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := eventSubscribers(t, ts); n != maxSubscribers {
		t.Fatalf("cpsinw_event_subscribers = %v at the ceiling, want %d", n, maxSubscribers)
	}

	for _, cancel := range cancels {
		cancel()
		cancel() // idempotent: releases its slot once
	}
	if n := eventSubscribers(t, ts); n != 0 {
		t.Fatalf("cpsinw_event_subscribers = %v after every cancel, want 0", n)
	}
	next, stop := sseStream(t, events)
	defer stop()
	if _, ok := next(); !ok {
		t.Fatal("no initial frame once the subscriptions were released")
	}
}

// TestReportCanceledConflict pins the satellite: a canceled campaign
// answers 409 with a machine-readable state, not 500.
func TestReportCanceledConflict(t *testing.T) {
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t)
	st, _ := postCampaign(t, ts, CampaignRequest{
		Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}, TimeoutMS: 5,
	})
	if final := pollDone(t, ts, st.ID); final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("canceled report = HTTP %d, want 409", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["state"] != "canceled" || body["error"] == "" {
		t.Errorf("canceled report body = %v", body)
	}
}

// TestHealthzReadiness pins the readiness semantics: 200 while
// accepting, 503 with ready=false once the queue is saturated or the
// manager is closed.
func TestHealthzReadiness(t *testing.T) {
	release := make(chan struct{})
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		select {
		case <-release:
			return &CampaignReport{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := NewServer(ManagerConfig{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	health := func() (int, map[string]interface{}) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := health(); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("idle healthz = %d %v, want 200 ready", code, body)
	}

	// Saturate: one job running, one filling the single queue slot.
	j1, err := srv.Manager().Submit(CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j1.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Manager().Submit(CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{Polarity: true}}); err != nil {
		t.Fatal(err)
	}
	if code, body := health(); code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("saturated healthz = %d %v, want 503 not-ready", code, body)
	}
	if srv.Manager().Metrics().RejectedQueueFull.Value() != 0 {
		t.Error("healthz probing should not consume queue slots")
	}

	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for {
		code, _ := health()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never recovered after drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv.Close()
	if code, body := health(); code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("closed healthz = %d %v, want 503 unavailable", code, body)
	}
}

// TestMetricsPrometheusExposition runs a real campaign and checks the
// scrape: well-formed per the exposition linter, stable family names in
// registration order, and the load-bearing series present.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t)
	st, code := postCampaign(t, ts, CampaignRequest{
		Netlist: c17Bench,
		Faults:  FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, Bridges: true, IDDQ: true},
		ATPG:    true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if final := pollDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("campaign: %s (%s)", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	body := sb.String()

	if err := obs.LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}

	// Golden family list: names and order are API. A change here is a
	// breaking dashboard change and must be deliberate.
	wantFamilies := []string{
		"cpsinw_jobs_submitted_total counter",
		"cpsinw_jobs_rejected_total counter",
		"cpsinw_jobs_completed_total counter",
		"cpsinw_jobs_failed_total counter",
		"cpsinw_jobs_canceled_total counter",
		"cpsinw_jobs_engine_total counter",
		"cpsinw_progress_events_total counter",
		"cpsinw_dict_built_total counter",
		"cpsinw_dict_bytes_total counter",
		"cpsinw_dict_diagnoses_total counter",
		"cpsinw_shard_scheduled_total counter",
		"cpsinw_shard_retried_total counter",
		"cpsinw_shard_cache_hits_total counter",
		"cpsinw_shard_quarantined_total counter",
		"cpsinw_resultstore_report_hits_total counter",
		"cpsinw_circuit_memo_hits_total counter",
		"cpsinw_circuit_memo_misses_total counter",
		"cpsinw_job_duration_seconds histogram",
		"cpsinw_stage_duration_seconds histogram",
		"cpsinw_queue_depth gauge",
		"cpsinw_queue_capacity gauge",
		"cpsinw_workers gauge",
		"cpsinw_event_subscribers gauge",
		"cpsinw_cache_hits_total counter",
		"cpsinw_cache_misses_total counter",
		"cpsinw_cache_entries gauge",
		"cpsinw_faultsim_fault_runs_total counter",
		"cpsinw_faultsim_bridge_runs_total counter",
		"cpsinw_faultsim_gate_evals_total counter",
		"cpsinw_faultsim_fault_luts_compiled_total counter",
		"cpsinw_faultsim_two_pattern_runs_total counter",
	}
	var gotFamilies []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			gotFamilies = append(gotFamilies, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	if len(gotFamilies) != len(wantFamilies) {
		t.Errorf("family count = %d, want %d:\n%s", len(gotFamilies), len(wantFamilies), strings.Join(gotFamilies, "\n"))
	}
	for i, want := range wantFamilies {
		if i >= len(gotFamilies) {
			break
		}
		if gotFamilies[i] != want {
			t.Errorf("family %d = %q, want %q", i, gotFamilies[i], want)
		}
	}

	for _, series := range []string{
		`cpsinw_jobs_engine_total{engine="reference"}`,
		`cpsinw_jobs_engine_total{engine="packed"}`,
		`cpsinw_faultsim_gate_evals_total{engine="reference"}`,
		`cpsinw_faultsim_gate_evals_total{engine="packed"}`,
		`cpsinw_job_duration_seconds_bucket{le="+Inf"}`,
		`cpsinw_stage_duration_seconds_bucket{stage="stuck_at",le="+Inf"}`,
		`cpsinw_stage_duration_seconds_bucket{stage="atpg",le="+Inf"}`,
		`cpsinw_stage_duration_seconds_bucket{stage="dictionary",le="+Inf"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("series %s missing from the scrape", series)
		}
	}
	for _, gone := range []string{`engine="compiled"`, `engine="auto"`} {
		if strings.Contains(body, gone) {
			t.Errorf("retired engine label %s still in the scrape", gone)
		}
	}
	if !strings.Contains(body, "cpsinw_jobs_submitted_total 1") {
		t.Errorf("submitted counter wrong:\n%s", body)
	}
}

// TestMetricsJSONFormat keeps the legacy flat-JSON form (and its key
// set) reachable via ?format=json.
func TestMetricsJSONFormat(t *testing.T) {
	_, ts := newTestServer(t)
	var metrics map[string]interface{}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &metrics); code != http.StatusOK {
		t.Fatalf("metrics json: HTTP %d", code)
	}
	// The legacy key set is frozen: new counters (the circuit memo's,
	// for one) go to the Prometheus exposition only.
	legacy := []string{
		"queue_depth", "workers",
		"jobs_submitted", "jobs_completed", "jobs_failed", "jobs_canceled", "jobs_rejected",
		"jobs_engine_reference", "jobs_engine_packed",
		"progress_events",
		"dict_built", "dict_bytes", "dict_diagnoses",
		"shard_scheduled", "shard_retried", "shard_cache_hits", "shard_quarantined",
		"resultstore_hits",
		"cache_hits", "cache_misses", "cache_size", "cache_hit_rate",
		"latency_ms_p50", "latency_ms_p99", "latency_samples",
		"faultsim_reference_fault_runs",
		"faultsim_fault_luts_compiled", "faultsim_two_pattern_runs",
		"faultsim_packed_fault_runs", "faultsim_packed_gate_evals",
		"faultsim_packed_bridge_runs",
		"faultsim_reference_gate_evals", "faultsim_reference_bridge_runs",
	}
	for _, key := range legacy {
		if _, ok := metrics[key]; !ok {
			t.Errorf("legacy metrics key %q missing", key)
		}
	}
	if len(metrics) != len(legacy) {
		t.Errorf("metrics JSON has %d keys, want exactly the %d legacy keys: %v", len(metrics), len(legacy), metrics)
	}
	// The compiled engine and the auto chooser are gone, and so are
	// their keys.
	for _, key := range []string{
		"jobs_engine_compiled", "jobs_engine_auto",
		"faultsim_compiled_fault_runs", "faultsim_compiled_bridge_runs",
		"faultsim_cone_gate_evals", "faultsim_gate_evals_skipped",
		"faultsim_auto_chosen_compiled", "faultsim_auto_chosen_packed",
	} {
		if _, ok := metrics[key]; ok {
			t.Errorf("retired metrics key %q still present", key)
		}
	}
}

// TestTraceEndpoint checks the per-campaign span tree: root campaign
// span with the stage children, the campaign's one shard under
// simulate with its compile and stuck-at stages, and 404s for unknown
// or cache-answered jobs.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}}
	st, _ := postCampaign(t, ts, req)
	if final := pollDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("campaign: %s (%s)", final.State, final.Error)
	}

	var tree obs.SpanTree
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/trace", &tree); code != http.StatusOK {
		t.Fatalf("trace: HTTP %d", code)
	}
	if tree.Name != "campaign" || tree.End == "" {
		t.Errorf("trace root = %+v, want finished campaign span", tree)
	}
	names := func(nodes []*obs.SpanTree) []string {
		var out []string
		for _, n := range nodes {
			out = append(out, n.Name)
		}
		return out
	}
	if got, want := names(tree.Children), []string{"parse", "queued", "patterns", "simulate", "merge", "report"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign children = %v, want %v", got, want)
	}
	sim := tree.Children[3]
	if got := names(sim.Children); !reflect.DeepEqual(got, []string{"shard"}) {
		t.Fatalf("simulate children = %v, want one shard", got)
	}
	if got, want := names(sim.Children[0].Children), []string{"compile", "stuck_at"}; !reflect.DeepEqual(got, want) {
		t.Errorf("shard children = %v, want %v", got, want)
	}
	if tree.Attrs["engine"] != "packed" || tree.Attrs["shards"] != "1" {
		t.Errorf("root attrs = %v", tree.Attrs)
	}

	if code := getJSON(t, ts.URL+"/v1/campaigns/c-999999/trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace = HTTP %d, want 404", code)
	}
	// A cache-answered resubmission never executes: no trace.
	st2, _ := postCampaign(t, ts, req)
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+st2.ID+"/trace", nil); code != http.StatusNotFound {
		t.Errorf("cache-hit trace = HTTP %d, want 404", code)
	}
}

// TestTraceATPGWork checks that the atpg stage span of a one-shard and
// a two-shard campaign carries the campaign's PODEM work, equal to what
// the generator itself reports for the same universe.
func TestTraceATPGWork(t *testing.T) {
	c, err := logic.ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	faults := FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true}
	want, err := atpg.GenerateContext(context.Background(), c, core.Universe(c, core.UniverseOptions{
		LineStuckAt: true, Polarity: true, ChannelBreak: true,
	}), atpg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Implications == 0 {
		t.Fatal("generator counted no implications")
	}

	for _, shards := range []int{0, 2} {
		// A fresh server per run: shards are not part of the cache key,
		// so a shared one would answer the second run from its cache.
		_, ts := newTestServer(t)
		req := CampaignRequest{Netlist: c17Bench, Faults: faults, ATPG: true, Shards: shards}
		st, _ := postCampaign(t, ts, req)
		if final := pollDone(t, ts, st.ID); final.State != StateDone {
			t.Fatalf("shards=%d: %s (%s)", shards, final.State, final.Error)
		}
		var tree obs.SpanTree
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/trace", &tree); code != http.StatusOK {
			t.Fatalf("shards=%d: trace HTTP %d", shards, code)
		}
		var span *obs.SpanTree
		for _, stage := range tree.Children {
			if stage.Name != "simulate" {
				continue
			}
			for _, child := range stage.Children {
				if child.Name == "atpg" {
					span = child
				}
			}
		}
		if span == nil {
			t.Fatalf("shards=%d: no simulate/atpg span in %+v", shards, tree.Children)
		}
		if got := span.Attrs["implications"]; got != strconv.Itoa(want.Implications) {
			t.Errorf("shards=%d: implications attr %q, want %d", shards, got, want.Implications)
		}
		if got := span.Attrs["backtracks"]; got != strconv.Itoa(want.Backtracks) {
			t.Errorf("shards=%d: backtracks attr %q, want %d", shards, got, want.Backtracks)
		}
	}
}

// TestTraceCanceledCampaignEndsEverySpan runs campaigns into their
// deadline, one shard and two: every span of the trace must have ended,
// the failed simulate stage must carry an error attribute, and the
// stage histogram must not observe it. The campaign must outlast its
// 30 ms deadline on a fast host: a mult16 campaign of this shape takes
// 15 to 25 ms on a 2-vCPU host with warm tables and often finished
// first, so it is mult48's (120 to 190 ms there).
func TestTraceCanceledCampaignEndsEverySpan(t *testing.T) {
	for _, shards := range []int{1, 2} {
		srv, ts := newTestServer(t)
		st, code := postCampaign(t, ts, CampaignRequest{
			Benchmark: "mult48",
			Faults:    FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true},
			Shards:    shards,
			TimeoutMS: 30,
		})
		if code != http.StatusAccepted {
			t.Fatalf("shards=%d: submit HTTP %d", shards, code)
		}
		if final := pollDone(t, ts, st.ID); final.State != StateCanceled {
			t.Fatalf("shards=%d: campaign %s, want canceled by its deadline", shards, final.State)
		}
		var tree obs.SpanTree
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/trace", &tree); code != http.StatusOK {
			t.Fatalf("shards=%d: trace HTTP %d", shards, code)
		}
		var walk func(path string, n *obs.SpanTree)
		walk = func(path string, n *obs.SpanTree) {
			path += "/" + n.Name
			if n.End == "" {
				t.Errorf("shards=%d: span %s never ended", shards, path)
			}
			for _, c := range n.Children {
				walk(path, c)
			}
		}
		walk("", &tree)
		var sim *obs.SpanTree
		for _, c := range tree.Children {
			if c.Name == "simulate" {
				sim = c
			}
		}
		if sim == nil || sim.Attrs["error"] == "" {
			t.Errorf("shards=%d: simulate span %+v carries no error attribute", shards, sim)
		}
		if n := srv.Manager().Metrics().stages["simulate"].Count(); n != 0 {
			t.Errorf("shards=%d: stage histogram observed %d failed simulate stages", shards, n)
		}
	}
}

// TestManagerRejectionCounters pins Submit accounting: rejections never
// count as submissions and land on the right reason.
func TestManagerRejectionCounters(t *testing.T) {
	release := make(chan struct{})
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		select {
		case <-release:
			return &CampaignReport{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	defer m.Close()
	defer close(release)

	if _, err := m.Submit(CampaignRequest{}); err == nil {
		t.Fatal("invalid request accepted")
	}
	j1, err := m.Submit(CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckAt: true}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j1.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{Polarity: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(CampaignRequest{Netlist: c17Bench, Faults: FaultConfig{StuckOn: true}}); err != ErrQueueFull {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}

	met := m.Metrics()
	if met.Submitted.Value() != 2 {
		t.Errorf("submitted = %d, want 2", met.Submitted.Value())
	}
	if met.RejectedInvalid.Value() != 1 || met.RejectedQueueFull.Value() != 1 || met.RejectedClosed.Value() != 0 {
		t.Errorf("rejected = %d invalid / %d queue_full / %d closed, want 1/1/0",
			met.RejectedInvalid.Value(), met.RejectedQueueFull.Value(), met.RejectedClosed.Value())
	}
}
