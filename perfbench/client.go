package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpsinw/internal/dict"
	"cpsinw/internal/service"
)

// exchange is one client-observed request/response round: a campaign
// (POST, SSE wait, report GET), a hit (POST answered done, report GET)
// or a diagnosis (POST /v1/diagnose).
type exchange struct {
	kind     string // "campaign", "hit" or "diagnose"
	store    bool   // hit or diagnose that was the first touch since a (re)start
	start    time.Time
	dur      time.Duration
	submit   time.Duration // POST /v1/campaigns latency
	status   service.JobStatus
	campaign *service.CampaignReport
	diag     *service.DiagnoseResponse
}

// resubmits is how many cache hits follow each cold campaign.
const resubmits = 5

// runner executes ops against one deployment and checks every answer.
type runner struct {
	wl   string
	seed int64
	dep  *deployment
	pop  *population
	chk  *checker

	gate    sync.RWMutex // ops hold it shared; a restart holds it exclusively
	mu      sync.Mutex
	touched map[string]bool // "h<pop>" / "d<pop>" touched since the last (re)start
}

func newRunner(wl string, seed int64, dep *deployment, pop *population, chk *checker) *runner {
	return &runner{wl: wl, seed: seed, dep: dep, pop: pop, chk: chk, touched: map[string]bool{}}
}

// firstTouch reports whether tag is touched for the first time since
// the last (re)start, i.e. the server answers it from disk.
func (r *runner) firstTouch(tag string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.touched[tag] {
		return false
	}
	r.touched[tag] = true
	return true
}

// restart closes the server once in-flight ops finish and reopens it on
// the same directories.
func (r *runner) restart() {
	r.gate.Lock()
	r.dep.restart()
	r.mu.Lock()
	r.touched = map[string]bool{}
	r.mu.Unlock()
	r.gate.Unlock()
}

// exec runs one op and checks its answers. The exchanges are returned
// even when a check fails, so the caller can tell timing from errors.
func (r *runner) exec(o op) ([]exchange, error) {
	r.gate.RLock()
	defer r.gate.RUnlock()
	base, cl := r.dep.base, r.dep.client
	switch o.Kind {
	case opHit:
		ex, err := hitExchange(cl, base, o.Req)
		ex.store = r.firstTouch(fmt.Sprintf("h%d", o.Pop))
		if err != nil {
			return nil, err
		}
		return []exchange{ex}, r.chk.sameReport(ex.campaign, r.pop.reports[o.Pop])
	case opDiagnose:
		key, ent := r.pop.target(o)
		ex, err := diagnoseExchange(cl, base, key, ent)
		ex.store = r.firstTouch(fmt.Sprintf("d%d", o.Pop))
		if err != nil {
			return nil, err
		}
		return []exchange{ex}, r.chk.diagnosis(o, ent, ex.diag)
	}
	ex, err := campaignExchange(cl, base, o.Req)
	if err != nil {
		return nil, err
	}
	out := []exchange{ex}
	if err := r.chk.campaign(o, ex.campaign); err != nil {
		return out, err
	}
	if r.wl == wlStore {
		return out, nil
	}
	// Resubmitting the same request must be answered from the cache
	// with the report just simulated. Several resubmits per campaign
	// give the hit percentiles enough samples in a run.
	for k := 0; k < resubmits; k++ {
		hit, err := hitExchange(cl, base, o.Req)
		if err != nil {
			return out, err
		}
		if err := r.chk.sameReport(hit.campaign, ex.campaign); err != nil {
			return out, err
		}
		out = append(out, hit)
	}
	return out, nil
}

// result is a closed-loop phase's outcome.
type result struct {
	attempted, failed int
	start             time.Time
	elapsed           time.Duration
	lat               *samples
	done              []opDone
}

// opDone is when one op of a closed loop completed.
type opDone struct {
	index     int
	at        time.Time
	ok        bool
	campaigns int // simulated campaigns among the op's exchanges
}

// closedLoop runs ops from next() on `clients` callers until next
// reports none left. Each caller waits for its answer before taking the
// next op; restartAt, when set, restarts the server before an op.
func (r *runner) closedLoop(next func() (op, bool), restartAt func(op) bool, onOp func(op, []exchange)) result {
	var attempted, failed atomic.Int64
	var loggedErrors atomic.Int64
	lat := newSamples()
	var doneMu sync.Mutex
	var done []opDone
	finish := func(d opDone) {
		doneMu.Lock()
		done = append(done, d)
		doneMu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, ok := next()
				if !ok {
					return
				}
				if restartAt != nil && restartAt(o) {
					r.restart()
				}
				attempted.Add(1)
				exs, err := r.exec(o)
				if err != nil {
					finish(opDone{index: o.Index, at: time.Now()})
					failed.Add(1)
					if loggedErrors.Add(1) <= 5 {
						fmt.Printf("op %d (%s) failed: %v\n", o.Index, r.wl, err)
					}
					continue
				}
				d := opDone{index: o.Index, at: time.Now(), ok: true}
				for _, ex := range exs {
					lat.add(ex.kind, ex.start, ex.dur)
					if ex.store {
						lat.add(ex.kind+"_first_touch", ex.start, ex.dur)
					}
					if ex.kind == "campaign" {
						d.campaigns++
					}
				}
				finish(d)
				if onOp != nil {
					onOp(o, exs)
				}
			}
		}()
	}
	wg.Wait()
	return result{attempted: int(attempted.Load()), failed: int(failed.Load()), start: start, elapsed: time.Since(start), lat: lat, done: done}
}

// timedLoop walks the workload's sequence from op 0 until the deadline.
func (r *runner) timedLoop(d time.Duration) result {
	var idx atomic.Int64
	deadline := time.Now().Add(d)
	next := func() (op, bool) {
		if time.Now().After(deadline) {
			return op{}, false
		}
		return opAt(r.wl, r.seed, int(idx.Add(1)-1)), true
	}
	var restartAt func(op) bool
	if r.wl == wlStore {
		restartAt = func(o op) bool { return o.Index > 0 && o.Index%storeRestartEvery == 0 }
	}
	return r.closedLoop(next, restartAt, nil)
}

// runOps runs a fixed op list on the closed loop (warm-up, population).
func (r *runner) runOps(ops []op, onOp func(op, []exchange)) result {
	var idx atomic.Int64
	next := func() (op, bool) {
		i := int(idx.Add(1) - 1)
		if i >= len(ops) {
			return op{}, false
		}
		return ops[i], true
	}
	return r.closedLoop(next, nil, onOp)
}

func campaignExchange(cl *http.Client, base string, req service.CampaignRequest) (exchange, error) {
	t0 := time.Now()
	ex := exchange{kind: "campaign", start: t0}
	st, code, err := submit(cl, base, req)
	ex.submit = time.Since(t0)
	if err != nil {
		return ex, err
	}
	if code != http.StatusAccepted {
		return ex, fmt.Errorf("campaign %s answered %d (cache_hit=%v), want a fresh simulation", st.ID, code, st.CacheHit)
	}
	if st, err = waitTerminal(cl, base, st.ID); err != nil {
		return ex, err
	}
	ex.status = st
	if st.State != service.StateDone {
		return ex, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	ex.campaign, err = report(cl, base, st.ID)
	ex.dur = time.Since(t0)
	return ex, err
}

func hitExchange(cl *http.Client, base string, req service.CampaignRequest) (exchange, error) {
	t0 := time.Now()
	ex := exchange{kind: "hit", start: t0}
	st, code, err := submit(cl, base, req)
	ex.submit = time.Since(t0)
	if err != nil {
		return ex, err
	}
	if code != http.StatusOK || !st.CacheHit || st.State != service.StateDone {
		return ex, fmt.Errorf("resubmit %s answered %d state %s cache_hit=%v, want a born-done hit", st.ID, code, st.State, st.CacheHit)
	}
	ex.status = st
	ex.campaign, err = report(cl, base, st.ID)
	ex.dur = time.Since(t0)
	return ex, err
}

func diagnoseExchange(cl *http.Client, base, key string, target dict.Entry) (exchange, error) {
	ex := exchange{kind: "diagnose"}
	body, _ := json.Marshal(service.DiagnoseRequest{
		Key:             key,
		FailingPatterns: target.Out.Members(),
		LeakingPatterns: target.Leak.Members(),
	})
	t0 := time.Now()
	ex.start = t0
	resp, err := cl.Post(base+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		return ex, err
	}
	raw, err := readBody(resp, http.StatusOK)
	ex.dur = time.Since(t0)
	if err != nil {
		return ex, fmt.Errorf("diagnose: %w", err)
	}
	ex.diag = &service.DiagnoseResponse{}
	return ex, json.Unmarshal(raw, ex.diag)
}

func submit(cl *http.Client, base string, req service.CampaignRequest) (service.JobStatus, int, error) {
	var st service.JobStatus
	body, _ := json.Marshal(req)
	resp, err := cl.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	raw, err := readBody(resp, 0)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, resp.StatusCode, fmt.Errorf("submit refused: %d %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return st, resp.StatusCode, json.Unmarshal(raw, &st)
}

// waitTerminal follows the job's SSE stream until its terminal frame.
func waitTerminal(cl *http.Client, base, id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := cl.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			_, _ = io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, errors.New("event stream ended without a terminal frame")
}

func report(cl *http.Client, base, id string) (*service.CampaignReport, error) {
	resp, err := cl.Get(base + "/v1/campaigns/" + id + "/report")
	if err != nil {
		return nil, err
	}
	raw, err := readBody(resp, http.StatusOK)
	if err != nil {
		return nil, fmt.Errorf("report %s: %w", id, err)
	}
	rep := &service.CampaignReport{}
	return rep, json.Unmarshal(raw, rep)
}

// readBody reads and closes the body, requiring status want when set.
func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if want != 0 && resp.StatusCode != want {
		return raw, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// snapshot reads the server's flat /metrics?format=json counters.
func (d *deployment) snapshot() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	raw, err := readBody(resp, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m map[string]interface{}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}
