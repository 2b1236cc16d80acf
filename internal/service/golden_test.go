package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"cpsinw/internal/dict"
	"cpsinw/internal/report"
)

var updateReports = flag.Bool("update", false, "rewrite the report goldens under testdata/reports/")

// goldenCampaigns are the refactor-safety campaigns. Their reports
// under testdata/reports/ were captured before single-shot and sharded
// execution became one code path; every way of running a campaign must
// still produce those bytes, so a change that moves them is a behaviour
// change, not a reason to rerun with -update. Each runs with a
// dictionary store attached, as every campaign does on a manager with
// DictDir.
var goldenCampaigns = []struct {
	name   string
	req    CampaignRequest
	shards int // the plan size a manager with a result store picks
}{
	{"c17", CampaignRequest{
		Benchmark: "c17",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
		ATPG: true,
	}, 1},
	{"c432", CampaignRequest{
		Benchmark: "c432",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true,
		},
	}, 1},
	{"mult8", CampaignRequest{
		Benchmark: "mult8",
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			Bridges: true, IDDQ: true,
		},
	}, 2},
}

// goldenCoverage is a coverage block in the golden form: CoverageJSON
// with its undetected list on the wire, where a version 1 report
// carried it.
type goldenCoverage struct {
	*CoverageJSON
	Undetected []string `json:"undetected,omitempty"`
}

// goldenReport is the golden form, the version 1 report shape: every
// report v2 field but the version, with each coverage block's list
// back in it.
type goldenReport struct {
	Circuit        CircuitInfo     `json:"circuit"`
	Patterns       int             `json:"patterns"`
	Engine         string          `json:"engine,omitempty"`
	StuckAt        *goldenCoverage `json:"stuck_at,omitempty"`
	Transistor     *goldenCoverage `json:"transistor,omitempty"`
	TransistorIDDQ *goldenCoverage `json:"transistor_iddq,omitempty"`
	Bridges        *goldenCoverage `json:"bridges,omitempty"`
	ATPG           *ATPGJSON       `json:"atpg,omitempty"`
	Dictionary     *DictionaryJSON `json:"dictionary,omitempty"`
	Tables         []*report.Table `json:"tables"`
	ElapsedMS      int64           `json:"elapsed_ms"`
}

// goldenReportBytes is a report's golden form: indented JSON of the
// report with its coverage blocks' undetected lists (the in-process
// names, or those attachLists put back), without its version, and with
// the two fields that vary from run to run zeroed, wall-clock time and
// the dictionary artifact's compressed size (its payload embeds a
// creation timestamp).
func goldenReportBytes(t *testing.T, rep *CampaignReport) []byte {
	t.Helper()
	if rep.Version != ReportVersion {
		t.Errorf("report reads version %d, want %d", rep.Version, ReportVersion)
	}
	cov := func(c *CoverageJSON) *goldenCoverage {
		if c == nil {
			return nil
		}
		return &goldenCoverage{c, c.UndetectedNames()}
	}
	g := goldenReport{
		Circuit:        rep.Circuit,
		Patterns:       rep.Patterns,
		Engine:         rep.Engine,
		StuckAt:        cov(rep.StuckAt),
		Transistor:     cov(rep.Transistor),
		TransistorIDDQ: cov(rep.TransistorIDDQ),
		Bridges:        cov(rep.Bridges),
		ATPG:           rep.ATPG,
		Dictionary:     rep.Dictionary,
		Tables:         rep.Tables,
	}
	if g.Dictionary != nil {
		d := *g.Dictionary
		d.CompressedBytes = 0
		g.Dictionary = &d
	}
	raw, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestGoldenFormCoversReport: the golden form holds every report field
// but the version, so a field added to the report cannot escape the
// goldens. (The unexported universe names are not a report field: the
// coverage blocks' undetected names stand for them.)
func TestGoldenFormCoversReport(t *testing.T) {
	rt, gt := reflect.TypeOf(CampaignReport{}), reflect.TypeOf(goldenReport{})
	var want, got []string
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Name != "Version" && f.IsExported() {
			want = append(want, f.Tag.Get("json"))
		}
	}
	for i := 0; i < gt.NumField(); i++ {
		got = append(got, gt.Field(i).Tag.Get("json"))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden form fields %q, report fields %q", got, want)
	}
}

// attachLists puts an undetected-lists body's names back into the
// report's coverage blocks, as a version 1 report carried them: each
// class's names, indexed in order.
func attachLists(t *testing.T, rep *CampaignReport, lists []byte) {
	t.Helper()
	var u UndetectedJSON
	if err := json.Unmarshal(lists, &u); err != nil {
		t.Fatalf("undetected lists %s: %v", lists, err)
	}
	for _, c := range []struct {
		cov   *CoverageJSON
		names []string
	}{{rep.StuckAt, u.StuckAt}, {rep.Transistor, u.Transistor}, {rep.TransistorIDDQ, u.TransistorIDDQ}} {
		switch {
		case c.cov != nil:
			c.cov.names, c.cov.undetected = c.names, make([]int, len(c.names))
			for i := range c.cov.undetected {
				c.cov.undetected[i] = i
			}
		case c.names != nil:
			t.Errorf("undetected lists name faults of a class the report does not cover: %s", lists)
		}
	}
}

// servedBody reads a job's report or undetected-lists body over HTTP,
// checking the headers the held bytes are written with.
func servedBody(t *testing.T, ts *httptest.Server, id, resource string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/" + resource)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", resource, id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type %q", resource, id, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("%s %s: Content-Length %q for a %d-byte body", resource, id, cl, len(body))
	}
	return body
}

// servedReport reads a job's report body over HTTP.
func servedReport(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	return servedBody(t, ts, id, "report")
}

// servedLists reads a job's undetected-lists body over HTTP.
func servedLists(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	return servedBody(t, ts, id, "undetected")
}

// heldLists is a done job's undetected-lists body as the manager serves
// it.
func heldLists(t *testing.T, m *Manager, job *Job) []byte {
	t.Helper()
	held, state, msg := job.result()
	if held == nil {
		t.Fatalf("job %s: %s (%s), no report", job.ID, state, msg)
	}
	lists, err := m.undetected(job.Key, held)
	if err != nil {
		t.Fatalf("job %s: %v", job.ID, err)
	}
	return lists
}

// TestReportGoldens is the refactor-safety test: the same request must
// yield the same report bytes single-shot, sharded at K=3, and through
// a manager with a result store and a dictionary store, and a diagnosis
// of a stored fault's own signature must rank the same before and after
// a restart. The goldens hold the version 1 form: a report v2 body
// with the /undetected body's lists put back and its version dropped.
// Over HTTP, the report and undetected-lists bodies must each be
// byte-identical on every path that serves them: the cold job, an LRU
// resubmit with different request bytes (same canonical key), a
// byte-identical resubmit, resubmits differing only in workers,
// timeout_ms or shards, and a restarted manager answering from the
// result store. Every resubmit is normalized and keyed once.
func TestReportGoldens(t *testing.T) {
	resultDir, dictDir := t.TempDir(), t.TempDir()
	cfg := ManagerConfig{Workers: 2, JobTimeout: time.Minute, ResultDir: resultDir, DictDir: dictDir}
	srv1 := NewServer(cfg)
	ts1 := httptest.NewServer(srv1.Handler())
	defer func() { ts1.Close(); srv1.Close() }()

	type diagnosis struct {
		req  DiagnoseRequest
		resp DiagnoseResponse
	}
	diagnoses := map[string]diagnosis{}
	wants := map[string][]byte{}

	check := func(name, path string, rep *CampaignReport) {
		t.Helper()
		if got := goldenReportBytes(t, rep); !bytes.Equal(got, wants[name]) {
			t.Errorf("%s: %s report differs from testdata/reports/%s.json:\n%s", name, path, name, got)
		}
	}
	// Each campaign's cold-job report and undetected-lists bodies.
	bodies, lists := map[string][]byte{}, map[string][]byte{}
	// served reads a job's two bodies over HTTP and checks their golden
	// form.
	served := func(name, path string, ts *httptest.Server, id string) (body, names []byte) {
		t.Helper()
		body, names = servedReport(t, ts, id), servedLists(t, ts, id)
		var rep CampaignReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("%s: %s: %v", name, path, err)
		}
		attachLists(t, &rep, names)
		check(name, path, &rep)
		return body, names
	}
	// resubmit posts req and requires a born-done hit, normalized once,
	// whose report and lists bodies are the cold job's.
	resubmit := func(name, path string, srv *Server, ts *httptest.Server, req CampaignRequest) {
		t.Helper()
		parsed := parseCount(srv.Manager())
		st, code := postCampaign(t, ts, req)
		if code != http.StatusOK || st.State != StateDone || !st.CacheHit {
			t.Fatalf("%s: %s: HTTP %d state %s cache_hit %t, want a born-done hit", name, path, code, st.State, st.CacheHit)
		}
		body, names := served(name, path, ts, st.ID)
		if !bytes.Equal(body, bodies[name]) {
			t.Errorf("%s: %s report body differs from the cold job's", name, path)
		}
		if !bytes.Equal(names, lists[name]) {
			t.Errorf("%s: %s undetected lists differ from the cold job's", name, path)
		}
		if n := parseCount(srv.Manager()) - parsed; n != 1 {
			t.Errorf("%s: %s normalized %d times, want 1", name, path, n)
		}
	}
	tunings := map[string]func(*CampaignRequest){
		"workers":    func(r *CampaignRequest) { r.Workers = 3 },
		"timeout_ms": func(r *CampaignRequest) { r.TimeoutMS = 60000 },
		"shards":     func(r *CampaignRequest) { r.Shards = 2 },
	}

	for _, tc := range goldenCampaigns {
		norm, c, err := tc.req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		key := CanonicalKey(c, norm)
		golden := filepath.Join("testdata", "reports", tc.name+".json")
		freshDict := func() *dict.Store {
			ds, err := dict.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}

		single, err := RunCampaignObserved(context.Background(), c, norm, &RunObserver{Dict: freshDict(), DictKey: key})
		if err != nil {
			t.Fatalf("%s single-shot: %v", tc.name, err)
		}
		if *updateReports {
			if err := os.WriteFile(golden, goldenReportBytes(t, single), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if wants[tc.name], err = os.ReadFile(golden); err != nil {
			t.Fatal(err)
		}
		check(tc.name, "RunCampaignObserved", single)

		sharded, err := RunCampaignSharded(context.Background(), c, norm,
			ShardedOptions{Key: key, Shards: 3}, &RunObserver{Dict: freshDict(), DictKey: key})
		if err != nil {
			t.Fatalf("%s K=3: %v", tc.name, err)
		}
		check(tc.name, "RunCampaignSharded K=3", sharded)

		st, code := postCampaign(t, ts1, tc.req)
		if code != http.StatusAccepted {
			t.Fatalf("%s: cold submit HTTP %d", tc.name, code)
		}
		job, _ := srv1.Manager().Get(st.ID)
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("%s: manager campaign %s: %s", tc.name, st.State, st.Error)
		}
		rep, _, _ := job.Report()
		attachLists(t, rep, heldLists(t, srv1.Manager(), job))
		check(tc.name, "manager", rep)
		if tree, ok := srv1.Manager().Tracer().Tree(job.ID); !ok || tree.Attrs["shards"] != strconv.Itoa(tc.shards) {
			t.Errorf("%s: manager ran %v shards, want %d", tc.name, tree.Attrs["shards"], tc.shards)
		}
		bodies[tc.name], lists[tc.name] = served(tc.name, "cold job body", ts1, job.ID)

		// Spelling out the default engine changes the request bytes but
		// not the canonical key.
		lru := tc.req
		lru.Engine = "packed"
		resubmit(tc.name, "LRU resubmit", srv1, ts1, lru)
		resubmit(tc.name, "byte-identical resubmit", srv1, ts1, tc.req)
		for field, tune := range tunings {
			req := tc.req
			tune(&req)
			resubmit(tc.name, field+" resubmit", srv1, ts1, req)
		}

		ds, err := dict.Open(dictDir)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ds.Get(key)
		if err != nil {
			t.Fatalf("%s: stored dictionary: %v", tc.name, err)
		}
		entry := detectedEntry(t, d)
		dreq := DiagnoseRequest{Key: key, FailingPatterns: entry.Out.Members(), LeakingPatterns: entry.Leak.Members()}
		resp, code := postDiagnose(t, ts1, dreq)
		if code != http.StatusOK || len(resp.Candidates) == 0 || !resp.Candidates[0].Exact {
			t.Fatalf("%s: diagnose HTTP %d, candidates %+v, want an exact top match", tc.name, code, resp.Candidates)
		}
		diagnoses[tc.name] = diagnosis{dreq, resp}
	}
	ts1.Close()
	srv1.Close()

	srv2 := NewServer(cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { ts2.Close(); srv2.Close() }()
	for _, tc := range goldenCampaigns {
		resubmit(tc.name, "restarted store hit", srv2, ts2, tc.req)
		resubmit(tc.name, "LRU resubmit after the store hit", srv2, ts2, tc.req)

		before := diagnoses[tc.name]
		after, code := postDiagnose(t, ts2, before.req)
		if code != http.StatusOK || !reflect.DeepEqual(after, before.resp) {
			t.Errorf("%s: diagnosis after restart (HTTP %d) ranks %+v, before %+v", tc.name, code, after.Candidates, before.resp.Candidates)
		}
	}
	if got := srv2.Manager().Metrics().StoreReportHits.Value(); got != int64(len(goldenCampaigns)) {
		t.Errorf("restarted manager store report hits = %d, want %d", got, len(goldenCampaigns))
	}
}
