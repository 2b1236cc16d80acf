package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/shard"
)

var storeTestReq = CampaignRequest{
	Benchmark: "mult3",
	Faults:    FaultConfig{StuckAt: true, Polarity: true, IDDQ: true},
	Engine:    "packed",
	Shards:    4,
}

// TestManagerReportSurvivesRestart pins the durable half of the result
// store: a campaign computed by one manager is answered whole — no
// simulation, born done, its undetected lists included — by a fresh
// manager on the same directory.
func TestManagerReportSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	j1, err := m1.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminal(t, j1)
	if st1.State != StateDone {
		t.Fatalf("first run finished %s: %s", st1.State, st1.Error)
	}
	rep1, _, _ := j1.Report()
	m1.Close()

	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	defer m2.Close()
	if n := len(m2.Resumable()); n != 0 {
		t.Fatalf("finished campaign recovered as resumable (%d records)", n)
	}
	j2, err := m2.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("restarted manager: state %s cacheHit %t, want immediate done hit", st2.State, st2.CacheHit)
	}
	if got := m2.Metrics().StoreReportHits.Value(); got != 1 {
		t.Fatalf("resultstore report hits = %d, want 1", got)
	}
	rep2, _, _ := j2.Report()
	if rep1.StuckAt.Detected != rep2.StuckAt.Detected || rep1.Transistor.Detected != rep2.Transistor.Detected {
		t.Fatal("store-served report disagrees with the computed one")
	}
	if got, want := heldLists(t, m2, j2), heldLists(t, m1, j1); !bytes.Equal(got, want) {
		t.Fatalf("store-served undetected lists %s, computed %s", got, want)
	}
}

// TestManagerKeepsMarkerBesideUnreadableReport: a stored report that
// no longer decodes answers nothing, so the pending marker beside it
// stays. The restarted manager warns with the key, lists the campaign
// as resumable, and resuming it re-simulates to the cold run's report.
func TestManagerKeepsMarkerBesideUnreadableReport(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}, Shards: 1}
	m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	cold := submitDone(t, m1, req)
	m1.Close()

	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put(resultstore.KindPending, cold.Key, pendingCampaign{Request: req, JobID: cold.ID}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, string(resultstore.KindReport), cold.Key+resultstore.Ext)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	defer m2.Close()
	recovered := m2.Resumable()
	if len(recovered) != 1 || recovered[0].Key != cold.Key {
		t.Fatalf("recovered %+v, want the campaign %s resumable", recovered, cold.Key)
	}
	if out := logs.String(); !strings.Contains(out, "stored report unreadable") || !strings.Contains(out, cold.Key) {
		t.Errorf("no warning with the key for the unreadable report:\n%s", out)
	}
	job, err := m2.Resume(recovered[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone || st.CacheHit {
		t.Fatalf("resumed campaign: %s cache_hit %t (%s), want a re-simulation", st.State, st.CacheHit, st.Error)
	}
	if got, want := reportBytes(t, job), reportBytes(t, cold); !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from the cold run's:\n got %s\nwant %s", got, want)
	}
	if store.Has(resultstore.KindPending, cold.Key) {
		t.Error("pending marker survived the resumed campaign")
	}
}

// TestStoredReportIsServedBody: a stored report is encoded once, so
// its artifact holds the bytes the service serves, plus the encoder's
// newline. Its undetected faults are stored apart, as the campaign's
// index and the universe's names; no name lists are written.
func TestStoredReportIsServedBody(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(ManagerConfig{Workers: 2, ResultDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	st, _ := postCampaign(t, ts, storeTestReq)
	if st = pollDone(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("campaign: %s (%s)", st.State, st.Error)
	}
	body := servedReport(t, ts, st.ID)
	f, err := os.Open(filepath.Join(dir, string(resultstore.KindReport), st.Key+resultstore.Ext))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := io.ReadAll(zr)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != string(body)+"\n" {
		t.Errorf("stored report is not the served body plus a newline:\nstored %s\nserved %s", stored, body)
	}
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := store.Keys(resultstore.KindFaultNames); err != nil || len(names) != 1 || !store.Has(resultstore.KindUndetectedIndex, st.Key) {
		t.Errorf("store holds %d names artifacts (%v) and index %t, want one of each", len(names), err, store.Has(resultstore.KindUndetectedIndex, st.Key))
	}
	if _, err := os.Stat(filepath.Join(dir, "undetected")); !os.IsNotExist(err) {
		t.Errorf("the store has an undetected/ tree of name lists (%v)", err)
	}
}

// TestStoreHitServesColdBody: a restarted manager answers a stored
// campaign with the cold run's report body byte for byte, elapsed time
// included (the stored bytes are served as read, not decoded and
// re-encoded), and its status carries the stored dictionary metadata.
// The store hit holds no undetected faults: it reads its index and
// names when they are asked for, and serves the cold run's lists byte
// for byte.
func TestStoreHitServesColdBody(t *testing.T) {
	cfg := ManagerConfig{Workers: 2, ResultDir: t.TempDir(), DictDir: t.TempDir()}
	m1 := NewManager(cfg)
	cold := submitDone(t, m1, storeTestReq)
	coldLists := heldLists(t, m1, cold)
	m1.Close()
	coldRep, _, _ := cold.result()
	if coldRep.dict == nil {
		t.Fatal("the cold campaign built no dictionary")
	}

	m2 := NewManager(cfg)
	defer m2.Close()
	hit := submitDone(t, m2, storeTestReq)
	if st := hit.Status(); !st.CacheHit || m2.Metrics().StoreReportHits.Value() != 1 {
		t.Fatalf("restarted manager: cache_hit %t, %d store report hits; want one store hit", st.CacheHit, m2.Metrics().StoreReportHits.Value())
	}
	hitRep, _, _ := hit.result()
	if !bytes.Equal(hitRep.body, coldRep.body) {
		t.Errorf("store hit body differs from the cold body:\n got %s\nwant %s", hitRep.body, coldRep.body)
	}
	if got, want := hit.Status().Dictionary, cold.Status().Dictionary; !reflect.DeepEqual(got, want) {
		t.Errorf("store hit dictionary %+v, cold %+v", got, want)
	}
	if hitRep.undetected != nil || hitRep.missed != nil {
		t.Error("the store hit read its undetected faults before they were asked for")
	}
	if got := heldLists(t, m2, hit); !bytes.Equal(got, coldLists) {
		t.Errorf("store hit lists differ from the cold lists:\n got %s\nwant %s", got, coldLists)
	}
}

// v1Body is the report a build before report v2 stored for a campaign:
// no version field, and each coverage block with its undetected list.
func v1Body(t *testing.T, body, lists []byte) []byte {
	t.Helper()
	var rep CampaignReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	attachLists(t, &rep, lists)
	golden := bytes.TrimSpace(goldenReportBytes(t, &rep))
	var out bytes.Buffer
	if err := json.Compact(&out, golden); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestStaleStoredReportResimulates: a stored report is served only
// when it reads version 2 and its undetected index exists. A v1 report
// (with or without an index beside it), a v2 report whose index is
// missing and the layout the build before the index wrote (a v2 report
// beside an undetected/ artifact of name lists, with no index and no
// names artifact) are logged misses: their pending markers come back
// resumable, and a submission re-simulates once, writes the index and
// the names and serves the cold run's v2 bodies, which a third manager
// then answers from the store. The undetected/ lists are never read.
func TestStaleStoredReportResimulates(t *testing.T) {
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, IDDQ: true}, Shards: 1}
	// "lists" in a case name is the campaign's stored lists in their
	// current form: its undetected index.
	for _, tc := range []struct {
		name    string
		v1      bool // store a v1 body
		noIndex bool // remove the undetected index
		lists   bool // the earlier layout: name lists in undetected/, no names artifact
	}{
		{"v1 report, no lists", true, true, false},
		{"v1 report beside lists", true, false, false},
		{"v2 report, no lists", false, true, false},
		{"v2 report beside name lists, no index", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
			cold := submitDone(t, m1, req)
			coldLists := heldLists(t, m1, cold)
			m1.Close()
			coldRep, _, _ := cold.result()

			store, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.v1 {
				if _, err := store.Write(resultstore.KindReport, cold.Key, v1Body(t, coldRep.body, coldLists)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.noIndex {
				if err := store.Delete(resultstore.KindUndetectedIndex, cold.Key); err != nil {
					t.Fatal(err)
				}
			}
			if tc.lists {
				names, err := store.Keys(resultstore.KindFaultNames)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range names {
					if err := store.Delete(resultstore.KindFaultNames, k); err != nil {
						t.Fatal(err)
					}
				}
				// A names list the index could not describe: reading it
				// as the new form would serve the wrong names.
				if err := os.Mkdir(filepath.Join(dir, "undetected"), 0o755); err != nil {
					t.Fatal(err)
				}
				if _, err := store.Write(resultstore.Kind("undetected"), cold.Key, []byte(`{"stuck_at":["x"]}`)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.Put(resultstore.KindPending, cold.Key, pendingCampaign{Request: req, JobID: cold.ID}); err != nil {
				t.Fatal(err)
			}

			var logs bytes.Buffer
			m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))})
			recovered := m2.Resumable()
			if len(recovered) != 1 || recovered[0].Key != cold.Key {
				t.Fatalf("recovered %+v, want the campaign %s resumable", recovered, cold.Key)
			}
			if out := logs.String(); !strings.Contains(out, "stored report not served") || !strings.Contains(out, cold.Key) {
				t.Errorf("no warning with the key for the stale report:\n%s", out)
			}
			job, err := m2.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, job); st.State != StateDone || st.CacheHit {
				t.Fatalf("submission over the stale report: %s cache_hit %t (%s), want a re-simulation", st.State, st.CacheHit, st.Error)
			}
			if got, want := reportBytes(t, job), reportBytes(t, cold); !bytes.Equal(got, want) {
				t.Errorf("re-simulated report differs from the cold run's:\n got %s\nwant %s", got, want)
			}
			m2.Close()
			names, err := store.Keys(resultstore.KindFaultNames)
			if err != nil || len(names) != 1 || !store.Has(resultstore.KindUndetectedIndex, cold.Key) {
				t.Errorf("re-simulation left %d names artifacts (%v) and index %t, want one of each", len(names), err, store.Has(resultstore.KindUndetectedIndex, cold.Key))
			}
			if store.Has(resultstore.KindPending, cold.Key) {
				t.Error("pending marker survived the re-simulation")
			}

			m3 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
			defer m3.Close()
			hit := submitDone(t, m3, req)
			if st := hit.Status(); !st.CacheHit || m3.Metrics().StoreReportHits.Value() != 1 {
				t.Fatalf("third manager: cache_hit %t, %d store hits; want the rewritten report served", st.CacheHit, m3.Metrics().StoreReportHits.Value())
			}
			hitRep, _, _ := hit.result()
			var rep CampaignReport
			if err := json.Unmarshal(hitRep.body, &rep); err != nil || rep.Version != ReportVersion {
				t.Fatalf("served report version %d (%v), want %d", rep.Version, err, ReportVersion)
			}
			if got := heldLists(t, m3, hit); !bytes.Equal(got, coldLists) {
				t.Errorf("served lists %s, want the cold lists", got)
			}
		})
	}
}

// getUndetected answers GET /v1/campaigns/{id}/undetected: the status
// and the body.
func getUndetected(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/undetected")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTornListsAreAFailedRead: an undetected index or names artifact
// that does not read back whole answers /undetected with a server
// error, never a partial list, while the report itself is still served
// from the store. The failed read is not held: once the artifact is
// whole again, /undetected serves the cold run's lists.
func TestTornListsAreAFailedRead(t *testing.T) {
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true}, Shards: 1}
	for _, kind := range []resultstore.Kind{resultstore.KindUndetectedIndex, resultstore.KindFaultNames} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
			cold := submitDone(t, m1, req)
			coldLists := heldLists(t, m1, cold)
			m1.Close()
			coldRep, _, _ := cold.result()

			srv := NewServer(ManagerConfig{Workers: 2, ResultDir: dir})
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			st, code := postCampaign(t, ts, req)
			if code != http.StatusOK || !st.CacheHit {
				t.Fatalf("restarted server: HTTP %d cache_hit %t, want a store hit", code, st.CacheHit)
			}
			ents, err := os.ReadDir(filepath.Join(dir, string(kind)))
			if err != nil || len(ents) != 1 {
				t.Fatalf("%d %s artifacts (%v), want 1", len(ents), kind, err)
			}
			path := filepath.Join(dir, string(kind), ents[0].Name())
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if body := servedReport(t, ts, st.ID); !bytes.Equal(body, coldRep.body) {
				t.Errorf("report body differs from the cold run's")
			}
			code, raw := getUndetected(t, ts, st.ID)
			var body map[string]string
			if err := json.Unmarshal(raw, &body); err != nil || code != http.StatusInternalServerError || body["error"] == "" {
				t.Errorf("torn %s: HTTP %d %s, want 500 with an error", kind, code, raw)
			}
			if err := os.WriteFile(path, whole, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := servedLists(t, ts, st.ID); !bytes.Equal(got, coldLists) {
				t.Errorf("lists after the artifact was mended differ from the cold lists")
			}
		})
	}
}

// TestUndetectedRenderedOnce: the /undetected body is rendered once per
// held report. A cold job renders it from its campaign's indices, with
// no artifact read. A store hit reads its index and names on the first
// GET only: with both artifacts deleted after it, the job and an LRU
// resubmit, which shares the held report, serve the same bytes.
func TestUndetectedRenderedOnce(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, IDDQ: true}, Shards: 1}
	m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	cold := submitDone(t, m1, req)
	m1.Close()

	// artifacts lists the campaign's index and names artifacts.
	artifacts := func() []string {
		paths := []string{filepath.Join(dir, string(resultstore.KindUndetectedIndex), cold.Key+resultstore.Ext)}
		names, err := filepath.Glob(filepath.Join(dir, string(resultstore.KindFaultNames), "*"+resultstore.Ext))
		if err != nil || len(names) != 1 {
			t.Fatalf("%d names artifacts (%v), want 1", len(names), err)
		}
		return append(paths, names...)
	}
	saved := map[string][]byte{}
	for _, path := range artifacts() {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saved[path] = b
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	coldLists := heldLists(t, m1, cold)
	for path, b := range saved {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv := NewServer(ManagerConfig{Workers: 2, ResultDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	st, code := postCampaign(t, ts, req)
	if code != http.StatusOK || !st.CacheHit {
		t.Fatalf("restarted server: HTTP %d cache_hit %t, want a store hit", code, st.CacheHit)
	}
	if first := servedLists(t, ts, st.ID); !bytes.Equal(first, coldLists) {
		t.Fatalf("store hit lists differ from the cold lists:\n got %s\nwant %s", first, coldLists)
	}
	for _, path := range artifacts() {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	if again := servedLists(t, ts, st.ID); !bytes.Equal(again, coldLists) {
		t.Errorf("second GET differs from the first:\n got %s", again)
	}
	re, code := postCampaign(t, ts, req)
	if code != http.StatusOK || !re.CacheHit {
		t.Fatalf("resubmit: HTTP %d cache_hit %t, want an LRU hit", code, re.CacheHit)
	}
	if got := servedLists(t, ts, re.ID); !bytes.Equal(got, coldLists) {
		t.Errorf("LRU resubmit lists differ from the first GET's:\n got %s", got)
	}
}

// TestUndetectedConcurrent: campaigns on one circuit and fault
// configuration persist at once and share one names artifact, and
// concurrent readers of one held report, cold or store-served, all get
// the body a private run renders. Run under -race.
func TestUndetectedConcurrent(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{Workers: 4, ResultDir: dir}
	reqs := make([]CampaignRequest, 6)
	for i := range reqs {
		reqs[i] = CampaignRequest{Benchmark: "rca8", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOn: true, IDDQ: true}, Seed: int64(i + 1), Shards: 1}
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		norm, c, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunCampaignObserved(context.Background(), c, norm, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.missed().body()
	}
	// readAll reads every job's lists from four goroutines at once.
	readAll := func(m *Manager, jobs []*Job) {
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, job := range jobs {
					held, _, _ := job.result()
					got, err := m.undetected(job.Key, held)
					if err != nil || !bytes.Equal(got, want[i]) {
						t.Errorf("campaign %d: lists differ from a private run's (%v)", i, err)
					}
				}
			}()
		}
		wg.Wait()
	}

	m1 := NewManager(cfg)
	jobs := make([]*Job, len(reqs))
	for i, req := range reqs {
		job, err := m1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	for i, job := range jobs {
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("campaign %d: %s (%s)", i, st.State, st.Error)
		}
	}
	readAll(m1, jobs)
	m1.Close()
	if ents, err := os.ReadDir(filepath.Join(dir, string(resultstore.KindFaultNames))); err != nil || len(ents) != 1 {
		t.Fatalf("%d names artifacts (%v), want 1", len(ents), err)
	}

	m2 := NewManager(cfg)
	defer m2.Close()
	for i, req := range reqs {
		jobs[i] = submitDone(t, m2, req)
		if !jobs[i].Status().CacheHit {
			t.Fatalf("campaign %d: not a store hit", i)
		}
	}
	readAll(m2, jobs)
}

// TestFailedPersistKeepsPendingMarker: a campaign whose report does not
// reach the result store keeps its pending marker, so the next start
// lists it as resumable, and resuming it stores the report and consumes
// the marker. The report write fails on a plain file where the
// reports directory was.
func TestFailedPersistKeepsPendingMarker(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}, Shards: 1}
	m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	reports := filepath.Join(dir, string(resultstore.KindReport))
	if err := os.Remove(reports); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reports, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	job := submitDone(t, m1, req)
	m1.Close()
	if _, err := os.Stat(filepath.Join(dir, string(resultstore.KindPending), job.Key+resultstore.Ext)); err != nil {
		t.Fatalf("pending marker gone after a failed persist: %v", err)
	}

	if err := os.Remove(reports); err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	defer m2.Close()
	recovered := m2.Resumable()
	if len(recovered) != 1 || recovered[0].Key != job.Key {
		t.Fatalf("recovered %+v, want the campaign %s resumable", recovered, job.Key)
	}
	resumed, err := m2.Resume(recovered[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, resumed); st.State != StateDone || st.CacheHit {
		t.Fatalf("resumed campaign: %s cache_hit %t (%s), want a re-simulation", st.State, st.CacheHit, st.Error)
	}
	rs, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Has(resultstore.KindReport, job.Key) || rs.Has(resultstore.KindPending, job.Key) {
		t.Errorf("after the resume: report stored %t, marker kept %t; want stored, consumed",
			rs.Has(resultstore.KindReport, job.Key), rs.Has(resultstore.KindPending, job.Key))
	}
}

// TestManagerShardMetricsAndProgress checks the executed sharded
// campaign's observable surface: shard counters and the aggregated
// per-shard progress fields. The fields are read from the job's final
// status, which keeps the last progress snapshot: a subscription taken
// after Submit could attach after a fast campaign already finished.
func TestManagerShardMetricsAndProgress(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, ResultDir: t.TempDir(), ProgressInterval: -1})
	defer m.Close()
	j, err := m.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("campaign finished %s: %s", st.State, st.Error)
	}
	if p := st.Progress; p == nil || p.Shards != 4 || p.ShardsDone == 0 {
		t.Fatalf("final progress %+v carries no shard aggregation (shards/shards_done)", p)
	}
	if got := m.Metrics().ShardScheduled.Value(); got != 4 {
		t.Fatalf("shards scheduled = %d, want 4", got)
	}
	if got := m.Metrics().ShardCacheHits.Value(); got != 0 {
		t.Fatalf("shard cache hits = %d, want 0 on a cold store", got)
	}

	// Resubmitting after the LRU is cleared exercises the store path.
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: m.cfg.ResultDir})
	defer m2.Close()
	j2, err := m2.Submit(storeTestReq)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("second manager state %s, want done from store", st.State)
	}
}

// TestManagerPersistsBeforeDone pins the terminal-state ordering: the
// moment a campaign reads done (its subscription closes with the
// terminal transition), its report is in the result store and its
// pending marker is gone, so a restart right after done neither
// re-simulates it nor lists it resumable.
func TestManagerPersistsBeforeDone(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, ResultDir: t.TempDir()})
	defer m.Close()
	for _, faults := range []FaultConfig{
		{StuckAt: true},
		{Polarity: true, IDDQ: true},
		{StuckOpen: true, StuckOn: true},
		{StuckAt: true, Bridges: true},
	} {
		j, err := m.Submit(CampaignRequest{Benchmark: "c17", Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		ch, cancel, err := m.Subscribe(j)
		if err != nil {
			t.Fatal(err)
		}
		for range ch {
		}
		cancel()
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("%+v: campaign finished %s: %s", faults, st.State, st.Error)
		}
		if !m.store.Has(resultstore.KindReport, j.Key) {
			t.Fatalf("%+v: done before the report reached the store", faults)
		}
		if m.store.Has(resultstore.KindPending, j.Key) {
			t.Fatalf("%+v: done while the pending marker survives", faults)
		}
	}
}

// TestManagerDrainParksQueuedAsResumable pins the graceful-drain and
// resume lifecycle: Drain parks never-started campaigns as durable
// resumable state, a fresh manager recovers them, and resuming runs
// them to completion (consuming the pending markers).
func TestManagerDrainParksQueuedAsResumable(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(ManagerConfig{Workers: 1, ResultDir: dir})
	reqs := []CampaignRequest{
		{Benchmark: "mult4", Faults: FaultConfig{StuckAt: true, Polarity: true, IDDQ: true}, Engine: "packed", Shards: 2},
		{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true}, Shards: 2},
		{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true, Bridges: true}, Shards: 2},
	}
	jobs := make([]*Job, len(reqs))
	for i, r := range reqs {
		j, err := m1.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	m1.Drain()

	done, resumable := 0, 0
	for _, j := range jobs {
		switch st := j.Status(); st.State {
		case StateDone:
			done++
		case StateResumable:
			resumable++
			if !m1.store.Has(resultstore.KindPending, j.Key) {
				t.Fatalf("resumable job %s has no pending marker", j.ID)
			}
		default:
			t.Fatalf("after drain job %s is %s, want done or resumable", j.ID, st.State)
		}
	}
	if done+resumable != len(jobs) || resumable == 0 {
		t.Fatalf("after drain: %d done, %d resumable of %d", done, resumable, len(jobs))
	}

	// Restart: the drained campaigns come back as resumable records.
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	defer m2.Close()
	recovered := m2.Resumable()
	if len(recovered) != resumable {
		t.Fatalf("recovered %d resumable campaigns, want %d", len(recovered), resumable)
	}
	for _, st := range recovered {
		nj, err := m2.Resume(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, nj); fin.State != StateDone {
			t.Fatalf("resumed campaign %s finished %s: %s", nj.ID, fin.State, fin.Error)
		}
		if m2.store.Has(resultstore.KindPending, nj.Key) {
			t.Fatalf("pending marker for %s survived completion", nj.Key)
		}
	}
	if left := m2.Resumable(); len(left) != 0 {
		t.Fatalf("%d campaigns still listed resumable after resuming all", len(left))
	}
}

// TestResumableOrderPastAMillion: job IDs are zero-padded to six
// digits and grow a seventh at c-1000000, which sorts after c-999999:
// the resumable listing stays oldest first.
func TestResumableOrderPastAMillion(t *testing.T) {
	var sts []JobStatus
	for _, id := range []string{"c-1000000", "c-000002", "c-999999", "c-10000000", "c-1000001", "c-000010"} {
		sts = append(sts, JobStatus{ID: id})
	}
	sortStatusesByID(sts)
	var got []string
	for _, st := range sts {
		got = append(got, st.ID)
	}
	want := []string{"c-000002", "c-000010", "c-999999", "c-1000000", "c-1000001", "c-10000000"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted %v, want %v", got, want)
	}
}

// TestManagerResumeRejectsNonResumable guards the resume endpoint's
// state machine.
func TestManagerResumeRejectsNonResumable(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, ResultDir: t.TempDir()})
	defer m.Close()
	j, err := m.Submit(CampaignRequest{Benchmark: "mult3", Faults: FaultConfig{StuckAt: true}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if _, err := m.Resume(j.ID); err == nil {
		t.Fatal("resumed a done campaign")
	}
	if _, err := m.Resume("c-999999"); err == nil {
		t.Fatal("resumed a nonexistent campaign")
	}
}

// TestManagerDropsInvalidPendingMarker: a pending marker written by an
// older build can hold a request this build rejects (here the retired
// "compiled" engine). Resume could never submit it, so startup deletes
// the marker with a warning instead of listing it resumable forever.
func TestManagerDropsInvalidPendingMarker(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	stale := pendingCampaign{
		Request: CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}, Engine: "compiled"},
		JobID:   "c-000001",
	}
	if _, err := store.Put(resultstore.KindPending, key, stale); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	m := NewManager(ManagerConfig{Workers: 1, ResultDir: dir, Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	defer m.Close()
	if got := m.Resumable(); len(got) != 0 {
		t.Errorf("invalid marker listed resumable: %+v", got)
	}
	if store.Has(resultstore.KindPending, key) {
		t.Error("invalid pending marker survived startup")
	}
	if !strings.Contains(logs.String(), "pending marker no longer valid") {
		t.Errorf("no warning logged for the dropped marker:\n%s", logs.String())
	}
}

// TestManagerDrainedWithoutStoreIsCanceled: a campaign the drain cuts
// short is resumable only when its finished shards and pending marker
// persisted. Without a result store there is nothing to resume from,
// so it is canceled and never listed resumable.
func TestManagerDrainedWithoutStoreIsCanceled(t *testing.T) {
	withFakeRunner(t, func(context.Context, *logic.Circuit, CampaignRequest) (*CampaignReport, error) {
		return nil, shard.ErrDraining
	})
	for _, tc := range []struct {
		name      string
		resultDir string
		want      JobState
	}{
		{"no store", "", StateCanceled},
		{"result store", t.TempDir(), StateResumable},
	} {
		m := NewManager(ManagerConfig{Workers: 1, ResultDir: tc.resultDir})
		j, err := m.Submit(CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.State != tc.want {
			t.Errorf("%s: drained campaign is %s, want %s", tc.name, st.State, tc.want)
		}
		listed := len(m.Resumable()) == 1
		if listed != (tc.want == StateResumable) {
			t.Errorf("%s: listed resumable = %t, want %t", tc.name, listed, tc.want == StateResumable)
		}
		wantCanceled := int64(0)
		if tc.want == StateCanceled {
			wantCanceled = 1
		}
		if got := m.Metrics().Canceled.Value(); got != wantCanceled {
			t.Errorf("%s: canceled counter = %d, want %d", tc.name, got, wantCanceled)
		}
		m.Close()
	}
}

// TestParkedJobReadsNameResume: a campaign a drain parks as resumable
// never finishes under its ID, so reading its report, undetected lists
// or dictionary must not ask the client to retry (no Retry-After); the
// 409 names the resume call instead.
func TestParkedJobReadsNameResume(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	withFakeRunner(t, func(context.Context, *logic.Circuit, CampaignRequest) (*CampaignReport, error) {
		started <- struct{}{}
		<-release
		return &CampaignReport{}, nil
	})
	srv := NewServer(ManagerConfig{Workers: 1, ResultDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	running, _ := postCampaign(t, ts, CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}})
	<-started
	queued, code := postCampaign(t, ts, CampaignRequest{Benchmark: "c17", Faults: FaultConfig{Polarity: true}})
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}
	drained := make(chan struct{})
	go func() { srv.Manager().Drain(); close(drained) }()
	for !srv.Manager().isDraining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-drained
	if st := pollDone(t, ts, running.ID); st.State != StateDone {
		t.Fatalf("running campaign ended %s", st.State)
	}
	if st := pollDone(t, ts, queued.ID); st.State != StateResumable {
		t.Fatalf("queued campaign ended %s, want resumable", st.State)
	}

	for _, path := range []string{"/report", "/undetected", "/dictionary"} {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + queued.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict || body["state"] != string(StateResumable) {
			t.Errorf("%s: HTTP %d state %q, want 409 resumable", path, resp.StatusCode, body["state"])
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			t.Errorf("%s: Retry-After %q on a job that will never finish", path, ra)
		}
		if want := "POST /v1/campaigns/" + queued.ID + "/resume"; !strings.Contains(body["error"], want) {
			t.Errorf("%s: error %q does not name %q", path, body["error"], want)
		}
	}
}
