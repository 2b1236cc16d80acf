package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpsinw/internal/logic"
	"cpsinw/internal/obs"
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
	m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir, Logger: obs.New(&logs, obs.LevelWarn, obs.FormatText)})
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

// TestStoredReportIsServedBody: a stored report and its undetected
// lists are each encoded once, so their artifacts hold the bytes the
// service serves, plus the encoder's newline.
func TestStoredReportIsServedBody(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(ManagerConfig{Workers: 2, ResultDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	st, _ := postCampaign(t, ts, storeTestReq)
	if st = pollDone(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("campaign: %s (%s)", st.State, st.Error)
	}
	for kind, resource := range map[resultstore.Kind]string{resultstore.KindReport: "report", resultstore.KindUndetected: "undetected"} {
		body := servedBody(t, ts, st.ID, resource)
		f, err := os.Open(filepath.Join(dir, string(kind), st.Key+resultstore.Ext))
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
			t.Errorf("stored %s is not the served body plus a newline:\nstored %s\nserved %s", kind, stored, body)
		}
	}
}

// TestStoreHitServesColdBody: a restarted manager answers a stored
// campaign with the cold run's report body byte for byte, elapsed time
// included (the stored bytes are served as read, not decoded and
// re-encoded), and its status carries the stored dictionary metadata.
// The store hit holds no lists: it reads the lists artifact when they
// are asked for, and serves the cold run's lists byte for byte.
func TestStoreHitServesColdBody(t *testing.T) {
	cfg := ManagerConfig{Workers: 2, ResultDir: t.TempDir(), DictDir: t.TempDir()}
	m1 := NewManager(cfg)
	cold := submitDone(t, m1, storeTestReq)
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
	if hitRep.undetected != nil {
		t.Error("the store hit read its undetected lists before they were asked for")
	}
	if got := heldLists(t, m2, hit); !bytes.Equal(got, coldRep.undetected) {
		t.Errorf("store hit lists differ from the cold lists:\n got %s\nwant %s", got, coldRep.undetected)
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
// when it reads version 2 and its undetected-lists artifact exists. A
// parent build's v1 report (with or without a lists artifact beside
// it) and a v2 report whose lists are missing are logged misses: their
// pending markers come back resumable, and a submission re-simulates,
// rewrites both artifacts and serves the cold run's v2 bodies, which a
// third manager then answers from the store.
func TestStaleStoredReportResimulates(t *testing.T) {
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, IDDQ: true}, Shards: 1}
	for _, tc := range []struct {
		name    string
		v1      bool // store the parent's v1 body
		noLists bool // remove the lists artifact
	}{
		{"v1 report, no lists", true, true},
		{"v1 report beside lists", true, false},
		{"v2 report, no lists", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
			cold := submitDone(t, m1, req)
			m1.Close()
			coldRep, _, _ := cold.result()

			store, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.v1 {
				if _, err := store.Write(resultstore.KindReport, cold.Key, v1Body(t, coldRep.body, coldRep.undetected)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.noLists {
				if err := store.Delete(resultstore.KindUndetected, cold.Key); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.Put(resultstore.KindPending, cold.Key, pendingCampaign{Request: req, JobID: cold.ID}); err != nil {
				t.Fatal(err)
			}

			var logs bytes.Buffer
			m2 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir, Logger: obs.New(&logs, obs.LevelWarn, obs.FormatText)})
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
			if body, err := store.Read(resultstore.KindUndetected, cold.Key); err != nil || !bytes.Equal(body, coldRep.undetected) {
				t.Errorf("rewritten lists artifact %s (%v), want the cold lists", body, err)
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
			if got := heldLists(t, m3, hit); !bytes.Equal(got, coldRep.undetected) {
				t.Errorf("served lists %s, want the cold lists", got)
			}
		})
	}
}

// TestTornListsAreAFailedRead: a lists artifact that does not read back
// whole answers /undetected with a server error, never a partial list,
// while the report itself is still served from the store.
func TestTornListsAreAFailedRead(t *testing.T) {
	dir := t.TempDir()
	req := CampaignRequest{Benchmark: "c432", Faults: FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true}, Shards: 1}
	m1 := NewManager(ManagerConfig{Workers: 2, ResultDir: dir})
	cold := submitDone(t, m1, req)
	m1.Close()
	coldRep, _, _ := cold.result()
	if len(coldRep.undetected) < 1000 {
		t.Fatalf("lists body of %d bytes is too short to tear", len(coldRep.undetected))
	}

	srv := NewServer(ManagerConfig{Workers: 2, ResultDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	st, code := postCampaign(t, ts, req)
	if code != http.StatusOK || !st.CacheHit {
		t.Fatalf("restarted server: HTTP %d cache_hit %t, want a store hit", code, st.CacheHit)
	}
	path := filepath.Join(dir, string(resultstore.KindUndetected), cold.Key+resultstore.Ext)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if body := servedReport(t, ts, st.ID); !bytes.Equal(body, coldRep.body) {
		t.Errorf("report body differs from the cold run's")
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/undetected")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || body["error"] == "" {
		t.Errorf("torn lists: HTTP %d %v, want 500 with an error", resp.StatusCode, body)
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
	m := NewManager(ManagerConfig{Workers: 1, ResultDir: dir, Logger: obs.New(&logs, obs.LevelWarn, obs.FormatText)})
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
