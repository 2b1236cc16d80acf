package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

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
// simulation, born done — by a fresh manager on the same directory.
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
		ch, cancel := m.Subscribe(j)
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
