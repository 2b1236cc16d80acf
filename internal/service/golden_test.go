package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"cpsinw/internal/dict"
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

// goldenReportBytes is a report's golden form: indented JSON with the
// two fields that vary from run to run zeroed, wall-clock time and the
// dictionary artifact's compressed size (its payload embeds a creation
// timestamp).
func goldenReportBytes(t *testing.T, rep *CampaignReport) []byte {
	t.Helper()
	cp := *rep
	cp.ElapsedMS = 0
	if cp.Dictionary != nil {
		d := *cp.Dictionary
		d.CompressedBytes = 0
		cp.Dictionary = &d
	}
	raw, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestReportGoldens is the refactor-safety test: the same request must
// yield the same report bytes single-shot, sharded at K=3, and through
// a manager with a result store and a dictionary store (cold run, LRU
// resubmit, and a restarted manager answering from the store), and a
// diagnosis of a stored fault's own signature must rank the same before
// and after the restart.
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

		job, err := srv1.Manager().Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("%s: manager campaign %s: %s", tc.name, st.State, st.Error)
		}
		rep, _, _ := job.Report()
		check(tc.name, "manager", rep)
		if tree, ok := srv1.Manager().Tracer().Tree(job.ID); !ok || tree.Attrs["shards"] != strconv.Itoa(tc.shards) {
			t.Errorf("%s: manager ran %v shards, want %d", tc.name, tree.Attrs["shards"], tc.shards)
		}

		hit, err := srv1.Manager().Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if st := hit.Status(); st.State != StateDone || !st.CacheHit {
			t.Fatalf("%s: resubmit state %s cache_hit %t, want an LRU hit", tc.name, st.State, st.CacheHit)
		}
		rep, _, _ = hit.Report()
		check(tc.name, "LRU resubmit", rep)

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
		job, err := srv2.Manager().Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Status(); st.State != StateDone || !st.CacheHit {
			t.Fatalf("%s: after restart state %s cache_hit %t, want a store hit", tc.name, st.State, st.CacheHit)
		}
		rep, _, _ := job.Report()
		check(tc.name, "restarted manager", rep)

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
