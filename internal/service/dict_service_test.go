package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpsinw/internal/dict"
	"cpsinw/internal/logic"
)

func newDictTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ManagerConfig{
		Workers: 2, QueueDepth: 8, CacheSize: 8,
		JobTimeout: 30 * time.Second, DictDir: dir,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postDiagnose(t *testing.T, ts *httptest.Server, req DiagnoseRequest) (DiagnoseResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DiagnoseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// detectedEntry returns a stored entry with a non-empty signature.
func detectedEntry(t *testing.T, d *dict.Dictionary) *dict.Entry {
	t.Helper()
	for i := range d.Entries {
		if d.Entries[i].Detected() {
			return &d.Entries[i]
		}
	}
	t.Fatal("dictionary has no detected entries")
	return nil
}

// TestCampaignBuildsDictionary drives the tentpole acceptance path: a
// campaign on a server with a dictionary store persists a fault
// dictionary as a side effect of the simulation it already runs, the
// metadata surfaces in status/report/the dictionary endpoint, and
// /v1/diagnose answers from the stored artifact.
func TestCampaignBuildsDictionary(t *testing.T) {
	dir := t.TempDir()
	_, ts := newDictTestServer(t, dir)

	st, code := postCampaign(t, ts, CampaignRequest{
		Netlist: c17Bench,
		Faults: FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true,
			IDDQ: true,
		},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("campaign: %s (%s)", final.State, final.Error)
	}

	// Metadata must be on the terminal job status...
	meta := final.Dictionary
	if meta == nil {
		t.Fatal("done status carries no dictionary metadata")
	}
	if meta.Key != final.Key {
		t.Errorf("dictionary key %q != campaign key %q", meta.Key, final.Key)
	}
	if meta.Entries == 0 || meta.Patterns == 0 || meta.CompressedBytes == 0 {
		t.Errorf("implausible dictionary metadata: %+v", meta)
	}
	if !meta.IDDQ {
		t.Error("IDDQ campaign produced a dictionary without a leak plane")
	}
	if meta.Detected == 0 || meta.Classes == 0 {
		t.Errorf("empty diagnosis resolution: %+v", meta)
	}

	// ...on the report...
	var rep CampaignReport
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report: HTTP %d", code)
	}
	if rep.Dictionary == nil || *rep.Dictionary != *meta {
		t.Errorf("report dictionary = %+v, want %+v", rep.Dictionary, meta)
	}

	// ...and on the dedicated endpoint.
	var ep DictionaryJSON
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/dictionary", &ep); code != http.StatusOK {
		t.Fatalf("dictionary endpoint: HTTP %d", code)
	}
	if ep != *meta {
		t.Errorf("dictionary endpoint = %+v, want %+v", ep, meta)
	}

	// The artifact is a real file under the configured directory whose
	// size matches the advertised compressed size.
	fi, err := os.Stat(filepath.Join(dir, meta.Key+dict.ArtifactExt))
	if err != nil {
		t.Fatalf("artifact missing on disk: %v", err)
	}
	if fi.Size() != meta.CompressedBytes {
		t.Errorf("artifact size %d != advertised %d", fi.Size(), meta.CompressedBytes)
	}

	// Replaying a stored fault's exact signature through /v1/diagnose
	// must rank its equivalence class first with an exact match.
	store, err := dict.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Get(meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	entry := detectedEntry(t, d)
	resp, code := postDiagnose(t, ts, DiagnoseRequest{
		CampaignID:      st.ID,
		FailingPatterns: entry.Out.Members(),
		LeakingPatterns: entry.Leak.Members(),
	})
	if code != http.StatusOK {
		t.Fatalf("diagnose: HTTP %d", code)
	}
	if resp.Key != meta.Key || resp.Patterns != meta.Patterns {
		t.Errorf("diagnose header = %+v, want key %s patterns %d", resp, meta.Key, meta.Patterns)
	}
	if len(resp.Candidates) == 0 {
		t.Fatal("diagnose returned no candidates for a stored signature")
	}
	if top := resp.Candidates[0]; !top.Exact || top.Class != entry.Class {
		t.Errorf("top candidate = %+v, want exact match in class %s", top, entry.Class)
	}

	// Addressing the same dictionary by content key must agree.
	byKey, code := postDiagnose(t, ts, DiagnoseRequest{
		Key:             meta.Key,
		FailingPatterns: entry.Out.Members(),
		LeakingPatterns: entry.Leak.Members(),
	})
	if code != http.StatusOK {
		t.Fatalf("diagnose by key: HTTP %d", code)
	}
	if len(byKey.Candidates) != len(resp.Candidates) || byKey.Candidates[0] != resp.Candidates[0] {
		t.Errorf("by-key candidates diverge: %+v vs %+v", byKey.Candidates, resp.Candidates)
	}

	// The dict counters made it to the JSON metrics snapshot.
	var mm map[string]interface{}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &mm); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if got := mm["dict_built"].(float64); got != 1 {
		t.Errorf("dict_built = %v, want 1", got)
	}
	if got := mm["dict_bytes"].(float64); int64(got) != meta.CompressedBytes {
		t.Errorf("dict_bytes = %v, want %d", got, meta.CompressedBytes)
	}
	if got := mm["dict_diagnoses"].(float64); got != 2 {
		t.Errorf("dict_diagnoses = %v, want 2", got)
	}
}

// TestDiagnoseServedAcrossRestart is the headline restart guarantee: a
// fresh server process over the same dictionary directory answers
// /v1/diagnose from the persisted artifact with zero re-simulation.
func TestDiagnoseServedAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// First "process": run the campaign and persist the dictionary.
	srv1 := NewServer(ManagerConfig{Workers: 1, QueueDepth: 4, CacheSize: 4, JobTimeout: 30 * time.Second, DictDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	st, code := postCampaign(t, ts1, CampaignRequest{
		Netlist: c17Bench,
		Faults:  FaultConfig{StuckAt: true, StuckOpen: true, IDDQ: true},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := pollDone(t, ts1, st.ID)
	if final.State != StateDone || final.Dictionary == nil {
		t.Fatalf("campaign: %s (%s), dict %v", final.State, final.Error, final.Dictionary)
	}
	key := final.Dictionary.Key
	ts1.Close()
	srv1.Close()

	// Pick a stored signature to replay, reading the artifact directly.
	store, err := dict.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	entry := detectedEntry(t, d)

	// Second "process": same directory, and a runner seam that fails
	// the test if any campaign executes — diagnosis must not simulate.
	withObservedRunner(t, func(context.Context, *logic.Circuit, CampaignRequest, *RunObserver) (*CampaignReport, error) {
		t.Error("diagnosis triggered a campaign run")
		return nil, errors.New("unexpected simulation")
	})
	_, ts2 := newDictTestServer(t, dir)

	resp, code := postDiagnose(t, ts2, DiagnoseRequest{
		Key:             key,
		FailingPatterns: entry.Out.Members(),
		LeakingPatterns: entry.Leak.Members(),
	})
	if code != http.StatusOK {
		t.Fatalf("diagnose after restart: HTTP %d", code)
	}
	if len(resp.Candidates) == 0 || !resp.Candidates[0].Exact || resp.Candidates[0].Class != entry.Class {
		t.Errorf("restart diagnosis candidates = %+v, want exact match in class %s", resp.Candidates, entry.Class)
	}
	if resp.Circuit != d.Meta.Circuit || resp.Patterns != d.Meta.Patterns {
		t.Errorf("restart diagnosis header = %+v, want %+v", resp, d.Meta)
	}
}

// TestManagerDictCacheBounded checks the manager's cache of loaded
// dictionaries: a stored dictionary is not cached, a load returns what
// was stored, and the maxLoadedDictionaries most recently loaded stay.
func TestManagerDictCacheBounded(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, DictDir: t.TempDir()})
	defer m.Close()
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	for i := range 3 * maxLoadedDictionaries {
		out := dict.NewBitset(16)
		out.Set(i % 16)
		d := &dict.Dictionary{
			Meta:    dict.Meta{Key: key(i), Circuit: "t", Patterns: 16},
			Entries: []dict.Entry{{Fault: "g/f", Out: out, Leak: dict.NewBitset(16)}},
		}
		if _, _, err := m.dict.Put(d); err != nil {
			t.Fatal(err)
		}
		if _, _, n := m.dicts.Stats(); n != min(i, maxLoadedDictionaries) {
			t.Fatalf("store %d: cache holds %d dictionaries, want %d", i, n, min(i, maxLoadedDictionaries))
		}
		got, err := m.dictionary(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Entries, d.Entries) {
			t.Fatalf("load after store %d returned different entries", i)
		}
	}
	var want []string
	for i := 3*maxLoadedDictionaries - 1; i >= 2*maxLoadedDictionaries; i-- {
		want = append(want, key(i))
	}
	if got := m.dicts.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("cached keys %v, want the %d most recently loaded", got, maxLoadedDictionaries)
	}
}

// TestDiagnoseValidation covers the failure surface of /v1/diagnose and
// the dictionary endpoint.
func TestDiagnoseValidation(t *testing.T) {
	// Store not configured: the whole diagnosis surface is 503.
	_, bare := newTestServer(t)
	if _, code := postDiagnose(t, bare, DiagnoseRequest{Key: strings.Repeat("a", 64), FailingPatterns: []int{0}}); code != http.StatusServiceUnavailable {
		t.Errorf("diagnose without store: HTTP %d, want 503", code)
	}

	dir := t.TempDir()
	_, ts := newDictTestServer(t, dir)
	st, code := postCampaign(t, ts, CampaignRequest{
		Netlist: c17Bench,
		Faults:  FaultConfig{StuckAt: true},
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateDone || final.Dictionary == nil {
		t.Fatalf("campaign: %s (%s), dict %v", final.State, final.Error, final.Dictionary)
	}
	nPat := final.Dictionary.Patterns

	cases := []struct {
		name string
		req  DiagnoseRequest
		want int
	}{
		{"neither key nor campaign", DiagnoseRequest{FailingPatterns: []int{0}}, http.StatusBadRequest},
		{"both key and campaign", DiagnoseRequest{Key: final.Key, CampaignID: st.ID, FailingPatterns: []int{0}}, http.StatusBadRequest},
		{"malformed key", DiagnoseRequest{Key: "../../etc/passwd", FailingPatterns: []int{0}}, http.StatusBadRequest},
		{"absent key", DiagnoseRequest{Key: strings.Repeat("0", 64), FailingPatterns: []int{0}}, http.StatusNotFound},
		{"unknown campaign", DiagnoseRequest{CampaignID: "nope", FailingPatterns: []int{0}}, http.StatusNotFound},
		{"empty observation", DiagnoseRequest{Key: final.Key}, http.StatusBadRequest},
		{"pattern out of range", DiagnoseRequest{Key: final.Key, FailingPatterns: []int{nPat}}, http.StatusBadRequest},
		{"negative pattern", DiagnoseRequest{Key: final.Key, FailingPatterns: []int{-1}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code := postDiagnose(t, ts, tc.req); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, code, tc.want)
		}
	}

	// The dictionary endpoint 404s when the store was never configured.
	st2, code := postCampaign(t, bare, CampaignRequest{
		Netlist: c17Bench,
		Faults:  FaultConfig{StuckAt: true},
	})
	if code != http.StatusAccepted {
		t.Fatalf("bare submit: HTTP %d", code)
	}
	if got := pollDone(t, bare, st2.ID); got.Dictionary != nil {
		t.Errorf("store-less campaign grew dictionary metadata: %+v", got.Dictionary)
	}
	if code := getJSON(t, bare.URL+"/v1/campaigns/"+st2.ID+"/dictionary", nil); code != http.StatusNotFound {
		t.Errorf("store-less dictionary endpoint: HTTP %d, want 404", code)
	}
}
