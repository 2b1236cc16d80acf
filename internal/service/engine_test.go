package service

import (
	"net/http"
	"testing"
)

// TestCampaignEngineSelection runs the same benchmark campaign through
// both fault-simulation engines over the wire: each must succeed, tag
// its report with the engine used, produce identical coverage (the
// engines are differentially proven bit-identical), land in distinct
// cache entries, and show up in the per-engine job counters.
func TestCampaignEngineSelection(t *testing.T) {
	_, ts := newTestServer(t)
	reports := map[string]*CampaignReport{}
	keys := map[string]string{}
	for _, engine := range []string{"reference", "packed"} {
		st, code := postCampaign(t, ts, CampaignRequest{
			Benchmark: "fa_cp",
			Faults:    FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, Bridges: true, IDDQ: true},
			Engine:    engine,
		})
		if code != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d", engine, code)
		}
		if done := pollDone(t, ts, st.ID); done.State != StateDone {
			t.Fatalf("%s: state %s (%s)", engine, done.State, done.Error)
		}
		keys[engine] = st.Key
		var rep CampaignReport
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/report", &rep); code != http.StatusOK {
			t.Fatalf("%s report: HTTP %d", engine, code)
		}
		if rep.Engine != engine {
			t.Errorf("report engine = %q, want %q", rep.Engine, engine)
		}
		reports[engine] = &rep
	}
	if keys["reference"] == keys["packed"] {
		t.Errorf("engines share a cache key: %v", keys)
	}
	r, p := reports["reference"], reports["packed"]
	if r.StuckAt.Detected != p.StuckAt.Detected ||
		r.TransistorIDDQ.Detected != p.TransistorIDDQ.Detected ||
		r.TransistorIDDQ.Percent != p.TransistorIDDQ.Percent ||
		r.Bridges.Detected != p.Bridges.Detected ||
		r.Bridges.ByIDDQ != p.Bridges.ByIDDQ {
		t.Errorf("engines disagree: reference %+v/%+v/%+v vs packed %+v/%+v/%+v",
			r.StuckAt, r.TransistorIDDQ, r.Bridges, p.StuckAt, p.TransistorIDDQ, p.Bridges)
	}

	var metrics map[string]float64
	if code := getJSON(t, ts.URL+"/metrics?format=json", &metrics); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if metrics["jobs_engine_reference"] < 1 || metrics["jobs_engine_packed"] < 1 {
		t.Errorf("engine job counters = %v reference / %v packed, want >= 1 each",
			metrics["jobs_engine_reference"], metrics["jobs_engine_packed"])
	}
	// The engine counters are process-wide, so only sanity-check shape:
	// each engine must have run faults and bridges.
	for _, key := range []string{
		"faultsim_packed_fault_runs", "faultsim_packed_bridge_runs",
		"faultsim_reference_fault_runs", "faultsim_reference_bridge_runs",
	} {
		if metrics[key] < 1 {
			t.Errorf("faultsim counter %s = %v, want >= 1", key, metrics[key])
		}
	}
}

// TestCampaignEngineValidation rejects unknown engine names up front,
// including the retired "compiled" and "auto" selections.
func TestCampaignEngineValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, engine := range []string{"warp-drive", "compiled", "auto"} {
		_, code := postCampaign(t, ts, CampaignRequest{
			Benchmark: "c17",
			Faults:    FaultConfig{StuckAt: true},
			Engine:    engine,
		})
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", engine, code)
		}
	}
}
