package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cpsinw/internal/bench"
	"cpsinw/internal/dict"
	"cpsinw/internal/logic"
	"cpsinw/internal/service"
)

const (
	wlCold  = "campaign_cold"
	wlATPG  = "atpg_gen"
	wlStore = "store_diagnose"
)

var workloadNames = []string{wlCold, wlATPG, wlStore}

// clients is the closed-loop client count and the manager's worker
// count: one caller per core of the two-core reference machine.
const clients = 2

// oracleLen is how many leading ops of each workload's sequence the
// committed oracle covers for the default seed. Ops past it (a machine
// fast enough to get there) are checked by invariants only.
var oracleLen = map[string]int{wlCold: 420, wlATPG: 160, wlStore: 6000}

// cycleLen is one full rotation of a workload's op mix.
var cycleLen = map[string]int{wlCold: len(coldCircuits), wlATPG: len(atpgCircuits), wlStore: len(storeMix)}

// storeMix is store_diagnose's repeating op pattern: H resubmits a
// stored campaign, D diagnoses a stored fault, W runs a fresh campaign
// that writes through shard, result store and dictionary store.
const storeMix = "HDHDHDHDHWHDHDHDHDDW"

// storeRestartEvery is the op interval at which store_diagnose closes
// the server and reopens it on the same directories.
const storeRestartEvery = 200

// rateWindow is the op count of one window of the rate metrics: whole
// rotations of the op mix, and on store_diagnose one restart period.
var rateWindow = map[string]int{wlCold: 2 * len(coldCircuits), wlATPG: 2 * len(atpgCircuits), wlStore: storeRestartEvery}

var (
	fullFaults = service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, Bridges: true, IDDQ: true}
	atpgFaults = service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true}
	// storeFaults drops bridges: they carry no dictionary signatures.
	storeFaults = service.FaultConfig{StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true}

	// c432 and c499 run twice per rotation so that the latency median
	// and p90 fall well inside one circuit's group (c432's, c499's), not
	// on the gap between two groups or at a group's edge.
	coldCircuits    = []string{"c432", "c880", "c499.bench", "alu8", "c432", "mult8", "c499.bench", "randl"}
	atpgCircuits    = []string{"parity32", "rca32", "c432", "alu6", "c432"}
	storeCircuits   = []string{"c432", "c880", "alu8", "mult8", "rca16"}
	storePopSeeds   = []int64{11, 12, 13}
	storeWriteLabel = "c432"
)

type opKind int

const (
	opCampaign opKind = iota // simulate; on cold workloads followed by a resubmit hit
	opHit                    // resubmit a stored campaign
	opDiagnose               // rank one stored fault's own signature
)

// op is one generated operation. Everything about it derives from the
// run seed and its index, so op(i) is the same in every run.
type op struct {
	Index int
	Kind  opKind
	Label string // circuit label: a benchmark name, "c499.bench" or "randl"
	Req   service.CampaignRequest
	Pop   int // store_diagnose: population entry for hit and diagnose ops
	Pick  int // diagnose: which detected fault of that entry (mod count)

	Populate bool // store_diagnose set-up campaign for population entry Pop
}

// opSeed gives every timed op a distinct pattern seed; warm-up ops use
// the negated range, so they never share a content key with timed ops.
func opSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) + 1 }

func warmSeed(seed int64, i int) int64 { return -opSeed(seed, i) }

// netlists holds .bench text for circuits submitted as netlists; the
// clients generate ops concurrently.
var netlists struct {
	sync.Mutex
	text map[string]string
}

// netlistFor writes a built-in circuit ("c499.bench" names c499) as
// .bench text. The labels are constants, so a failure is a bug.
func netlistFor(label string) string {
	netlists.Lock()
	defer netlists.Unlock()
	if s, ok := netlists.text[label]; ok {
		return s
	}
	c, err := bench.Get(strings.TrimSuffix(label, ".bench"))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := logic.WriteBench(&buf, c); err != nil {
		panic(err)
	}
	if netlists.text == nil {
		netlists.text = map[string]string{}
	}
	netlists.text[label] = buf.String()
	return buf.String()
}

// campaignReq builds the request for a circuit label and pattern seed.
// Requests carry no engine, workers or shards: execution tuning is the
// server's business.
func campaignReq(label string, seed int64, faults service.FaultConfig, atpg bool) service.CampaignRequest {
	r := service.CampaignRequest{Faults: faults, Seed: seed, ATPG: atpg}
	switch {
	case label == "randl":
		// A fresh layered topology per op, drawn from the op seed.
		r.Benchmark = fmt.Sprintf("randl%d_w16xd8", seed)
	case filepath.Ext(label) == ".bench":
		r.Netlist = netlistFor(label)
	default:
		r.Benchmark = label
	}
	return r
}

// opAt generates op i of a workload's sequence.
func opAt(wl string, seed int64, i int) op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)*104729 + int64(len(wl))))
	o := op{Index: i}
	switch wl {
	case wlCold:
		o.Label = coldCircuits[i%len(coldCircuits)]
		o.Req = campaignReq(o.Label, opSeed(seed, i), fullFaults, false)
	case wlATPG:
		o.Label = atpgCircuits[i%len(atpgCircuits)]
		o.Req = campaignReq(o.Label, opSeed(seed, i), atpgFaults, true)
	case wlStore:
		switch storeMix[i%len(storeMix)] {
		case 'H':
			o.Kind = opHit
			o.Pop = rng.Intn(len(storeCircuits) * len(storePopSeeds))
			o.Req = populationReq(o.Pop)
		case 'D':
			o.Kind = opDiagnose
			o.Pop = rng.Intn(len(storeCircuits) * len(storePopSeeds))
			o.Pick = rng.Intn(1 << 30)
		default:
			o.Label = storeWriteLabel
			o.Req = campaignReq(o.Label, opSeed(seed, i), storeFaults, false)
		}
	}
	return o
}

// warmOps is each workload's warm-up: one op per circuit of the
// rotation, with seeds disjoint from the timed sequence.
func warmOps(wl string, seed int64) []op {
	var out []op
	switch wl {
	case wlCold:
		for i, l := range coldCircuits {
			out = append(out, op{Index: -1, Label: l, Req: campaignReq(l, warmSeed(seed, i), fullFaults, false)})
		}
	case wlATPG:
		for i, l := range atpgCircuits {
			out = append(out, op{Index: -1, Label: l, Req: campaignReq(l, warmSeed(seed, i), atpgFaults, true)})
		}
	}
	return out
}

// populationReq is store_diagnose's fixed population entry p.
func populationReq(p int) service.CampaignRequest {
	label := storeCircuits[p%len(storeCircuits)]
	return campaignReq(label, storePopSeeds[p/len(storeCircuits)], storeFaults, false)
}

// populationOps are store_diagnose's set-up campaigns.
func populationOps() []op {
	out := make([]op, populationSize())
	for p := range out {
		out[p] = op{Index: -1, Label: storeCircuits[p%len(storeCircuits)], Req: populationReq(p), Pop: p, Populate: true}
	}
	return out
}

func populationSize() int { return len(storeCircuits) * len(storePopSeeds) }

// deployment is one running service instance and its directories.
type deployment struct {
	wl      string
	dir     string // durable store root (store_diagnose only)
	srv     *service.Server
	ts      *httptest.Server
	base    string
	client  *http.Client
	metrics map[string]float64 // /metrics counters summed over closed instances
}

func newDeployment(wl, dir string) *deployment {
	d := &deployment{wl: wl, dir: dir, metrics: map[string]float64{},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}}}
	d.start()
	return d
}

func (d *deployment) durable() bool { return d.wl == wlStore }

func (d *deployment) start() {
	cfg := service.ManagerConfig{Workers: clients}
	if d.durable() {
		cfg.ResultDir = filepath.Join(d.dir, "results")
		cfg.DictDir = filepath.Join(d.dir, "dicts")
	}
	d.srv = service.NewServer(cfg)
	d.ts = httptest.NewServer(d.srv.Handler())
	d.base = d.ts.URL
}

// stop folds the instance's counters into d.metrics, then closes the
// listener and the manager. Close waits for the workers, so every
// report a finished job owes the result store is written before a
// restart reopens the directories.
func (d *deployment) stop() {
	if snap, err := d.snapshot(); err == nil {
		for k, v := range snap {
			d.metrics[k] += v
		}
	}
	d.ts.Close()
	d.srv.Close()
	d.client.CloseIdleConnections()
}

func (d *deployment) restart() {
	d.stop()
	d.start()
}

// counter returns a /metrics counter summed over every instance so far.
func (d *deployment) counter(name string) float64 {
	v := d.metrics[name]
	if snap, err := d.snapshot(); err == nil {
		v += snap[name]
	}
	return v
}

// population is store_diagnose's stored campaigns: the reference report
// of each entry and its dictionary's detected faults.
type population struct {
	keys    []string
	reports []*service.CampaignReport
	targets [][]dict.Entry // detected entries, sorted by fault
}

// target picks the diagnose op's fault.
func (p *population) target(o op) (string, dict.Entry) {
	ents := p.targets[o.Pop]
	return p.keys[o.Pop], ents[o.Pick%len(ents)]
}

// loadTargets reads each population dictionary from disk.
func (p *population) loadTargets(dictDir string) error {
	st, err := dict.Open(dictDir)
	if err != nil {
		return err
	}
	p.targets = make([][]dict.Entry, len(p.keys))
	for i, k := range p.keys {
		d, err := st.Get(k)
		if err != nil {
			return fmt.Errorf("population dictionary %d: %w", i, err)
		}
		for _, e := range d.Entries {
			if e.Detected() {
				p.targets[i] = append(p.targets[i], e)
			}
		}
		if len(p.targets[i]) == 0 {
			return fmt.Errorf("population dictionary %d detects nothing", i)
		}
		sort.Slice(p.targets[i], func(a, b int) bool { return p.targets[i][a].Fault < p.targets[i][b].Fault })
	}
	return nil
}

func freshDir(root string) (string, error) {
	if err := os.RemoveAll(root); err != nil {
		return "", err
	}
	return root, os.MkdirAll(root, 0o755)
}
