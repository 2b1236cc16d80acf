// Command cpsinw-diagnose works with persistent fault-dictionary
// artifacts (.cpd files): build one from a circuit without a running
// server, inspect a stored artifact, and rank fault candidates against
// an observed tester response — the offline twin of the service's
// POST /v1/diagnose.
//
// Usage:
//
//	cpsinw-diagnose build   -dir store [-circuit name | < netlist.bench]
//	                        [-patterns n] [-seed n] [-engine packed|reference] [-iddq]
//	                        [-stuck-at] [-polarity] [-stuck-open] [-stuck-on]
//	cpsinw-diagnose inspect (-file art.cpd | -dir store -key hex)
//	cpsinw-diagnose match   (-file art.cpd | -dir store -key hex)
//	                        -fail 1,5,9 [-leak 2,3] [-top 5]
//
// build runs the same one-pass campaign the service runs: signatures
// are harvested from the simulation sweeps themselves, and the artifact
// key is the campaign's canonical content address, so a dictionary
// built here is byte-addressable by a cpsinw-serve instance pointed at
// the same -dict-dir (and vice versa).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"cpsinw/internal/dict"
	"cpsinw/internal/report"
	"cpsinw/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpsinw-diagnose: ")

	if len(os.Args) < 2 {
		log.Fatal("usage: cpsinw-diagnose {build|inspect|match} [flags] (see -h of each)")
	}
	switch os.Args[1] {
	case "build":
		runBuild(os.Args[2:])
	case "inspect":
		runInspect(os.Args[2:])
	case "match":
		runMatch(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q (want build, inspect or match)", os.Args[1])
	}
}

func runBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dir := fs.String("dir", "", "dictionary store directory (required)")
	circuit := fs.String("circuit", "", "built-in benchmark name (empty: read .bench from stdin)")
	patterns := fs.Int("patterns", 256, "random patterns (exhaustive when inputs <= 12)")
	seed := fs.Int64("seed", 1, "random pattern seed")
	engine := fs.String("engine", "", "fault-simulation engine: packed (default) or reference (the serial oracle)")
	stuckAt := fs.Bool("stuck-at", true, "include classical stuck-at faults")
	polarity := fs.Bool("polarity", true, "include polarity (SA-n/SA-p) faults")
	stuckOpen := fs.Bool("stuck-open", true, "include channel-break faults")
	stuckOn := fs.Bool("stuck-on", true, "include stuck-on faults")
	iddq := fs.Bool("iddq", false, "observe IDDQ (populates the leak plane)")
	fs.Parse(args)
	if *dir == "" {
		log.Fatal("build: -dir is required")
	}

	req := service.CampaignRequest{
		Benchmark: *circuit,
		Faults: service.FaultConfig{
			StuckAt: *stuckAt, Polarity: *polarity,
			StuckOpen: *stuckOpen, StuckOn: *stuckOn,
			IDDQ: *iddq,
		},
		Patterns: *patterns,
		Seed:     *seed,
		Engine:   *engine,
	}
	if *circuit == "" {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		req.Netlist = string(raw)
	}
	norm, c, err := req.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	store, err := dict.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}
	key := service.CanonicalKey(c, norm)
	rep, err := service.RunCampaignObserved(context.Background(), c, norm,
		&service.RunObserver{Dict: store, DictKey: key})
	if err != nil {
		log.Fatal(err)
	}
	if rep.Dictionary == nil {
		log.Fatal("campaign produced no dictionary (no capturable fault class enabled)")
	}
	m := rep.Dictionary
	fmt.Printf("built %s\n", store.Dir()+"/"+m.Key+dict.ArtifactExt)
	fmt.Printf("circuit %s: %d entries over %d patterns, %d bytes compressed\n",
		c.Name, m.Entries, m.Patterns, m.CompressedBytes)
	fmt.Printf("resolution: %d detected, %d signature classes, %d uniquely diagnosable\n",
		m.Detected, m.Classes, m.UniquelyDiagnosable)
}

// load resolves the artifact from either -file or -dir/-key.
func load(file, dir, key string) *dict.Dictionary {
	switch {
	case file != "" && (dir != "" || key != ""):
		log.Fatal("-file and -dir/-key are mutually exclusive")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		d, err := dict.Read(f)
		if err != nil {
			log.Fatalf("%s: %v", file, err)
		}
		return d
	case dir != "" && key != "":
		store, err := dict.Open(dir)
		if err != nil {
			log.Fatal(err)
		}
		d, err := store.Get(key)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}
	log.Fatal("need -file, or -dir and -key")
	return nil
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	file := fs.String("file", "", "artifact file (.cpd)")
	dir := fs.String("dir", "", "dictionary store directory")
	key := fs.String("key", "", "artifact key (64 hex digits)")
	escapes := fs.Bool("escapes", false, "also list undetected (undiagnosable) faults")
	fs.Parse(args)
	d := load(*file, *dir, *key)

	m := d.Meta
	t := report.Table{
		Title:   "fault dictionary " + m.Key[:12],
		Headers: []string{"field", "value"},
	}
	t.Add("circuit", m.Circuit)
	t.Add("created", m.CreatedAt)
	t.Add("engine", m.Engine)
	t.Add("patterns", m.Patterns)
	t.Add("seed", m.Seed)
	t.Add("iddq", m.IDDQ)
	t.Add("entries", m.Entries)
	t.Add("detected", m.Resolution.Detected)
	t.Add("signature classes", m.Resolution.Classes)
	t.Add("uniquely diagnosable", m.Resolution.UniquelyDiagnosable)
	fmt.Print(t.String())
	if *escapes {
		esc := d.Escapes()
		fmt.Printf("\nescapes (%d):\n", len(esc))
		for _, f := range esc {
			fmt.Printf("  %s\n", f)
		}
	}
}

func runMatch(args []string) {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	file := fs.String("file", "", "artifact file (.cpd)")
	dir := fs.String("dir", "", "dictionary store directory")
	key := fs.String("key", "", "artifact key (64 hex digits)")
	fail := fs.String("fail", "", "comma-separated failing pattern indices")
	leak := fs.String("leak", "", "comma-separated leaking (IDDQ) pattern indices")
	top := fs.Int("top", 5, "candidates to print")
	fs.Parse(args)
	d := load(*file, *dir, *key)

	failing := parseIndices("fail", *fail, d.Meta.Patterns)
	leaking := parseIndices("leak", *leak, d.Meta.Patterns)
	if len(failing) == 0 && len(leaking) == 0 {
		log.Fatal("match: at least one -fail or -leak index is required")
	}
	cands := d.Diagnose(dict.ObservationFrom(d.Meta.Patterns, failing, leaking), *top)
	if len(cands) == 0 {
		fmt.Println("no overlapping fault signatures (observation matches nothing in the dictionary)")
		return
	}
	t := report.Table{
		Title:   fmt.Sprintf("diagnosis: %d failing / %d leaking patterns", len(failing), len(leaking)),
		Headers: []string{"#", "fault", "class", "score", "overlap", "sig len", "exact"},
	}
	for i, cd := range cands {
		t.Add(i+1, cd.Fault, cd.Class, fmt.Sprintf("%.3f", cd.Score), cd.Intersection, cd.SignatureLen, cd.Exact)
	}
	fmt.Print(t.String())
}

// parseIndices parses a comma-separated index list, validating range.
func parseIndices(name, s string, nPatterns int) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	out := []int{}
	for _, tok := range strings.Split(s, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("-%s: bad index %q", name, tok)
		}
		if i < 0 || i >= nPatterns {
			log.Fatalf("-%s: index %d out of range (dictionary has %d patterns)", name, i, nPatterns)
		}
		out = append(out, i)
	}
	return out
}
