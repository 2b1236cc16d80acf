// Command cpsinw-faultsim runs fault simulation campaigns on a gate-level
// circuit (.bench format on stdin or a built-in benchmark by name): the
// classical stuck-at model, the paper's CP transistor faults with and
// without IDDQ observation, and the Table III exhaustive polarity study
// when the circuit is a single XOR2.
//
// Usage:
//
//	cpsinw-faultsim [-circuit name | < netlist.bench] [-patterns n] [-engine packed|reference]
//	cpsinw-faultsim [-shards k] [-result-dir path]   k-shard campaign with durable report and shard reuse
//	cpsinw-faultsim -tableiii
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"

	"cpsinw/internal/bench"
	"cpsinw/internal/experiments"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/resultstore"
	"cpsinw/internal/service"
	"cpsinw/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpsinw-faultsim: ")

	circuitName := flag.String("circuit", "", "built-in benchmark name (empty: read .bench from stdin)")
	patterns := flag.Int("patterns", 256, "random patterns (exhaustive when inputs <= 12)")
	tableIII := flag.Bool("tableiii", false, "run the paper's Table III polarity study on the XOR2 and exit")
	seed := flag.Int64("seed", 1, "random pattern seed (non-zero)")
	engineName := flag.String("engine", "packed", "fault-simulation engine: packed or reference (the serial oracle)")
	list := flag.Bool("list", false, "list built-in benchmarks and exit")
	shards := flag.Int("shards", 1, "split the campaign into k fault-range shards merged bit-identically (0: auto-size; 1: one shard with every worker)")
	resultDir := flag.String("result-dir", "", "durable result store; completed campaigns and shards are reused across runs (empty disables)")
	flag.Parse()

	if _, err := faultsim.ParseEngine(*engineName); err != nil {
		log.Fatal(err)
	}
	if *seed == 0 {
		// A campaign request reads seed 0 as "unset" and runs seed 1.
		log.Fatal("-seed must be non-zero")
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		fmt.Println("# ISCAS-scale reconstructions (internal/bench/testdata/iscas):")
		for _, n := range bench.ISCASNames() {
			fmt.Println(n)
		}
		fmt.Println("# parameterized families (any size):")
		for _, f := range bench.Families() {
			fmt.Println(f)
		}
		return
	}
	if *tableIII {
		r, err := experiments.TableIII(true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(r.Report())
		return
	}

	var c *logic.Circuit
	var netlistSrc string
	if *circuitName != "" {
		var err error
		c, err = bench.Get(*circuitName)
		if err != nil {
			log.Fatalf("%v (use -list)", err)
		}
	} else {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		netlistSrc = string(raw)
		c, err = logic.ParseBench("stdin", strings.NewReader(netlistSrc))
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("circuit: %s  %s\n\n", c.Name, c.Statistics())

	req := service.CampaignRequest{
		Benchmark: *circuitName,
		Netlist:   netlistSrc,
		Faults: service.FaultConfig{
			StuckAt: true, Polarity: true, StuckOpen: true, StuckOn: true, IDDQ: true,
		},
		Patterns: *patterns,
		Seed:     *seed,
		Engine:   *engineName,
		Shards:   *shards,
	}
	norm, _, err := req.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	opt := service.ShardedOptions{Key: service.CanonicalKey(c, norm), Shards: norm.Shards}
	var scheduled, hits atomic.Int64 // callbacks fire on scheduler goroutines
	opt.Events = shard.Events{Scheduled: func(shard.SubJob) { scheduled.Add(1) }}
	opt.OnCacheHit = func(shard.SubJob) { hits.Add(1) }
	// A campaign already in the result store is answered from its
	// report at any shard count, with no simulation, under the rule the
	// service serves stored reports by; the report, its undetected
	// index and its universe's names persist as the service writes them.
	var rep *service.CampaignReport
	if *resultDir != "" {
		if opt.Store, err = resultstore.Open(*resultDir); err != nil {
			log.Fatal(err)
		}
		rep, _ = service.LoadReport(opt.Store, opt.Key)
	}
	fromStore := rep != nil
	if !fromStore {
		if rep, err = service.RunCampaignSharded(context.Background(), c, norm, opt, nil); err != nil {
			log.Fatal(err)
		}
		if opt.Store != nil {
			if err := service.PersistReport(opt.Store, opt.Key, rep); err != nil {
				log.Printf("report not persisted: %v", err)
			}
		}
	}

	if *shards != 1 || *resultDir != "" {
		for _, t := range rep.Tables {
			fmt.Print(t.String())
			fmt.Println()
		}
		if fromStore {
			fmt.Printf("campaign %s: answered from the result store, no simulation\n", opt.Key[:12])
		} else {
			fmt.Printf("campaign %s: %d shards (%d reused from store), %d ms\n",
				opt.Key[:12], scheduled.Load(), hits.Load(), rep.ElapsedMS)
		}
		return
	}
	fmt.Print(rep.Tables[0].String())
	if undetected := rep.TransistorIDDQ.UndetectedNames(); len(undetected) > 0 {
		fmt.Printf("\nundetected CP faults (%d):\n", len(undetected))
		for i, f := range undetected {
			if i == 20 {
				fmt.Printf("  ... and %d more\n", len(undetected)-20)
				break
			}
			fmt.Printf("  %s\n", f)
		}
	}
}
