// Command cpsinw-atpg generates tests for a gate-level circuit under the
// extended controllable-polarity fault model: PODEM for stuck-at faults,
// polarity-fault tests with the IDDQ fallback, two-pattern stuck-open
// tests for static-polarity gates and the paper's channel-break procedure
// for dynamic-polarity gates.
//
// Usage:
//
//	cpsinw-atpg [-circuit name | < netlist.bench] [-classical] [-engine packed|reference] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpsinw-atpg: ")

	circuitName := flag.String("circuit", "", "built-in benchmark name (empty: read .bench from stdin)")
	classical := flag.Bool("classical", false, "target only classical line stuck-at faults")
	engineName := flag.String("engine", "packed", "fault-dropping simulation engine: packed or reference (the serial oracle)")
	verbose := flag.Bool("v", false, "print every generated vector")
	flag.Parse()

	engine, err := faultsim.ParseEngine(*engineName)
	if err != nil {
		log.Fatal(err)
	}

	var c *logic.Circuit
	if *circuitName != "" {
		var err error
		c, err = bench.Get(*circuitName)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var err error
		c, err = logic.ParseBench("stdin", os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("circuit: %s  %s\n\n", c.Name, c.Statistics())

	opts := core.UniverseOptions{LineStuckAt: true, ChannelBreak: true, Polarity: true}
	if *classical {
		opts = core.ClassicalOnly()
	}
	universe := core.Universe(c, opts)
	res := atpg.Generate(c, universe, atpg.Options{Engine: engine})

	t := report.Table{
		Title:   "ATPG results",
		Headers: []string{"fault class", "targeted", "covered"},
	}
	t.Add("line stuck-at", res.StuckAtTargeted, res.StuckAtCovered)
	t.Add("stuck-at n/p-type (polarity)", res.PolarityTargeted, res.PolarityCovered)
	t.Add("channel break (SP, two-pattern)", res.CBSPTargeted, res.CBSPCovered)
	t.Add("channel break (DP, new procedure)", res.CBDPTargeted, res.CBDPCovered)
	fmt.Print(t.String())
	fmt.Printf("\noverall coverage: %.1f%%\n", res.Coverage())
	fmt.Printf("test vectors: %d combinational, %d IDDQ, %d two-pattern pairs, %d channel-break plans\n",
		len(res.Set.Patterns), len(res.Set.IDDQPatterns), len(res.Set.TwoPattern), len(res.Set.CBPlans))
	if len(res.Untestable) > 0 {
		fmt.Printf("untestable faults (%d):\n", len(res.Untestable))
		for i, f := range res.Untestable {
			if i == 20 {
				fmt.Printf("  ... and %d more\n", len(res.Untestable)-20)
				break
			}
			fmt.Printf("  %v\n", f)
		}
	}

	if *verbose {
		fmt.Println("\ncombinational patterns:")
		for i, p := range res.Set.Patterns {
			fmt.Printf("  %3d: %s\n", i, formatPattern(p))
		}
		fmt.Println("IDDQ patterns:")
		for i, p := range res.Set.IDDQPatterns {
			fmt.Printf("  %3d: %s\n", i, formatPattern(p))
		}
		fmt.Println("two-pattern tests:")
		for i, tp := range res.Set.TwoPattern {
			fmt.Printf("  %3d: %v: %s -> %s\n", i, tp.Fault, formatPattern(tp.Init), formatPattern(tp.Test))
		}
		fmt.Println("channel-break plans:")
		for i, plan := range res.Set.CBPlans {
			fmt.Printf("  %3d: %v: inject %v, apply %s, observe %s\n",
				i, plan.Fault, plan.Injection, formatPattern(plan.Pattern), plan.Observe)
		}
	}
}

// formatPattern renders a test vector, one character per primary input
// in input order.
func formatPattern(vec []logic.V) string {
	var b strings.Builder
	for _, v := range vec {
		b.WriteString(v.String())
	}
	return b.String()
}
