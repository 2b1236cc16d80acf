// Command cpsinw-timing runs static timing analysis on a gate-level
// circuit with analog-characterised CP cell delays, optionally injecting
// a delay-degrading defect, and generates transition (delay) fault tests.
//
// Usage:
//
//	cpsinw-timing [-circuit name | < netlist.bench] [-clock 500p]
//	              [-slow gate=factor] [-transition] [-engine packed|reference]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"cpsinw/internal/atpg"
	"cpsinw/internal/bench"
	"cpsinw/internal/circuit"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/logic"
	"cpsinw/internal/report"
	"cpsinw/internal/timing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpsinw-timing: ")

	circuitName := flag.String("circuit", "", "built-in benchmark name (empty: read .bench from stdin)")
	clock := flag.String("clock", "", "clock period for slack report (e.g. 500p)")
	slow := flag.String("slow", "", "inject delay degradation: gate=factor (e.g. fa0_c=3.5)")
	transition := flag.Bool("transition", false, "generate transition-fault tests")
	engineName := flag.String("engine", "packed", "transition-test simulation engine: packed or reference (the serial oracle)")
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

	opt := timing.Options{}
	if *slow != "" {
		parts := strings.SplitN(*slow, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -slow %q, want gate=factor", *slow)
		}
		f, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			log.Fatalf("bad factor in -slow: %v", err)
		}
		opt.DelayFactor = map[string]float64{parts[0]: f}
	}

	a, err := timing.Analyse(c, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("critical path delay: %s\n", report.FormatSI(a.Tmax))
	fmt.Printf("critical path: %s\n\n", strings.Join(a.CriticalPath, " -> "))

	t := report.Table{Title: "output arrivals", Headers: []string{"output", "arrival [s]", "slack"}}
	var period float64
	if *clock != "" {
		period, err = circuit.ParseValue(*clock)
		if err != nil {
			log.Fatalf("bad -clock: %v", err)
		}
	}
	for _, po := range c.Outputs {
		slack := "-"
		if period > 0 {
			slack = report.FormatSI(period - a.Arrival[po])
		}
		t.Add(po, a.Arrival[po], slack)
	}
	fmt.Print(t.String())
	if period > 0 {
		if v := a.Violations(c, period); len(v) > 0 {
			fmt.Printf("\nTIMING VIOLATIONS at %s: %s\n", report.FormatSI(period), strings.Join(v, ", "))
		} else {
			fmt.Printf("\ntiming met at %s\n", report.FormatSI(period))
		}
	}

	if *transition {
		tests, covered, total, err := timing.TransitionCampaign(c, atpg.Options{Engine: engine})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntransition faults: %d/%d covered with %d two-pattern tests\n",
			covered, total, len(tests))
	}
}
