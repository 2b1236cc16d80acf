// Channel-break walkthrough: the paper's central result, end to end.
//
//  1. In static-polarity gates a nanowire break behaves as a classical
//     stuck-open fault: the output floats on some vectors and two-pattern
//     tests catch it.
//  2. In dynamic-polarity gates the redundant pass structure masks the
//     break completely — classical tests (including two-pattern) fail.
//  3. The paper's new procedure detects it anyway: deliberately complement
//     the polarity of the device under test (inject stuck-at n/p-type
//     through the accessible polarity terminals) and watch whether the
//     injected fault manifests. A fault-free-looking response reveals the
//     break.
package main

import (
	"fmt"
	"log"
	"strings"

	"cpsinw"
	"cpsinw/internal/atpg"
	"cpsinw/internal/core"
	"cpsinw/internal/faultsim"
	"cpsinw/internal/gates"
	"cpsinw/internal/logic"
)

func main() {
	log.SetFlags(0)

	// --- 1. SP gate: classical stuck-open behaviour. ---
	nand, err := cpsinw.ParseBench("nand", strings.NewReader(
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"))
	if err != nil {
		log.Fatal(err)
	}
	cb := core.Fault{Kind: core.FaultChannelBreak, Gate: nand.Gates[0].Name, Transistor: "t1"}
	tp, ok := atpg.GenerateTwoPattern(nand, cb, atpg.Options{})
	if !ok {
		log.Fatal("no two-pattern test for the NAND break")
	}
	fmt.Printf("NAND t1 channel break: two-pattern test %s -> %s\n",
		fmtPat(nand, tp.Init), fmtPat(nand, tp.Test))
	drops := faultsim.New(nand).PairDrops()
	drops.AddPair(tp.Init, tp.Test)
	fmt.Printf("  detected by simulation: %v\n\n", drops.Detects(cb))
	drops.Close()

	// --- 2. DP gate: the break is masked. ---
	xor, err := cpsinw.ParseBench("xor", strings.NewReader(
		"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n"))
	if err != nil {
		log.Fatal(err)
	}
	spec := gates.Get(gates.XOR2)
	fmt.Println("XOR2 channel breaks under exhaustive single- and two-pattern testing:")
	var cbs []core.Fault
	for _, tr := range spec.Transistors {
		cbs = append(cbs, core.Fault{Kind: core.FaultChannelBreak, Gate: xor.Gates[0].Name, Transistor: tr.Name})
	}
	patterns := faultsim.ExhaustivePatterns(xor)
	var pairs [][2]faultsim.Pattern
	for _, p1 := range patterns {
		for _, p2 := range patterns {
			pairs = append(pairs, [2]faultsim.Pattern{p1, p2})
		}
	}
	single, err := faultsim.New(xor).RunTransistor(cbs, patterns, true)
	if err != nil {
		log.Fatal(err)
	}
	two, err := faultsim.New(xor).RunTwoPattern(cbs, pairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  single-pattern coverage: %.0f%%, two-pattern coverage: %.0f%% (masked!)\n\n",
		faultsim.Summarise(single).Percent(), faultsim.Summarise(two).Percent())

	// --- 3. The paper's procedure. ---
	fmt.Println("the paper's channel-break procedure (section V-C):")
	for _, f := range cbs {
		plan, ok := atpg.GenerateChannelBreakDP(xor, f, atpg.Options{})
		if !ok {
			log.Fatalf("no plan for %v", f)
		}
		healthy, broken, err := atpg.VerifyChannelBreakPlan(xor, plan)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "separates healthy from broken"
		if !healthy || broken {
			verdict = "FAILS"
		}
		fmt.Printf("  %s: inject %v, apply %s, observe %s -> healthy shows fault: %v, broken looks clean: %v (%s)\n",
			f.Transistor, plan.Injection, fmtPat(xor, plan.Pattern), plan.Observe, healthy, !broken, verdict)
	}
}

func fmtPat(c *logic.Circuit, vec []logic.V) string {
	var b strings.Builder
	for i, pi := range c.Inputs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", pi, vec[i])
	}
	return b.String()
}
