package faultsim

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

func TestParallelMatchesSerial(t *testing.T) {
	c := bench.RippleCarryAdder(4)
	sim := New(c)
	faults := core.Universe(c, core.UniverseOptions{ChannelBreak: true, Polarity: true, StuckOn: true})
	pats := randomTestPatterns(c, 48)

	serial, err := sim.RunTransistor(faults, pats, true)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sim.RunTransistorParallel(context.Background(), faults, pats, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Method != parallel[i].Method || serial[i].Pattern != parallel[i].Pattern {
			t.Errorf("fault %v: serial %v@%d vs parallel %v@%d",
				faults[i], serial[i].Method, serial[i].Pattern,
				parallel[i].Method, parallel[i].Pattern)
		}
	}
}

func TestParallelSingleWorkerFallsBack(t *testing.T) {
	c := bench.FullAdderCP()
	sim := New(c)
	faults := core.Universe(c, core.UniverseOptions{Polarity: true})
	ds, err := sim.RunTransistorParallel(context.Background(), faults, ExhaustivePatterns(c), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cov := Summarise(ds); cov.Detected == 0 {
		t.Error("single-worker run detected nothing")
	}
}

func TestParallelMoreWorkersThanFaults(t *testing.T) {
	c := bench.FullAdderCP()
	sim := New(c)
	faults := core.Universe(c, core.UniverseOptions{Polarity: true})
	pats := ExhaustivePatterns(c)

	serial, err := sim.RunTransistor(faults, pats, true)
	if err != nil {
		t.Fatal(err)
	}
	// Far more workers than faults: the pool must clamp, not spawn idle
	// goroutines or deadlock on the unbuffered job channel.
	parallel, err := sim.RunTransistorParallel(context.Background(), faults, pats, true, 10*len(faults))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Method != parallel[i].Method || serial[i].Pattern != parallel[i].Pattern {
			t.Errorf("fault %v: serial %v@%d vs parallel %v@%d",
				faults[i], serial[i].Method, serial[i].Pattern,
				parallel[i].Method, parallel[i].Pattern)
		}
	}
}

func TestParallelEmptyFaultList(t *testing.T) {
	c := bench.FullAdderCP()
	sim := New(c)
	ds, err := sim.RunTransistorParallel(context.Background(), nil, ExhaustivePatterns(c), true, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("expected no detections, got %d", len(ds))
	}
}

func TestParallelCancelled(t *testing.T) {
	c := bench.RippleCarryAdder(4)
	sim := New(c)
	faults := core.Universe(c, core.UniverseOptions{ChannelBreak: true, Polarity: true, StuckOn: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunTransistorParallel(ctx, faults, randomTestPatterns(c, 48), true, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("expected context.Canceled, got %v", err)
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	c := bench.FullAdderCP()
	sim := New(c)
	bad := []core.Fault{
		{Kind: core.FaultChannelBreak, Gate: "nonexistent", Transistor: "t1"},
		{Kind: core.FaultChannelBreak, Gate: "nonexistent", Transistor: "t2"},
	}
	if _, err := sim.RunTransistorParallel(context.Background(), bad, ExhaustivePatterns(c), true, 4); err == nil {
		t.Error("unknown gate accepted")
	}
}

func randomTestPatterns(c *logic.Circuit, n int) []Pattern {
	rng := rand.New(rand.NewSource(7))
	out := make([]Pattern, n)
	for k := range out {
		p := Pattern{}
		for _, pi := range c.Inputs {
			p[pi] = logic.FromBool(rng.Intn(2) == 1)
		}
		out[k] = p
	}
	return out
}
