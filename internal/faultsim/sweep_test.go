package faultsim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// randomBinaryPatterns draws fully specified patterns, the service's
// kind: every input 0 or 1.
func randomBinaryPatterns(rng *rand.Rand, c *logic.Circuit, n int) []Pattern {
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

// sweepRun is one campaign's answers and, under capture, its signature
// planes.
type sweepRun struct {
	out, volt []Detection
	sig       *SignatureCapture
}

// runClass runs one class on the sweep: the stuck-at class, or the
// transistor class in mode, with a fresh signature capture when capture
// is set.
func runClass(t *testing.T, sw *Sweep, stuckAt bool, faults []core.Fault, mode sweepMode, capture bool, workers int) sweepRun {
	t.Helper()
	var r sweepRun
	if capture {
		r.sig = NewSignatureCapture(len(faults), sw.set.Len())
		sw.s.Signatures = r.sig
		defer func() { sw.s.Signatures = nil }()
	}
	var err error
	if stuckAt {
		r.out, err = sw.RunStuckAt(context.Background(), faults)
	} else {
		r.out, r.volt, err = sw.runTransistor(context.Background(), faults, mode, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameRun requires got to equal want: answers and captured planes.
func sameRun(t *testing.T, label string, faults []core.Fault, want, got sweepRun) {
	t.Helper()
	sameDetections(t, label, faults, want.out, got.out)
	if (want.volt == nil) != (got.volt == nil) {
		t.Fatalf("%s: voltage answers %t, want %t", label, got.volt != nil, want.volt != nil)
	}
	if want.volt != nil {
		sameDetections(t, label+" (voltage)", faults, want.volt, got.volt)
	}
	if want.sig == nil {
		return
	}
	for i := range faults {
		if !wordsEqual(got.sig.Out(i), want.sig.Out(i)) || !wordsEqual(got.sig.Leak(i), want.sig.Leak(i)) {
			t.Errorf("%s: fault %v: captured out %x leak %x, want out %x leak %x",
				label, faults[i], got.sig.Out(i), got.sig.Leak(i), want.sig.Out(i), want.sig.Leak(i))
		}
	}
}

// TestSharedPackMatchesFreshSweeps is the shared pack's differential
// test. On the fixed suite, c432 and random circuits, over fully
// specified and X-laned sets of 64, 256 and 300 patterns, with capture
// on and off, at one, two and three workers, and with either class
// running first, the stuck-at and transistor campaigns of one Sweep
// must answer and capture exactly what each class answers on a fresh
// sweep pinned to each uniform width (1, 2 and 4). The transistor class
// cycles through its three modes with the worker count, so every mode
// reads masks the stuck-at class memoized and fills masks it reads. One
// simulator runs every shared sweep of a circuit, so packs come back
// from its pool with stale arrays and must still start with an empty
// memo.
func TestSharedPackMatchesFreshSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(3232))
	suite := bench.Suite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	slices.Sort(names)
	circuits := make([]*logic.Circuit, 0, len(names)+3)
	for _, name := range names {
		circuits = append(circuits, suite[name])
	}
	c432, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, c432, bench.Random(rng.Int63(), 6, 40), bench.Random(rng.Int63(), 9, 80))
	modes := []sweepMode{bothAnswers, voltageOnly, iddqOnly}
	for _, c := range circuits {
		saFaults := core.Universe(c, core.ClassicalOnly())
		trFaults := transistorUniverse(c)
		if testing.Short() && len(trFaults) > 400 {
			trFaults = subsample(rng, trFaults, 400)
		}
		shared := New(c)
		fresh := map[int]*Simulator{}
		for _, w := range []int{1, 2, 4} {
			fresh[w] = New(c)
			fresh[w].laneWords = w
		}
		for _, n := range []int{64, 256, 300} {
			for _, specified := range []bool{true, false} {
				pats := randomTernaryPatterns(rng, c, n)
				if specified {
					pats = randomBinaryPatterns(rng, c, n)
				}
				set := PatternSetOf(c, pats)
				if set.specified() != specified {
					t.Fatalf("%s/%d: specified() = %t, want %t", c.Name, n, set.specified(), specified)
				}
				for _, capture := range []bool{false, true} {
					// want[w] holds the fresh pinned answers: stuck-at, then
					// the transistor class in each mode.
					want := map[int][]sweepRun{}
					for w, s := range fresh {
						sa := s.NewSweep(set)
						runs := []sweepRun{runClass(t, sa, true, saFaults, voltageOnly, capture, 1)}
						sa.Close()
						for _, mode := range modes {
							tr := s.NewSweep(set)
							runs = append(runs, runClass(t, tr, false, trFaults, mode, capture, 1))
							tr.Close()
						}
						want[w] = runs
					}
					for workers := 1; workers <= 3; workers++ {
						mode := modes[workers-1]
						for _, stuckAtFirst := range []bool{true, false} {
							label := fmt.Sprintf("%s/%d specified=%t capture=%t workers=%d mode=%d stuck-at first=%t",
								c.Name, n, specified, capture, workers, mode, stuckAtFirst)
							sw := shared.NewSweep(set)
							var sa, tr sweepRun
							if stuckAtFirst {
								sa = runClass(t, sw, true, saFaults, voltageOnly, capture, 1)
								tr = runClass(t, sw, false, trFaults, mode, capture, workers)
							} else {
								tr = runClass(t, sw, false, trFaults, mode, capture, workers)
								sa = runClass(t, sw, true, saFaults, voltageOnly, capture, 1)
							}
							if specified && sw.packs[1] != nil {
								t.Errorf("%s: a fully specified set packed twice", label)
							}
							sw.Close()
							for _, w := range []int{1, 2, 4} {
								sameRun(t, fmt.Sprintf("%s: stuck-at vs fresh w%d", label, w), saFaults, want[w][0], sa)
								sameRun(t, fmt.Sprintf("%s: transistor vs fresh w%d", label, w), trFaults, want[w][1+workers-1], tr)
							}
						}
					}
				}
			}
		}
	}
}

// memoCosts returns, per chunk and net of a fresh pack in the sweep's
// layout, the packed evaluations computing that net's mask costs once
// every mask it derives from is memoized. A mask is computed once per
// pack whatever the order of the requests, so a campaign's mask
// evaluations are the sum of these costs over the entries it memoized.
func memoCosts(s *Simulator, sw *Sweep) [][]uint64 {
	cc := s.Compiled()
	p := s.packChunks(sw.set, s.laneWordsFor(sw.set.Len()), true, false)
	defer s.putPack(p)
	sc := s.packedScratchOf()
	defer s.putPackedScratch(sc)
	costs := make([][]uint64, len(p.bases))
	for ci := range p.bases {
		pb := &p.bases[ci]
		costs[ci] = make([]uint64, cc.NumNets())
		for net := range costs[ci] {
			clear(pb.seen)
			if r := cc.Reader[net]; r >= 0 {
				sc.observability(pb, cc.GateOut[r])
			}
			before := sc.evals
			sc.observability(pb, net)
			costs[ci][net] = sc.evals - before
		}
	}
	return costs
}

// memoized returns the chunks' memo entries a sweep's pack holds.
func memoized(sw *Sweep) [][]bool {
	var out [][]bool
	for _, pb := range sw.packs[0].bases {
		out = append(out, slices.Clone(pb.seen))
	}
	return out
}

// TestSharedPackCounts pins what the shared pack saves, in packed
// evaluations. On c432, c499, alu8 and mult8 with 256 random fully
// specified patterns (one pack, opening with a head chunk), a
// transistor sweep repeated on the same pack makes only its site
// evaluations: the fresh sweep's, minus every mask it computed. A
// transistor sweep after the stuck-at sweep makes exactly a fresh
// transistor sweep's evaluations, minus the masks the stuck-at sweep
// had already memoized, and the stuck-at sweep must have memoized some
// of them. The answers never change.
func TestSharedPackCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	ctx := context.Background()
	for _, name := range []string{"c432", "c499", "alu8", "mult8"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		s := New(c)
		set := PatternSetOf(c, randomBinaryPatterns(rng, c, 256))
		saFaults := core.Universe(c, core.ClassicalOnly())
		trFaults := transistorUniverse(c)
		evals := func(call func()) uint64 {
			before := ReadEngineStats().PackedGateEvals
			call()
			return ReadEngineStats().PackedGateEvals - before
		}
		transistor := func(sw *Sweep) []Detection {
			_, iq, err := sw.RunTransistorBoth(ctx, trFaults, 2)
			if err != nil {
				t.Fatal(err)
			}
			return iq
		}

		solo := s.NewSweep(set)
		var want, again []Detection
		fresh := evals(func() { want = transistor(solo) })
		memoT := memoized(solo)
		repeat := evals(func() { again = transistor(solo) })
		sameDetections(t, name+" repeated", trFaults, want, again)
		solo.Close()

		both := s.NewSweep(set)
		if _, err := both.RunStuckAt(ctx, saFaults); err != nil {
			t.Fatal(err)
		}
		memoSA := memoized(both)
		var after []Detection
		shared := evals(func() { after = transistor(both) })
		sameDetections(t, name+" after stuck-at", trFaults, want, after)
		both.Close()

		costs := memoCosts(s, solo)
		var masks, saved uint64
		for ci := range memoT {
			for net, seen := range memoT[ci] {
				if seen {
					masks += costs[ci][net]
					if memoSA[ci][net] {
						saved += costs[ci][net]
					}
				}
			}
		}
		if repeat != fresh-masks {
			t.Errorf("%s: repeated transistor sweep made %d packed evals, want %d (fresh %d minus %d for its masks)", name, repeat, fresh-masks, fresh, masks)
		}
		if shared != fresh-saved {
			t.Errorf("%s: transistor sweep after stuck-at made %d packed evals, want %d (fresh %d minus %d for masks stuck-at memoized)", name, shared, fresh-saved, fresh, saved)
		}
		if saved == 0 {
			t.Errorf("%s: the stuck-at sweep memoized no mask the transistor sweep reads", name)
		}
	}
}
