package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cpsinw/internal/bench"
	"cpsinw/internal/core"
	"cpsinw/internal/logic"
)

// progressSweep is one sweep whose progress stream the batching tests
// read: its stage, its unit count, the drivers that batch its progress
// (the packed pool's workers, or one serial loop), the units no engine
// simulates, and the sum of its per-unit gate evaluations, read off
// the engine counters it moved.
type progressSweep struct {
	name    string
	c       *logic.Circuit
	stage   string
	units   int
	drivers int
	dropped int
	run     func(ctx context.Context, s *Simulator) ([]Detection, error)
	evals   func(before, after EngineStats) uint64
}

func packedEvals(before, after EngineStats) uint64 {
	return after.PackedGateEvals - before.PackedGateEvals
}

func referenceEvals(before, after EngineStats) uint64 {
	return after.ReferenceGateEvals - before.ReferenceGateEvals
}

// progressSweeps builds the batching tests' sweeps, each of more than
// 128 units so a batch holds several: a c499 transistor sweep at one,
// two and three workers, c499 stuck-at (with non-line faults, which are
// dropped), bridge and two-pattern sweeps (with stuck-on and polarity
// faults, which are dropped) on the packed engine, and the serial
// reference loops on mult3.
func progressSweeps(t *testing.T) []progressSweep {
	t.Helper()
	rng := rand.New(rand.NewSource(2801))
	c, err := bench.Get("c499")
	if err != nil {
		t.Fatal(err)
	}
	patterns := randomTestPatterns(c, 100)
	transistors := transistorUniverse(c)
	lines := mixedLineFaults(rng, c)
	bridges := core.NeighborBridges(c, 2)
	pairs := make([][2]Pattern, len(patterns)-1)
	for k := range pairs {
		pairs[k] = [2]Pattern{patterns[k], patterns[k+1]}
	}
	count := func(faults []core.Fault, dropped func(core.Fault) bool) int {
		n := 0
		for _, f := range faults {
			if dropped(f) {
				n++
			}
		}
		return n
	}
	notOpen := func(f core.Fault) bool { return f.Kind != core.FaultChannelBreak }

	var out []progressSweep
	for _, workers := range []int{1, 2, 3} {
		out = append(out, progressSweep{
			name: fmt.Sprintf("c499/transistor/%d", workers), c: c, stage: "transistor",
			units: len(transistors), drivers: workers,
			run: func(ctx context.Context, s *Simulator) ([]Detection, error) {
				volt, _, err := s.RunTransistorBoth(ctx, transistors, patterns, workers)
				return volt, err
			},
			evals: packedEvals,
		})
	}
	out = append(out,
		progressSweep{
			name: "c499/stuck_at", c: c, stage: "stuck_at", units: len(lines), drivers: 1,
			dropped: count(lines, func(f core.Fault) bool { return !f.Kind.IsLineFault() }),
			run: func(ctx context.Context, s *Simulator) ([]Detection, error) {
				return s.RunStuckAtContext(ctx, lines, patterns)
			},
			evals: packedEvals,
		},
		progressSweep{
			name: "c499/bridges", c: c, stage: "bridges", units: len(bridges), drivers: 1,
			run: func(ctx context.Context, s *Simulator) ([]Detection, error) {
				return s.RunBridgesObserved(ctx, bridges, patterns, false)
			},
			evals: packedEvals,
		},
		progressSweep{
			name: "c499/two_pattern", c: c, stage: "two_pattern", units: len(transistors), drivers: 1,
			dropped: count(transistors, notOpen),
			run: func(ctx context.Context, s *Simulator) ([]Detection, error) {
				return s.RunTwoPatternContext(ctx, transistors, pairs)
			},
			evals: packedEvals,
		},
	)

	m, err := bench.Get("mult3")
	if err != nil {
		t.Fatal(err)
	}
	mPatterns := randomTestPatterns(m, 4)
	mTransistors := transistorUniverse(m)
	mBridges := core.NeighborBridges(m, 4)
	mPairs := [][2]Pattern{{mPatterns[0], mPatterns[1]}, {mPatterns[2], mPatterns[3]}}
	reference := func(run func(ctx context.Context, s *Simulator) ([]Detection, error)) func(ctx context.Context, s *Simulator) ([]Detection, error) {
		return func(ctx context.Context, s *Simulator) ([]Detection, error) {
			s.Engine = EngineReference
			return run(ctx, s)
		}
	}
	return append(out,
		progressSweep{
			name: "mult3/reference/transistor", c: m, stage: "transistor", units: len(mTransistors), drivers: 1,
			run: reference(func(ctx context.Context, s *Simulator) ([]Detection, error) {
				return s.RunTransistorParallel(ctx, mTransistors, mPatterns, true, 3)
			}),
			evals: referenceEvals,
		},
		progressSweep{
			name: "mult3/reference/bridges", c: m, stage: "bridges", units: len(mBridges), drivers: 1,
			run: reference(func(ctx context.Context, s *Simulator) ([]Detection, error) {
				return s.RunBridgesObserved(ctx, mBridges, mPatterns, true)
			}),
			evals: referenceEvals,
		},
		progressSweep{
			name: "mult3/reference/two_pattern", c: m, stage: "two_pattern", units: len(mTransistors), drivers: 1,
			dropped: count(mTransistors, notOpen),
			run: reference(func(ctx context.Context, s *Simulator) ([]Detection, error) {
				return s.RunTwoPatternContext(ctx, mTransistors, mPairs)
			}),
			// Progress counts the good pass of each swept pair too: three
			// passes where the engine counter charges two.
			evals: func(before, after EngineStats) uint64 { return referenceEvals(before, after) / 2 * 3 },
		},
	)
}

// TestProgressFramesBatched: a sweep's drivers batch their per-unit
// progress, so each stage delivers a bounded number of snapshots
// whatever its size: the Done == 0 frames (the total, then the
// good-circuit baseline evaluations, which the reference two-pattern
// loop does not run), at most progressFrames batch frames, and one
// final partial batch per driver. The snapshots stay monotone, and the
// last one holds the per-unit sums: every unit done, the detections
// the sweep returned, the units no engine simulates dropped, and the
// gate evaluations the engine counters moved by, plus the baseline.
// The same sweep canceled at its first batch frame stops with the
// context's error, its last frame, the drivers' final partial batches
// included, below the stage total, and still agrees with the engine
// counters, which every driver publishes on every return path. Several
// pool workers flush into one sink; CI repeats this test under -race.
func TestProgressFramesBatched(t *testing.T) {
	for _, sw := range progressSweeps(t) {
		if sw.units <= 2*progressFrames {
			t.Fatalf("%s: %d units, want more than %d", sw.name, sw.units, 2*progressFrames)
		}
		s := New(sw.c)
		var frames []Progress
		s.Progress = func(p Progress) { frames = append(frames, p) }
		before := ReadEngineStats()
		ds, err := sw.run(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		after := ReadEngineStats()
		if len(frames) == 0 {
			t.Fatalf("%s: no progress frames", sw.name)
		}

		opening := 0
		for opening < len(frames) && frames[opening].Done == 0 {
			opening++
		}
		if opening < 1 || opening > 2 || frames[0] != (Progress{Stage: sw.stage, Total: sw.units}) {
			t.Fatalf("%s: %d opening frames, first %+v; want the 0/%d %s frame, then the baseline", sw.name, opening, frames[0], sw.units, sw.stage)
		}
		if batches := len(frames) - opening; batches > progressFrames+sw.drivers {
			t.Errorf("%s: %d frames after the opening ones, want at most %d + %d drivers", sw.name, batches, progressFrames, sw.drivers)
		}
		for i := 1; i < len(frames); i++ {
			p, q := frames[i-1], frames[i]
			if q.Stage != sw.stage || q.Total != sw.units || q.Done < p.Done || q.Detected < p.Detected ||
				q.Dropped < p.Dropped || q.GateEvals < p.GateEvals {
				t.Fatalf("%s: frame %d not monotone: %+v -> %+v", sw.name, i, p, q)
			}
		}
		want := Progress{
			Stage: sw.stage, Done: sw.units, Total: sw.units, Detected: Summarise(ds).Detected, Dropped: sw.dropped,
			GateEvals: frames[opening-1].GateEvals + sw.evals(before, after),
		}
		if last := frames[len(frames)-1]; last != want {
			t.Errorf("%s: last frame %+v, want %+v", sw.name, last, want)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var baseline uint64
		var last Progress
		s.Progress = func(p Progress) {
			if p.Done == 0 {
				baseline = p.GateEvals
			}
			last = p
			if p.Done > 0 {
				cancel()
			}
		}
		before = ReadEngineStats()
		_, err = sw.run(ctx, s)
		after = ReadEngineStats()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled sweep: err = %v, want context.Canceled", sw.name, err)
		}
		if last.Done == 0 || last.Done >= sw.units {
			t.Errorf("%s: canceled at %d/%d units, want mid-stage", sw.name, last.Done, sw.units)
		}
		if got, want := last.GateEvals-baseline, sw.evals(before, after); got != want {
			t.Errorf("%s: canceled sweep reported %d gate evals past the baseline, engine counters moved %d", sw.name, got, want)
		}
	}
}
