package faultsim

import (
	"sync"

	"cpsinw/internal/core"
)

// Progress is a monotone snapshot of one running campaign stage. Done
// counts completed work units (faults for the stuck-at, transistor and
// two-pattern campaigns, bridges for bridge campaigns); Detected the
// units that ended in a detection; Dropped the faults skipped without
// simulation because their kind is out of scope for the stage (line
// faults handed to a transistor campaign and vice versa, analog-only
// kinds). GateEvals counts engine-native gate evaluations attributable
// to the stage so far — packed evaluations (each covering up to 64
// pattern lanes) for the packed engine and every stuck-at campaign,
// full hooked-map gate evaluations for the reference oracle — so rates
// are comparable within an engine, not across engines. Both engines
// include their good-circuit baseline passes.
type Progress struct {
	Stage     string
	Done      int
	Total     int
	Detected  int
	Dropped   int
	GateEvals uint64
}

// ProgressFunc receives campaign progress snapshots. Invocations are
// serialized by the simulator (even under RunTransistorParallel) and
// snapshots are monotone in every field; the callback must not call
// back into the simulator. A stage delivers a bounded number of
// snapshots, whatever its size: the total with Done == 0, then the
// good-circuit baseline evaluations (still Done == 0) where the stage
// evaluates a baseline, at most progressFrames as its drivers' batches
// fill, and one more per driver that stops with a partial batch. The
// last snapshot of a stage that runs to the end has Done == Total.
type ProgressFunc func(Progress)

// progressFrames bounds the batch snapshots of one stage: each driver
// hands its deltas to the sink once per step of ⌈total/progressFrames⌉
// units, so the sink's lock and the consumer run per batch, not per
// fault.
const progressFrames = 64

// progressSink folds concurrent per-batch deltas into monotone
// snapshots. The callback runs under the sink mutex: delivery order is
// total, and a slow consumer backpressures the reporting workers
// instead of reordering or dropping updates. A nil sink is inert, so
// drivers thread it unconditionally.
type progressSink struct {
	mu   sync.Mutex
	fn   ProgressFunc
	cur  Progress
	step int // units per batch
}

// progressSink builds the stage sink, emitting an initial zero-done
// snapshot so consumers learn the stage total before the first unit
// lands.
func (s *Simulator) progressSink(stage string, total int) *progressSink {
	if s.Progress == nil {
		return nil
	}
	ps := &progressSink{
		fn:   s.Progress,
		cur:  Progress{Stage: stage, Total: total},
		step: max(1, (total+progressFrames-1)/progressFrames),
	}
	ps.fn(ps.cur)
	return ps
}

// add folds one delta and delivers the resulting snapshot.
func (ps *progressSink) add(done, detected, dropped int, evals uint64) {
	if ps == nil {
		return
	}
	ps.mu.Lock()
	ps.cur.Done += done
	ps.cur.Detected += detected
	ps.cur.Dropped += dropped
	ps.cur.GateEvals += evals
	snap := ps.cur
	ps.fn(snap)
	ps.mu.Unlock()
}

// progressBatch is one driver's deltas not yet handed to its sink. It
// is driver-local, so adding a unit takes no lock; the driver flushes
// it when it stops, finished, canceled or failed. A batch on a nil sink
// is inert.
type progressBatch struct {
	sink                    *progressSink
	done, detected, dropped int
	evals                   uint64
}

// add folds one unit's delta and hands the batch to the sink once it
// holds a step of units.
func (b *progressBatch) add(detected, dropped int, evals uint64) {
	if b.sink == nil {
		return
	}
	b.done++
	b.detected += detected
	b.dropped += dropped
	b.evals += evals
	if b.done >= b.sink.step {
		b.flush()
	}
}

// flush hands a non-empty batch to the sink and empties it.
func (b *progressBatch) flush() {
	if b.done == 0 {
		return
	}
	b.sink.add(b.done, b.detected, b.dropped, b.evals)
	*b = progressBatch{sink: b.sink}
}

// transistorSimulable reports whether the transistor campaigns simulate
// this fault kind at all (the complement is counted as Dropped).
func transistorSimulable(f core.Fault) bool {
	if f.Kind.IsLineFault() {
		return false
	}
	_, ok := f.Kind.TFault()
	return ok
}
