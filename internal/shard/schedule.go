package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrDraining is returned by Scheduler.Run when the drain signal fired
// before every sub-job started: the in-flight shards were allowed to
// finish (their results persist for partial reuse) and the unstarted
// remainder was abandoned. The campaign is resumable, not failed.
var ErrDraining = errors.New("shard: draining, unstarted sub-jobs abandoned")

// QuarantineError reports the sub-jobs that exhausted their retry
// budget. The scheduler keeps running the healthy shards to completion
// first, so everything that could be cached was cached.
type QuarantineError struct {
	// Failures maps shard index to the last attempt's error.
	Failures map[int]error
}

func (e *QuarantineError) Error() string {
	idx := make([]int, 0, len(e.Failures))
	for i := range e.Failures {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	parts := make([]string, 0, len(idx))
	for _, i := range idx {
		parts = append(parts, fmt.Sprintf("shard %d: %v", i, e.Failures[i]))
	}
	return fmt.Sprintf("shard: %d sub-job(s) quarantined: %s", len(idx), strings.Join(parts, "; "))
}

// Events receives scheduler lifecycle callbacks; every field is
// optional. Callbacks run on scheduler goroutines and must not block.
type Events struct {
	// Scheduled fires once per sub-job dispatched for execution (cache
	// hits resolved by the attempt function itself still count: the
	// scheduler cannot tell, and the distinction is the caller's).
	Scheduled func(SubJob)
	// Retried fires before each re-attempt with the attempt number
	// (2 for the first retry) and the error that caused it.
	Retried func(j SubJob, attempt int, err error)
	// Quarantined fires when a sub-job exhausts its retries.
	Quarantined func(j SubJob, err error)
}

// Scheduler runs a plan's sub-jobs across a bounded worker pool with
// bounded retry and failure quarantine. The parent context bounds every
// attempt.
type Scheduler struct {
	// Workers bounds concurrently running sub-jobs (default: all).
	Workers int
	// Retries is the number of re-attempts after a failed first attempt
	// (default 0: fail fast into quarantine).
	Retries int
	// Draining, when closed, stops new sub-jobs from starting; in-flight
	// attempts run to completion and Run returns ErrDraining.
	Draining <-chan struct{}
}

// draining reports whether the drain signal has fired.
func (s *Scheduler) draining() bool {
	select {
	case <-s.Draining:
		return true
	default:
		return false
	}
}

// Run executes every sub-job via attempt. It returns nil when all
// succeed; ctx.Err() when the parent context ends; ErrDraining when the
// drain signal abandoned unstarted sub-jobs; a *QuarantineError when
// some sub-jobs failed past their retry budget (after the healthy ones
// finished). Attempt must be safe for concurrent calls.
func (s *Scheduler) Run(ctx context.Context, jobs []SubJob, attempt func(context.Context, SubJob) error, ev Events) error {
	workers := s.Workers
	if workers <= 0 || workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 0 {
		return nil
	}

	var (
		mu        sync.Mutex
		failures  = map[int]error{}
		abandoned bool
	)
	next := make(chan SubJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				err := s.runOne(ctx, j, attempt, ev)
				if err == nil {
					continue
				}
				if ctx.Err() != nil {
					continue // cancellation is reported once, below
				}
				if ev.Quarantined != nil {
					ev.Quarantined(j, err)
				}
				mu.Lock()
				failures[j.Index] = err
				mu.Unlock()
			}
		}()
	}

feed:
	for _, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		if s.Draining != nil && s.draining() {
			abandoned = true
			break feed
		}
		select {
		case next <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	if abandoned {
		return ErrDraining
	}
	if len(failures) > 0 {
		return &QuarantineError{Failures: failures}
	}
	return nil
}

// runOne drives one sub-job through its attempts.
func (s *Scheduler) runOne(ctx context.Context, j SubJob, attempt func(context.Context, SubJob) error, ev Events) error {
	if ev.Scheduled != nil {
		ev.Scheduled(j)
	}
	var err error
	for try := 1; try <= 1+s.Retries; try++ {
		if try > 1 && ev.Retried != nil {
			ev.Retried(j, try, err)
		}
		err = attempt(ctx, j)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The parent ended: the failure is cancellation, not the
			// shard's; never burn retries on it.
			return ctx.Err()
		}
	}
	return err
}
