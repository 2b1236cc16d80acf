package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPartitionTiles(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 4}, {7, 3}, {64, 8}, {65, 8}, {100, 7}, {5, 5}, {5, 0},
	} {
		rs := Partition(tc.n, tc.k)
		wantK := tc.k
		if wantK <= 0 {
			wantK = 1
		}
		if len(rs) != wantK {
			t.Fatalf("Partition(%d,%d) = %d ranges", tc.n, tc.k, len(rs))
		}
		at := 0
		for _, r := range rs {
			if r.Start != at || r.End < r.Start {
				t.Fatalf("Partition(%d,%d) = %v: not a tiling", tc.n, tc.k, rs)
			}
			at = r.End
		}
		if at != tc.n {
			t.Fatalf("Partition(%d,%d) covers %d", tc.n, tc.k, at)
		}
		// Balanced: sizes differ by at most one.
		min, max := tc.n+1, -1
		for _, r := range rs {
			if l := r.Len(); l < min {
				min = l
			}
			if l := r.Len(); l > max {
				max = l
			}
		}
		if max-min > 1 {
			t.Fatalf("Partition(%d,%d) = %v: unbalanced", tc.n, tc.k, rs)
		}
	}
}

func TestSubKeyStableAndDistinct(t *testing.T) {
	const ck = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	seen := map[string]string{}
	for _, total := range []int{1, 2, 4} {
		for i := 0; i < total; i++ {
			for _, cap := range []bool{false, true} {
				label := fmt.Sprintf("%d/%d cap=%t", i, total, cap)
				k := SubKey(ck, i, total, cap)
				if k != SubKey(ck, i, total, cap) {
					t.Fatalf("SubKey not deterministic for %s", label)
				}
				if prev, dup := seen[k]; dup {
					t.Fatalf("SubKey collision: %s and %s", prev, label)
				}
				seen[k] = label
				if len(k) != 64 {
					t.Fatalf("SubKey %s not 64 hex chars: %q", label, k)
				}
			}
		}
	}
	if SubKey(ck, 0, 2, false) == SubKey("b"+ck[1:], 0, 2, false) {
		t.Fatal("SubKey ignores the campaign key")
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	const ck = "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
	a := NewPlan(ck, 4, 10, 23, 7, true)
	b := NewPlan(ck, 4, 10, 23, 7, true)
	if len(a.Jobs) != 4 || len(b.Jobs) != 4 {
		t.Fatalf("plan sizes: %d, %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("plans differ at %d: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
	// Clamp: finer than the largest class collapses.
	p := NewPlan(ck, 100, 3, 5, 2, false)
	if p.Total != 5 {
		t.Fatalf("Total = %d, want clamp to 5", p.Total)
	}
	if got := NewPlan(ck, 0, 3, 5, 2, false).Total; got != 1 {
		t.Fatalf("k=0 Total = %d, want 1", got)
	}
}

func TestAutoShards(t *testing.T) {
	if k := AutoShards(39, 200); k != 1 {
		t.Fatalf("small campaign auto shards = %d, want 1", k)
	}
	if k := AutoShards(1000, 4000); k < 2 {
		t.Fatalf("mult16-scale campaign auto shards = %d, want >= 2", k)
	}
	if k := AutoShards(1_000_000, 10_000_000); k != MaxShards {
		t.Fatalf("huge campaign auto shards = %d, want MaxShards", k)
	}
	if k := AutoShards(0, 0); k != 1 {
		t.Fatalf("empty campaign auto shards = %d, want 1", k)
	}
}

func testJobs(n int) []SubJob {
	p := NewPlan("dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd", n, n*10, n*10, 0, false)
	return p.Jobs
}

func TestSchedulerRunsAll(t *testing.T) {
	jobs := testJobs(8)
	var ran atomic.Int64
	s := &Scheduler{Workers: 3}
	err := s.Run(context.Background(), jobs, func(ctx context.Context, j SubJob) error {
		ran.Add(1)
		return nil
	}, Events{})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("ran %d of 8", ran.Load())
	}
}

func TestSchedulerRetriesThenSucceeds(t *testing.T) {
	jobs := testJobs(4)
	var mu sync.Mutex
	tries := map[int]int{}
	var retried atomic.Int64
	s := &Scheduler{Workers: 2, Retries: 2}
	err := s.Run(context.Background(), jobs, func(ctx context.Context, j SubJob) error {
		mu.Lock()
		tries[j.Index]++
		n := tries[j.Index]
		mu.Unlock()
		if j.Index == 1 && n < 3 {
			return errors.New("transient")
		}
		return nil
	}, Events{Retried: func(SubJob, int, error) { retried.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if tries[1] != 3 {
		t.Fatalf("shard 1 attempted %d times, want 3", tries[1])
	}
	if retried.Load() != 2 {
		t.Fatalf("retried events = %d, want 2", retried.Load())
	}
}

func TestSchedulerQuarantinesButFinishesOthers(t *testing.T) {
	jobs := testJobs(6)
	var done atomic.Int64
	var quarantined atomic.Int64
	s := &Scheduler{Workers: 2, Retries: 1}
	err := s.Run(context.Background(), jobs, func(ctx context.Context, j SubJob) error {
		if j.Index == 2 {
			return errors.New("poisoned shard")
		}
		done.Add(1)
		return nil
	}, Events{Quarantined: func(SubJob, error) { quarantined.Add(1) }})
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want QuarantineError", err)
	}
	if len(qe.Failures) != 1 || qe.Failures[2] == nil {
		t.Fatalf("failures = %v", qe.Failures)
	}
	if done.Load() != 5 {
		t.Fatalf("healthy shards done = %d, want 5", done.Load())
	}
	if quarantined.Load() != 1 {
		t.Fatalf("quarantined events = %d, want 1", quarantined.Load())
	}
}

func TestSchedulerHonoursCancel(t *testing.T) {
	jobs := testJobs(16)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	s := &Scheduler{Workers: 1, Retries: 5}
	err := s.Run(ctx, jobs, func(ctx context.Context, j SubJob) error {
		if started.Add(1) == 2 {
			cancel()
		}
		return ctx.Err()
	}, Events{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n > 3 {
		t.Fatalf("started %d shards after cancel", n)
	}
}

func TestSchedulerDraining(t *testing.T) {
	jobs := testJobs(8)
	drain := make(chan struct{})
	var started atomic.Int64
	var finished atomic.Int64
	s := &Scheduler{Workers: 1, Draining: drain}
	err := s.Run(context.Background(), jobs, func(ctx context.Context, j SubJob) error {
		if started.Add(1) == 2 {
			close(drain)
		}
		finished.Add(1)
		return nil
	}, Events{})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	// In-flight shards finished; unstarted shards never began.
	if f := finished.Load(); f != started.Load() {
		t.Fatalf("finished %d of %d started", f, started.Load())
	}
	if started.Load() >= 8 {
		t.Fatal("drain did not abandon any shard")
	}
}
