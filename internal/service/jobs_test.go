package service

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"testing"
	"time"

	"cpsinw/internal/logic"
)

// withFakeRunner swaps the worker execution function for the test and
// restores it afterwards (observer-less form; use withObservedRunner
// when the fake needs to emit progress).
func withFakeRunner(t *testing.T, fn func(context.Context, *logic.Circuit, CampaignRequest) (*CampaignReport, error)) {
	t.Helper()
	withObservedRunner(t, func(ctx context.Context, c *logic.Circuit, req CampaignRequest, _ *RunObserver) (*CampaignReport, error) {
		return fn(ctx, c, req)
	})
}

// withObservedRunner swaps the worker execution function, observer
// included, and restores it afterwards; the fake ignores the shard
// options.
func withObservedRunner(t *testing.T, fn func(context.Context, *logic.Circuit, CampaignRequest, *RunObserver) (*CampaignReport, error)) {
	t.Helper()
	old := runCampaign
	runCampaign = func(ctx context.Context, p *preparedCircuit, req CampaignRequest, _ ShardedOptions, ro *RunObserver) (*CampaignReport, error) {
		return fn(ctx, p.c, req, ro)
	}
	t.Cleanup(func() { runCampaign = old })
}

func waitTerminal(t *testing.T, job *Job) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := job.Status()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state (last: %s)", job.ID, job.Status().State)
	return JobStatus{}
}

// TestNilLoggerDiscards: a manager configured without a logger writes
// its lifecycle lines nowhere, not to slog's default logger (stderr).
func TestNilLoggerDiscards(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer slog.SetDefault(prev)

	m := NewManager(ManagerConfig{Workers: 1})
	j, err := m.Submit(CampaignRequest{Benchmark: "c17", Faults: FaultConfig{StuckAt: true}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("campaign %s: %s", st.State, st.Error)
	}
	m.Close()
	if buf.Len() != 0 {
		t.Fatalf("a manager without a logger wrote:\n%s", buf.String())
	}
}

func TestManagerQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &CampaignReport{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	defer m.Close()

	// Distinct fault configs keep the submissions cache-independent.
	submit := func(cfg FaultConfig) (*Job, error) {
		return m.Submit(CampaignRequest{Netlist: c17Bench, Faults: cfg})
	}
	j1, err := submit(FaultConfig{StuckAt: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker now owns j1
	j2, err := submit(FaultConfig{Polarity: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(FaultConfig{StuckOn: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: got %v, want ErrQueueFull", err)
	}

	close(release)
	if st := waitTerminal(t, j1); st.State != StateDone {
		t.Errorf("j1 = %s (%s), want done", st.State, st.Error)
	}
	if st := waitTerminal(t, j2); st.State != StateDone {
		t.Errorf("j2 = %s (%s), want done", st.State, st.Error)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Errorf("queue depth = %d after drain", d)
	}
}

func TestManagerPerJobDeadline(t *testing.T) {
	withFakeRunner(t, func(ctx context.Context, _ *logic.Circuit, _ CampaignRequest) (*CampaignReport, error) {
		<-ctx.Done() // honour the deadline like the real campaign does
		return nil, ctx.Err()
	})

	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()

	job, err := m.Submit(CampaignRequest{
		Netlist:   c17Bench,
		Faults:    FaultConfig{StuckAt: true},
		TimeoutMS: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateCanceled {
		t.Errorf("state = %s (%s), want canceled", st.State, st.Error)
	}
	if m.Metrics().Canceled.Value() != 1 {
		t.Errorf("canceled counter = %d, want 1", m.Metrics().Canceled.Value())
	}
}

func TestManagerValidation(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	defer m.Close()

	cases := []CampaignRequest{
		{}, // no circuit
		{Netlist: c17Bench, Benchmark: "c17", Faults: FaultConfig{StuckAt: true}}, // both
		{Netlist: c17Bench}, // no fault class
		{Benchmark: "nope", Faults: FaultConfig{StuckAt: true}},      // unknown benchmark
		{Netlist: "x = FROB(a)", Faults: FaultConfig{StuckAt: true}}, // parse error
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
	if n := m.Metrics().Submitted.Value(); n != 0 {
		t.Errorf("rejected submissions counted: %d", n)
	}
}
