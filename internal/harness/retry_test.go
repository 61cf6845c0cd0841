package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
)

// flakyJob fails its first failures attempts with err, then succeeds
// with a result naming the job.
func flakyJob(id int, failures int, err error) SessionJob {
	var attempts atomic.Int64
	return stubJob(func() (*SessionResult, error) {
		if attempts.Add(1) <= int64(failures) {
			return nil, err
		}
		return &SessionResult{EndTime: float64(id)}, nil
	})
}

// TestRunSessionsRetryRecovers proves transient failures are re-run into
// their original input-order slots while clean jobs run exactly once.
func TestRunSessionsRetryRecovers(t *testing.T) {
	transient := &history.BackendError{Op: "put", Err: errors.New("disk hiccup")}
	jobs := []SessionJob{
		flakyJob(0, 0, nil),
		flakyJob(1, 2, transient),
		flakyJob(2, 0, nil),
		flakyJob(3, 1, transient),
	}
	results, stats, err := RunSessionsRetryWith(RunSessionsGated, context.Background(), jobs, 2, nil, 3, nil)
	if err != nil {
		t.Fatalf("RunSessionsRetryWith = %v, want full recovery", err)
	}
	for i := range jobs {
		if results[i] == nil || results[i].EndTime != float64(i) {
			t.Errorf("results[%d] = %+v, want job %d's result", i, results[i], i)
		}
	}
	if stats.Retried != 3 || stats.Recovered != 2 {
		t.Errorf("stats = %+v, want 3 retried / 2 recovered", stats)
	}
}

// TestRunSessionsRetryFinalErrors proves non-transient failures are
// never retried and survive with their original job index.
func TestRunSessionsRetryFinalErrors(t *testing.T) {
	fatal := errors.New("bad config")
	var fatalRuns atomic.Int64
	jobs := []SessionJob{
		flakyJob(0, 1, &history.BackendError{Op: "get", Err: errors.New("transient")}),
		stubJob(func() (*SessionResult, error) {
			fatalRuns.Add(1)
			return nil, fatal
		}),
	}
	results, stats, err := RunSessionsRetryWith(RunSessionsGated, context.Background(), jobs, 2, nil, 5, nil)
	var sched *SchedulerError
	if !errors.As(err, &sched) || len(sched.Jobs) != 1 {
		t.Fatalf("error = %v, want one surviving failure", err)
	}
	if sched.Jobs[0].Index != 1 || !errors.Is(sched.Jobs[0].Err, fatal) {
		t.Errorf("surviving failure = %+v, want job 1's fatal error", sched.Jobs[0])
	}
	if fatalRuns.Load() != 1 {
		t.Errorf("fatal job ran %d times, want 1", fatalRuns.Load())
	}
	if results[0] == nil || results[0].EndTime != 0 {
		t.Errorf("transient job did not recover: %+v", results[0])
	}
	if stats.Recovered != 1 {
		t.Errorf("stats = %+v, want 1 recovered", stats)
	}
}

// TestRunSessionsRetryExhausted proves a fault outlasting the budget is
// reported, with the retry count capped at the budget.
func TestRunSessionsRetryExhausted(t *testing.T) {
	transient := &history.BackendError{Op: "scan", Err: errors.New("still down")}
	jobs := []SessionJob{flakyJob(0, 100, transient)}
	results, stats, err := RunSessionsRetryWith(RunSessionsGated, context.Background(), jobs, 1, nil, 2, nil)
	var sched *SchedulerError
	if !errors.As(err, &sched) || len(sched.Jobs) != 1 || sched.Jobs[0].Index != 0 {
		t.Fatalf("error = %v, want job 0's surviving failure", err)
	}
	if results[0] != nil {
		t.Errorf("failed job left a result: %+v", results[0])
	}
	if stats.Retried != 2 || stats.Recovered != 0 {
		t.Errorf("stats = %+v, want 2 retried / 0 recovered", stats)
	}
}

// TestRunSessionsRetryHonorsContext proves a cancelled context stops
// retry rounds instead of burning the budget against a dead clock.
func TestRunSessionsRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	transient := &history.BackendError{Op: "put", Err: errors.New("transient")}
	var runs atomic.Int64
	jobs := []SessionJob{stubJob(func() (*SessionResult, error) {
		runs.Add(1)
		cancel()
		return nil, transient
	})}
	_, _, err := RunSessionsRetryWith(RunSessionsGated, ctx, jobs, 1, nil, 10, nil)
	if err == nil {
		t.Fatal("cancelled retry loop reported success")
	}
	if runs.Load() != 1 {
		t.Errorf("job ran %d times after cancellation, want 1", runs.Load())
	}
}

// TestRunSessionsRetryCustomClassifier proves the classifier decides
// what retries: here everything is transient, even a plain error.
func TestRunSessionsRetryCustomClassifier(t *testing.T) {
	jobs := []SessionJob{flakyJob(0, 1, errors.New("plain"))}
	results, _, err := RunSessionsRetryWith(RunSessionsGated, context.Background(), jobs, 1, nil, 1,
		func(error) bool { return true })
	if err != nil {
		t.Fatalf("RunSessionsRetryWith = %v, want recovery under always-transient classifier", err)
	}
	if results[0] == nil {
		t.Errorf("results[0] = %+v", results[0])
	}
}

// TestRunSessionsRetryOrderDeterminism proves retry rounds cannot
// reorder results: with per-job results keyed by index, the output
// slice matches input order however the rounds interleave.
func TestRunSessionsRetryOrderDeterminism(t *testing.T) {
	transient := &history.BackendError{Op: "put", Err: errors.New("flap")}
	const n = 16
	jobs := make([]SessionJob, n)
	for i := 0; i < n; i++ {
		jobs[i] = flakyJob(i, i%3, transient) // thirds: clean, 1 fail, 2 fails
	}
	results, _, err := RunSessionsRetryWith(RunSessionsGated, context.Background(), jobs, 4, nil, 3, nil)
	if err != nil {
		t.Fatalf("RunSessionsRetryWith = %v", err)
	}
	for i := range results {
		if results[i] == nil || results[i].EndTime != float64(i) {
			t.Errorf("results[%d] = %+v, want job %d's result", i, results[i], i)
		}
	}
}

// saturatedGate admits its first free acquires immediately, then
// reports saturation and parks every later acquire until the caller's
// context dies — a deterministic stand-in for a gate another scheduler
// has filled.
type saturatedGate struct {
	free      int64
	acquires  atomic.Int64
	once      sync.Once
	saturated chan struct{}
}

func (g *saturatedGate) Acquire(ctx context.Context) error {
	if g.acquires.Add(1) <= g.free {
		return nil
	}
	g.once.Do(func() { close(g.saturated) })
	<-ctx.Done()
	return ctx.Err()
}

func (g *saturatedGate) Release() {}

// TestRunSessionsRetryCancelledWhileGateSaturated cancels a retry round
// that is parked behind a saturated gate: the call must return promptly
// with the context error on the parked job, leak no goroutines, and
// keep the first pass's successes spliced into their input-order slots.
func TestRunSessionsRetryCancelledWhileGateSaturated(t *testing.T) {
	transient := &history.BackendError{Op: "put", Err: errors.New("flap")}
	jobs := []SessionJob{
		flakyJob(0, 0, nil),
		flakyJob(1, 1, transient), // would recover, but its retry never gets a slot
		flakyJob(2, 0, nil),
	}
	// The first pass gets a slot per job; the retry round's single
	// acquire parks.
	gate := &saturatedGate{free: int64(len(jobs)), saturated: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-gate.saturated
		cancel()
	}()
	baseline := runtime.NumGoroutine()

	type outcome struct {
		results []*SessionResult
		stats   RetryStats
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, stats, err := RunSessionsRetryWith(RunSessionsGated, ctx, jobs, len(jobs), gate, 3, nil)
		done <- outcome{results, stats, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunSessionsRetryWith still parked 10s after cancellation")
	}

	var sched *SchedulerError
	if !errors.As(got.err, &sched) || len(sched.Jobs) != 1 {
		t.Fatalf("error = %v, want one surviving failure", got.err)
	}
	if sched.Jobs[0].Index != 1 || !errors.Is(sched.Jobs[0].Err, context.Canceled) {
		t.Errorf("surviving failure = %+v, want job 1 with context.Canceled", sched.Jobs[0])
	}
	for _, i := range []int{0, 2} {
		if got.results[i] == nil || got.results[i].EndTime != float64(i) {
			t.Errorf("results[%d] = %+v, want job %d's first-pass result", i, got.results[i], i)
		}
	}
	if got.results[1] != nil {
		t.Errorf("cancelled job left a result: %+v", got.results[1])
	}
	if got.stats.Retried != 1 || got.stats.Recovered != 0 {
		t.Errorf("stats = %+v, want 1 retried / 0 recovered", got.stats)
	}

	// No leaked goroutines: the scheduler's workers and the cancel
	// helper must all have drained once the call returned.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
