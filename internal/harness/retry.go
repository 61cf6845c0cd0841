package harness

import (
	"context"

	"repro/internal/history"
)

// RetryStats reports what one RunSessionsRetryWith call did beyond the
// first attempt.
type RetryStats struct {
	// Retried counts job re-runs (a job retried twice counts twice);
	// Recovered counts jobs that failed at least once and eventually
	// succeeded.
	Retried   int
	Recovered int
}

// TransientClassifier decides which job failures are worth re-running.
// The default (nil) classifier is history.IsTransient: injected faults
// and backend I/O trouble retry; everything else — bad configs, context
// expiry, missing records — is final.
type TransientClassifier func(error) bool

// SessionRunner is the signature of RunSessionsGated — the unit the
// retry wrapper re-invokes. The diagnosis service passes its own
// (test-replaceable) runner.
type SessionRunner func(ctx context.Context, jobs []SessionJob, workers int, gate Gate) ([]*SessionResult, error)

// RunSessionsRetryWith runs jobs through run (normally
// RunSessionsGated) with bounded re-execution of failed jobs: after each
// full pass, jobs that failed with a transient error are re-run (up to
// retries extra passes), and their results land in the same input-order
// slots. Determinism is preserved — a session is pure computation per
// seed, so a retried job that succeeds yields the identical result it
// would have produced without the fault.
//
// The returned error aggregates only the failures that survived every
// retry, with Index still referring to the original job slice.
func RunSessionsRetryWith(run SessionRunner, ctx context.Context, jobs []SessionJob, workers int, gate Gate, retries int, transient TransientClassifier) ([]*SessionResult, RetryStats, error) {
	if transient == nil {
		transient = history.IsTransient
	}
	var stats RetryStats
	results, err := run(ctx, jobs, workers, gate)
	for round := 0; round < retries && err != nil; round++ {
		sched, ok := asSchedulerError(err)
		if !ok {
			return results, stats, err
		}
		var redo []SessionJob
		var idx []int
		var final []*JobError
		for _, je := range sched.Jobs {
			if transient(je.Err) && ctx.Err() == nil {
				redo = append(redo, jobs[je.Index])
				idx = append(idx, je.Index)
			} else {
				final = append(final, je)
			}
		}
		if len(redo) == 0 {
			return results, stats, err
		}
		stats.Retried += len(redo)
		again, rerr := run(ctx, redo, workers, gate)
		var failed map[int]*JobError
		if rsched, ok := asSchedulerError(rerr); ok {
			failed = make(map[int]*JobError, len(rsched.Jobs))
			for _, je := range rsched.Jobs {
				failed[je.Index] = je
			}
		} else if rerr != nil {
			return results, stats, rerr
		}
		for j, orig := range idx {
			if je, bad := failed[j]; bad {
				final = append(final, &JobError{Index: orig, Err: je.Err})
				continue
			}
			results[orig] = again[j]
			stats.Recovered++
		}
		if len(final) == 0 {
			return results, stats, nil
		}
		sortJobErrors(final)
		err = &SchedulerError{Jobs: final}
	}
	return results, stats, err
}

// asSchedulerError unwraps err as a *SchedulerError without losing the
// original value.
func asSchedulerError(err error) (*SchedulerError, bool) {
	sched, ok := err.(*SchedulerError)
	return sched, ok
}

// sortJobErrors restores input order after retry rounds mix final and
// fresh failures.
func sortJobErrors(errs []*JobError) {
	for i := 1; i < len(errs); i++ {
		for j := i; j > 0 && errs[j-1].Index > errs[j].Index; j-- {
			errs[j-1], errs[j] = errs[j], errs[j-1]
		}
	}
}
