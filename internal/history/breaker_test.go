package history

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// breakerStore opens a journaled store over a fault-injectable backend
// whose breaker opens after threshold consecutive backend failures.
func breakerStore(t *testing.T, threshold int) (*Store, *FaultBackend) {
	t.Helper()
	var fb *FaultBackend
	st, err := OpenStoreDurable(t.TempDir(), DurableOptions{
		Create:           true,
		WAL:              true,
		BreakerThreshold: threshold,
		Wrap: func(b Backend) Backend {
			fb = NewFaultBackend(b, FaultConfig{Seed: 1})
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, fb
}

// TestStoreBreaker walks a single store's breaker: it opens at the
// threshold of consecutive backend failures, then writes fail fast with
// ErrDown without touching the journal or the backend while index reads
// keep serving, and only a Ping against a healed backend closes it.
func TestStoreBreaker(t *testing.T) {
	st, fb := breakerStore(t, 2)
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatal(err)
	}

	fb.SetConfig(FaultConfig{ErrRate: 1})
	if err := st.Save(sampleRecord("r2")); err == nil {
		t.Fatal("save through a failing backend succeeded")
	}
	if h := st.Health(); h.Down != 0 {
		t.Fatalf("breaker open after one failure: %+v", h)
	}
	if err := st.Save(sampleRecord("r2")); err == nil || errors.Is(err, ErrDown) {
		t.Fatalf("second failing save: err = %v, want a backend failure", err)
	}
	if h := st.Health(); h != (Health{Parts: 1, Down: 1, BreakerOpens: 1}) {
		t.Fatalf("health after threshold failures = %+v, want one open breaker", h)
	}

	// Open: every write fails fast, transient, with the journal and the
	// backend untouched.
	ops, appends := fb.Counters().Ops, st.WALStats().Appends
	writes := map[string]func() error{
		"save":   func() error { return st.Save(sampleRecord("r3")) },
		"batch":  func() error { _, err := st.PutBatch([]*RunRecord{sampleRecord("r3")}); return err },
		"delete": func() error { return st.Delete("poisson", "A", "r1") },
	}
	for name, write := range writes {
		err := write()
		if !errors.Is(err, ErrDown) || !IsTransient(err) {
			t.Errorf("%s with the breaker open: err = %v, want transient ErrDown", name, err)
		}
	}
	if got := fb.Counters().Ops; got != ops {
		t.Errorf("writes with the breaker open touched the backend: %d ops -> %d", ops, got)
	}
	if got := st.WALStats().Appends; got != appends {
		t.Errorf("writes with the breaker open touched the journal: %d appends -> %d", appends, got)
	}
	if rec, err := st.Load("poisson", "A", "r1"); err != nil || rec.RunID != "r1" {
		t.Errorf("indexed load with the breaker open = %v, %v", rec, err)
	}

	// A probe against the still-broken backend keeps it open.
	if err := st.Ping(); err == nil {
		t.Fatal("ping through a failing backend succeeded")
	}
	if h := st.Health(); h.Down != 1 {
		t.Fatalf("failed ping closed the breaker: %+v", h)
	}

	// The backend heals: writes still fail fast until a Ping closes it.
	fb.SetConfig(FaultConfig{})
	if err := st.Save(sampleRecord("r3")); !errors.Is(err, ErrDown) {
		t.Fatalf("save before the probe: err = %v, want ErrDown", err)
	}
	if err := st.Ping(); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
	if h := st.Health(); h.Down != 0 || h.BreakerOpens != 1 {
		t.Fatalf("health after a healthy ping = %+v, want closed", h)
	}
	if err := st.Save(sampleRecord("r3")); err != nil {
		t.Fatalf("save after the probe: %v", err)
	}
}

// TestStoreBreakerIgnoresMissesAndValidation proves only backend trouble
// counts: misses and invalid records never open even a threshold-1
// breaker.
func TestStoreBreakerIgnoresMissesAndValidation(t *testing.T) {
	st, _ := breakerStore(t, 1)
	if _, err := st.Load("poisson", "A", "absent"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("load of a missing record: err = %v, want os.ErrNotExist", err)
	}
	if err := st.Delete("poisson", "A", "absent"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("delete of a missing record: err = %v, want os.ErrNotExist", err)
	}
	bad := sampleRecord("r1")
	bad.TrueCount = 99
	if err := st.Save(bad); err == nil || IsBackendError(err) {
		t.Fatalf("invalid save: err = %v, want a validation error", err)
	}
	if _, err := st.PutBatch([]*RunRecord{bad}); err == nil || IsBackendError(err) {
		t.Fatalf("invalid batch: err = %v, want a validation error", err)
	}
	if h := st.Health(); h.Down != 0 || h.BreakerOpens != 0 {
		t.Fatalf("misses and validation errors opened the breaker: %+v", h)
	}
	if err := st.Save(sampleRecord("r1")); err != nil {
		t.Fatalf("save after misses: %v", err)
	}
}

// TestStoreBreakerConcurrentWriters proves the breaker opens exactly once
// when many writers fail at the same time, and that every write after
// the opening one is refused fast.
func TestStoreBreakerConcurrentWriters(t *testing.T) {
	st, fb := breakerStore(t, 3)
	fb.SetConfig(FaultConfig{ErrRate: 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := st.Save(sampleRecord(fmt.Sprintf("w%d-%d", w, i))); !IsTransient(err) {
					t.Errorf("save through a failing backend: err = %v, want transient", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if h := st.Health(); h != (Health{Parts: 1, Down: 1, BreakerOpens: 1}) {
		t.Fatalf("health after concurrent failures = %+v, want one open breaker opened once", h)
	}
	ops := fb.Counters().Ops
	if err := st.Save(sampleRecord("late")); !errors.Is(err, ErrDown) {
		t.Fatalf("save after the breaker opened: err = %v, want ErrDown", err)
	}
	if got := fb.Counters().Ops; got != ops {
		t.Errorf("refused save touched the backend: %d ops -> %d", ops, got)
	}
}
