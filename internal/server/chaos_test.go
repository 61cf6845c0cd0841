package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/server"
)

// chaosSeed fixes the fault schedule of the soak test; CI runs with the
// same seed, so a failure here reproduces everywhere.
const chaosSeed = 13

// soakClient returns a resilient client tuned for test time scales.
func soakClient(url string) *client.Client {
	c := client.New(url)
	c.Retry = client.RetryPolicy{Retries: 8, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	c.Breaker = client.BreakerPolicy{Threshold: 5, Cooldown: 2 * time.Millisecond}
	return c
}

// eventually retries op while it fails with ErrUnavailable — the
// typed 503 the client never retries on its own for writes. Each pass
// pokes /healthz so a degraded server gets its recovery probe.
func eventually(t *testing.T, cl *client.Client, what string, op func() error) {
	t.Helper()
	for i := 0; i < 500; i++ {
		err := op()
		if err == nil {
			return
		}
		if !errors.Is(err, client.ErrUnavailable) {
			t.Fatalf("%s: non-transient failure: %v", what, err)
		}
		cl.Health(context.Background())
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: still unavailable after bounded retries", what)
}

// runSoakWorkload drives the full client→server→store pipeline — puts,
// diagnoses with save, queries — and returns a canonical byte digest of
// every result that must not depend on injected faults.
// phase, when non-nil, is told when the storm segment begins ("storm")
// and ends ("calm") so the faulty run can crank the injector up
// mid-workload; the baseline passes nil.
func runSoakWorkload(t *testing.T, cl *client.Client, seeds []*harness.SessionResult, phase func(string)) []byte {
	t.Helper()
	ctx := context.Background()
	var digest bytes.Buffer

	// Fan each seed result out into several stored runs, so the store
	// sees a realistic stream of writes (and the injector plenty of
	// chances to bite).
	for _, res := range seeds {
		for i := 0; i < 8; i++ {
			rec := *res.Record
			rec.RunID = fmt.Sprintf("%s-%d", res.Record.RunID, i)
			eventually(t, cl, "put "+rec.RunID, func() error {
				_, err := cl.PutRun(ctx, &rec)
				return err
			})
		}
	}
	// Retire one run per seed again — deletes are writes too.
	for _, res := range seeds {
		ref := res.Record.Version + ":" + res.Record.RunID + "-3"
		eventually(t, cl, "delete "+ref, func() error {
			return cl.DeleteRun(ctx, res.Record.App, ref)
		})
	}

	// A storm segment: the faulty run raises the fault rate enough to
	// trip the store's breaker, so these writes ride the whole
	// degradation ladder — 503s, rejected writes, probe-based recovery.
	if phase != nil {
		phase("storm")
	}
	for _, res := range seeds {
		for i := 0; i < 3; i++ {
			rec := *res.Record
			rec.RunID = fmt.Sprintf("%s-storm%d", res.Record.RunID, i)
			eventually(t, cl, "storm put "+rec.RunID, func() error {
				_, err := cl.PutRun(ctx, &rec)
				return err
			})
		}
	}
	if phase != nil {
		phase("calm")
	}

	// Diagnosis sessions are deterministic per seed, so a re-submitted
	// session after a 503 produces the identical response.
	for _, seed := range []int64{101, 202, 303} {
		var resp *server.DiagnoseResponse
		eventually(t, cl, "diagnose", func() error {
			var err error
			resp, err = cl.Diagnose(ctx, &server.DiagnoseRequest{
				App: "poisson", Version: "B", RunID: "chaos", Seed: seed, Save: true,
			})
			return err
		})
		digest.Write(canon(t, resp))
	}

	runs, err := cl.ListRuns(ctx, "poisson", "")
	if err != nil {
		t.Fatalf("ListRuns: %v", err)
	}
	digest.Write(canon(t, runs))
	qr, err := cl.QueryRaw(ctx, client.QueryParams{App: "poisson", State: "true"})
	if err != nil {
		t.Fatalf("QueryRaw: %v", err)
	}
	digest.Write(qr)
	pr, err := cl.Persistent(ctx, "poisson", "", 2)
	if err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	digest.Write(canon(t, pr))
	return digest.Bytes()
}

// TestChaosSoak is the capstone: the same workload runs against a
// fault-free daemon and against one whose filesystem backend injects a
// seeded 10% fault mix (errors and torn writes), and the final
// bottleneck and query output must be byte-identical. The resilience
// ladder — client retries, typed 503s, degraded mode with probe-based
// recovery, session retries — is what closes the gap.
func TestChaosSoak(t *testing.T) {
	cfgA := harness.DefaultSessionConfig()
	cfgA.RunID = "base"
	resA := runSession(t, "poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000}, cfgA)
	resB := runSession(t, "poisson", "B", app.Options{NodeOffset: 5, PidBase: 4100}, cfgA)
	seeds := []*harness.SessionResult{resA, resB}

	opts := server.Options{
		Sessions:        2,
		BreakerCooldown: time.Millisecond,
		SessionRetries:  2,
	}

	// Fault-free baseline.
	stGood, err := history.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tsGood := httptest.NewServer(server.New(harness.NewEnv(stGood), opts).Handler())
	defer tsGood.Close()
	want := runSoakWorkload(t, soakClient(tsGood.URL), seeds, nil)

	// The same workload with 10% injected faults on every backend op.
	var fb *history.FaultBackend
	stBad, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{
		Create:           true,
		BreakerThreshold: 3,
		Wrap: func(b history.Backend) history.Backend {
			fb = history.NewFaultBackend(b, history.FaultConfig{Seed: chaosSeed})
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fb.SetConfig(history.FaultConfig{Seed: chaosSeed, ErrRate: 0.1, TornWriteRate: 0.03})
	srvBad := server.New(harness.NewEnv(stBad), opts)
	tsBad := httptest.NewServer(srvBad.Handler())
	defer tsBad.Close()
	clBad := soakClient(tsBad.URL)
	got := runSoakWorkload(t, clBad, seeds, func(p string) {
		if p == "storm" {
			fb.SetConfig(history.FaultConfig{Seed: chaosSeed, ErrRate: 0.6, TornWriteRate: 0.05})
			return
		}
		fb.SetConfig(history.FaultConfig{Seed: chaosSeed, ErrRate: 0.1, TornWriteRate: 0.03})
	})

	if !bytes.Equal(got, want) {
		t.Errorf("soak output diverged under faults:\n got: %s\nwant: %s", got, want)
	}

	// The run must actually have been chaotic: the injector fired and
	// the server observed backend trouble.
	fc := fb.Counters()
	if fc.Injected == 0 || fc.TornWrites == 0 {
		t.Errorf("fault injector never fired: %+v (workload too small or seed too kind)", fc)
	}
	stats, err := clBad.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendFaults == 0 {
		t.Errorf("server observed no backend faults: %+v", stats)
	}
	// The storm must have walked the whole ladder: degraded transitions,
	// refused writes, recovery probes — and ended healthy.
	if stats.BreakerOpens == 0 || stats.WritesRejected == 0 || stats.BackendProbes == 0 {
		t.Errorf("degradation ladder not exercised: %+v", stats)
	}
	if stats.Degraded {
		t.Errorf("server still degraded after the workload: %+v", stats)
	}
	t.Logf("chaos: injector %+v; server faults=%d rejected=%d opens=%d probes=%d sessionRetries=%d; client %+v",
		fc, stats.BackendFaults, stats.WritesRejected, stats.BreakerOpens,
		stats.BackendProbes, stats.SessionRetries, clBad.CounterSnapshot())
}

// TestChaosOutageRecovery is the acceptance walk at the wire level: a
// total backend outage flips /healthz to "degraded" and writes to typed
// 503s with a Retry-After; when the backend heals, the health probe
// returns the daemon to "ok" with no restart, and writes flow again.
func TestChaosOutageRecovery(t *testing.T) {
	cfg := harness.DefaultSessionConfig()
	cfg.RunID = "base"
	res := runSession(t, "poisson", "A", app.Options{NodeOffset: 1, PidBase: 4000}, cfg)

	var fb *history.FaultBackend
	st, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{
		Create:           true,
		BreakerThreshold: 1,
		Wrap: func(b history.Backend) history.Backend {
			fb = history.NewFaultBackend(b, history.FaultConfig{Seed: 1})
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(harness.NewEnv(st), server.Options{
		Sessions: 1, BreakerCooldown: time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	cl := client.New(ts.URL)
	if _, err := cl.PutRun(ctx, res.Record); err != nil {
		t.Fatalf("pre-outage put: %v", err)
	}

	// Total outage: the write fails, is typed, and carries Retry-After.
	fb.SetConfig(history.FaultConfig{ErrRate: 1})
	_, err = cl.PutRun(ctx, res.Record)
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("outage put error = %v, want ErrUnavailable", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.RetryAfter <= 0 {
		t.Fatalf("outage put error %v carries no Retry-After", err)
	}

	// The daemon is degraded but still answers reads.
	if status, err := cl.Health(ctx); err != nil || status != "degraded" {
		t.Fatalf("health during outage = %q, %v, want degraded", status, err)
	}
	if runs, err := cl.ListRuns(ctx, "poisson", ""); err != nil || len(runs) != 1 {
		t.Fatalf("degraded reads broken: %v, %v", runs, err)
	}

	// Heal the backend; health probes bring the daemon back without a
	// restart.
	fb.SetConfig(history.FaultConfig{})
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, err := cl.Health(ctx)
		if err == nil && status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered: status %q, %v", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := cl.PutRun(ctx, res.Record); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
}
