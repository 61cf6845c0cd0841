package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/history"
	"repro/internal/replica"
	"repro/internal/server"
)

func record(version, runID string) *history.RunRecord {
	return &history.RunRecord{
		App: "poisson", Version: version, RunID: runID,
		TrueCount: 1,
		Results: []history.NodeResult{{
			Hyp: "ExcessiveSyncWaitingTime", Focus: "proc:p1", State: "true", Value: 0.4,
		}},
	}
}

// start runs Start and registers Stop as cleanup; Stop is idempotent,
// so a test may also stop the node itself.
func start(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop() })
	return n
}

// getJSON fetches base+path, requires 200, and decodes the body into v.
func getJSON(t *testing.T, base, path string, v any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// waitFor polls cond until it holds or d lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", d, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fsckClean requires the offline verifier to grade dir clean.
func fsckClean(t *testing.T, dir string) {
	t.Helper()
	rep, err := history.FsckStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if sev := rep.Severity(); sev != 0 {
		t.Errorf("fsck %s: severity %d: %+v", dir, sev, rep)
	}
}

// TestFollowerServesFullRouteTable starts a sharded primary and its
// follower in-process. The follower is a whole daemon: it answers
// health, stats with its replication block, the replica handshake, and
// reads of records written to the primary. Stop leaves both stores
// clean.
func TestFollowerServesFullRouteTable(t *testing.T) {
	root := t.TempDir()
	primDir, folDir := filepath.Join(root, "prim"), filepath.Join(root, "fol")
	prim := start(t, Config{Store: primDir, Create: true, Shards: 2, WAL: true, Replicas: 1})
	fol := start(t, Config{Store: folDir, Create: true, WAL: true, Follow: prim.URL})

	ctx := context.Background()
	if _, err := client.New(prim.URL).PutRun(ctx, record("A", "r1")); err != nil {
		t.Fatal(err)
	}
	fc := client.New(fol.URL)
	waitFor(t, 10*time.Second, "the record to reach the follower", func() bool {
		rec, err := fc.GetRun(ctx, "poisson", "A:r1")
		return err == nil && rec.RunID == "r1"
	})

	if status, err := fc.Health(ctx); err != nil || status != "ok" {
		t.Errorf("follower /healthz = %q, %v; want ok", status, err)
	}
	stats, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || stats.Replication.Role != "follower" {
		t.Errorf("follower /statsz replication block = %+v, want role follower", stats.Replication)
	}
	var info replica.InfoResponse
	getJSON(t, fol.URL, "/api/v1/replica/info", &info)
	if info.Role != "follower" || info.Shards != 2 {
		t.Errorf("follower info = %+v, want a 2-shard follower (the primary's layout)", info)
	}
	// Public writes stay the primary's.
	if _, err := fc.PutRun(ctx, record("A", "r2")); err == nil {
		t.Error("unpromoted follower accepted a public write")
	}

	if err := fol.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := prim.Stop(); err != nil {
		t.Fatal(err)
	}
	fsckClean(t, primDir)
	fsckClean(t, folDir)
}

// keyOn returns a version whose ("poisson", version) key routes to
// shard of n.
func keyOn(shard, n int) string {
	for i := 0; ; i++ {
		if v := fmt.Sprintf("v%d", i); history.ShardForKey("poisson", v, n) == shard {
			return v
		}
	}
}

// TestDetectorHandsDeadShardOver: under auto-failover without -promote,
// the primary's detector hands a dead shard's keyspace to the follower,
// and the follower holding that shard does not fence the primary: its
// other shard stays writable.
func TestDetectorHandsDeadShardOver(t *testing.T) {
	root := t.TempDir()
	primDir, folDir := filepath.Join(root, "prim"), filepath.Join(root, "fol")
	faults := make([]*history.FaultBackend, 2)
	prim := start(t, Config{
		Store: primDir, Create: true, Shards: 2, WAL: true, Replicas: 1,
		AutoFailover: true, LeaseTTL: 300 * time.Millisecond,
		// A short probe cadence, so /healthz keeps probing the dead
		// shard's store within the test.
		Server: server.Options{BreakerCooldown: 100 * time.Millisecond},
		WrapShard: func(shard int, b history.Backend) history.Backend {
			faults[shard] = history.NewFaultBackend(b, history.FaultConfig{})
			return faults[shard]
		},
	})
	start(t, Config{Store: folDir, Create: true, WAL: true, Follow: prim.URL})

	ctx := context.Background()
	pc := client.New(prim.URL)
	live, dead := keyOn(0, 2), keyOn(1, 2)
	for _, v := range []string{live, dead} {
		if _, err := pc.PutRun(ctx, record(v, "before")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the follower to attach", func() bool {
		s, err := pc.Stats(ctx)
		return err == nil && s.Replication != nil && s.Replication.QuorumAcks > 0
	})

	faults[1].SetConfig(history.FaultConfig{ErrRate: 1})
	i := 0
	waitFor(t, 15*time.Second, "the dead shard's keyspace to take writes again", func() bool {
		i++
		pc.Health(ctx) // the health checker's traffic drives the recovery probe
		_, err := pc.PutRun(ctx, record(dead, fmt.Sprintf("after-%d", i)))
		return err == nil
	})
	// Give the detector a few probe rounds against the follower that now
	// claims the handed-over shard's epoch.
	time.Sleep(3 * 300 * time.Millisecond)
	if _, err := pc.PutRun(ctx, record(live, "after")); err != nil {
		t.Fatalf("live shard refused a write after the handover: %v", err)
	}
	if rec, err := pc.GetRun(ctx, "poisson", dead+":before"); err != nil || rec.RunID != "before" {
		t.Fatalf("pre-kill record on the dead shard: %v", err)
	}
}

// TestStartRejectsConflictingRoles: a node is a primary or a follower,
// replication needs the journal, and the role alone sets the server's
// replication hooks.
func TestStartRejectsConflictingRoles(t *testing.T) {
	dir := t.TempDir()
	for _, cfg := range []Config{
		{},
		{Store: dir, Create: true, WAL: true, Replicas: 1, Follow: "http://127.0.0.1:1"},
		{Store: dir, Create: true, Replicas: 1},
		{Store: dir, Create: true, WAL: true, AutoFailover: true},
		{Store: dir, Create: true, WAL: true, Server: server.Options{Replication: &replica.Node{}}},
		{Store: dir, Create: true, WAL: true, Server: server.Options{WriteGate: func(string, string) error { return nil }}},
	} {
		if n, err := Start(cfg); err == nil {
			n.Stop()
			t.Errorf("Start(%+v) succeeded, want an error", cfg)
		}
	}
}

// TestBreakerThresholdReachesStore: -breaker-threshold configures the
// store's breaker, so with a threshold of 1 the first failed write opens
// it and /statsz reports the whole store degraded.
func TestBreakerThresholdReachesStore(t *testing.T) {
	var fb *history.FaultBackend
	n := start(t, Config{
		Store: t.TempDir(), Create: true, WAL: true, BreakerThreshold: 1,
		Wrap: func(b history.Backend) history.Backend {
			fb = history.NewFaultBackend(b, history.FaultConfig{})
			return fb
		},
	})
	ctx := context.Background()
	c := client.New(n.URL)
	fb.SetConfig(history.FaultConfig{ErrRate: 1})
	if _, err := c.PutRun(ctx, record("A", "r1")); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("put through a failing backend: err = %v, want ErrUnavailable", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded || stats.BreakerOpens != 1 {
		t.Errorf("after one failed write: degraded = %v, breaker_opens = %d; want true, 1",
			stats.Degraded, stats.BreakerOpens)
	}
}
