package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/replica"
)

// getStats fetches and decodes /statsz over HTTP — through the counted
// middleware, like a real client, so the request observes itself in the
// in-flight gauge.
func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatszOpCountersAndInFlight proves the request instrumentation:
// every endpoint hit moves its cumulative op counter, and the in-flight
// gauge tracks concurrently served requests.
func TestStatszOpCountersAndInFlight(t *testing.T) {
	release := make(chan struct{})
	srv := newLifecycleServer(Options{Sessions: 2}, release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := getStats(t, ts.URL)
	// The /statsz request reporting the gauge is itself in flight.
	if st.InFlight != 1 {
		t.Errorf("idle InFlight = %d, want 1 (the statsz request itself)", st.InFlight)
	}
	if st.OpCounts["statsz"] != 1 {
		t.Errorf("op_counts[statsz] = %d, want 1", st.OpCounts["statsz"])
	}

	// Drive a few endpoints and require their counters to move.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rec := &history.RunRecord{App: "statsz-app", RunID: "r1"}
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put run: status %d", resp.StatusCode)
	}

	st = getStats(t, ts.URL)
	want := map[string]uint64{"healthz": 2, "runs": 1, "put_run": 1, "statsz": 2}
	for op, n := range want {
		if st.OpCounts[op] != n {
			t.Errorf("op_counts[%s] = %d, want %d", op, st.OpCounts[op], n)
		}
	}
	if st.OpCounts["diagnose"] != 0 {
		t.Errorf("op_counts[diagnose] = %d before any diagnose", st.OpCounts["diagnose"])
	}

	// A request blocked in its handler holds the gauge up: park a
	// diagnose on the lifecycle seam and read the gauge past it.
	done := make(chan error, 1)
	go func() {
		resp, err := postDiagnose(t, ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "diagnosis in flight", func() bool { return srv.stats().ActiveDiagnoses == 1 })
	st = getStats(t, ts.URL)
	if st.InFlight < 2 {
		t.Errorf("InFlight = %d with a blocked diagnose, want >= 2", st.InFlight)
	}
	if st.OpCounts["diagnose"] != 1 {
		t.Errorf("op_counts[diagnose] = %d, want 1", st.OpCounts["diagnose"])
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// With everything drained, the gauge falls back to just the reader.
	waitFor(t, "requests to retire", func() bool { return getStats(t, ts.URL).InFlight == 1 })
}

// TestStatszCoversEveryRoute is the catch-all for request
// instrumentation: every route the server registers must surface in
// /statsz op_counts, and one request to each pattern — well-formed or
// not, the middleware counts either way — must move exactly its own
// counter. A new endpoint registered outside handle() (and so invisible
// to /statsz) fails the enumeration below.
func TestStatszCoversEveryRoute(t *testing.T) {
	srv := New(harness.NewEnv(nil), Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if len(srv.routeTable) < 16 {
		t.Fatalf("route table has %d entries; registration moved off handle()?", len(srv.routeTable))
	}
	st := getStats(t, ts.URL)
	for _, rt := range srv.routeTable {
		if _, ok := st.OpCounts[rt.Op]; !ok {
			t.Errorf("route %q: op %q missing from /statsz op_counts", rt.Pattern, rt.Op)
		}
	}

	// Drive every pattern once with an empty body: handlers answer 400
	// or 404, but the counted middleware sees the request regardless.
	for _, rt := range srv.routeTable {
		method, path, ok := strings.Cut(rt.Pattern, " ")
		if !ok {
			t.Fatalf("route pattern %q has no method", rt.Pattern)
		}
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	after := getStats(t, ts.URL)
	for _, rt := range srv.routeTable {
		want := uint64(1)
		if rt.Op == "statsz" {
			want = 3 // the two enumeration reads plus the driven request
		}
		if got := after.OpCounts[rt.Op]; got != want {
			t.Errorf("op_counts[%s] = %d after one %s, want %d", rt.Op, got, rt.Pattern, want)
		}
	}
}

// TestStatszReplicationCounters proves the failover gauges the runbook
// leans on actually move: a primary serving a live follower exports its
// journal epoch, a finite lease age once the follower's first pull
// lands, a quorum-release counter that advances with every gated write,
// and a fencing-reject counter that advances when a newer-epoch rival
// shows up on the wire.
func TestStatszReplicationCounters(t *testing.T) {
	pst, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := replica.NewPrimary(pst, 1)
	if err != nil {
		t.Fatal(err)
	}
	prim.SetQuorum(1)
	prim.SetLeaseTTL(2 * time.Second)
	srv := New(harness.NewEnv(replica.Gate(pst, prim)), Options{
		Sessions:    1,
		Replication: &replica.Node{Primary: prim, Advertise: "http://primary.test"},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := getStats(t, ts.URL)
	if st.Replication == nil {
		t.Fatal("statsz has no replication block on a primary")
	}
	if st.Replication.Epoch == 0 {
		t.Errorf("replication.epoch = 0, want the journal epoch")
	}
	if st.Replication.AckQuorum != 1 {
		t.Errorf("replication.ack_quorum = %d, want 1", st.Replication.AckQuorum)
	}
	if st.Replication.LeaseAgeMS != -1 {
		t.Errorf("replication.lease_age_ms = %d before any pull, want -1", st.Replication.LeaseAgeMS)
	}

	fst, err := history.OpenStoreDurable(t.TempDir(), history.DurableOptions{Create: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	fol, err := replica.NewFollower(ts.URL, "http://follower.test", fst)
	if err != nil {
		t.Fatal(err)
	}
	fol.Start()
	defer fol.Stop()

	// The follower's pulls double as heartbeats: the lease age turns
	// finite, and a gated write now releases through the ack quorum.
	waitFor(t, "first heartbeat", func() bool {
		s := getStats(t, ts.URL)
		return s.Replication != nil && s.Replication.LeaseAgeMS >= 0
	})
	rec := &history.RunRecord{App: "statsz-app", Version: "V", RunID: "r1"}
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated put: status %d", resp.StatusCode)
	}
	st = getStats(t, ts.URL)
	if st.Replication.QuorumAcks == 0 {
		t.Errorf("replication.quorum_acks = 0 after a gated write, want > 0")
	}
	if st.Replication.FencingRejects != 0 {
		t.Errorf("replication.fencing_rejects = %d before any stale traffic", st.Replication.FencingRejects)
	}

	// A puller arriving with a higher epoch is a newer primary's
	// follower: the pull is refused with 409 and the reject counter
	// moves. (This also fences the primary, so it runs last.)
	resp, err = http.Get(ts.URL + "/api/v1/replica/wal?shard=0&epoch=999&from=0&id=http://rival.test")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("newer-epoch pull: status %d, want 409", resp.StatusCode)
	}
	st = getStats(t, ts.URL)
	if st.Replication.FencingRejects == 0 {
		t.Errorf("replication.fencing_rejects = 0 after a newer-epoch pull, want > 0")
	}
}

// TestStatszShardGauges proves /statsz exports one gauge set per shard
// of a sharded store — record count, degraded flag, last recovery
// outcome — and that the gauges move: a write bumps exactly its home
// shard's count, and a shard whose backend dies reports degraded.
func TestStatszShardGauges(t *testing.T) {
	srv, faults := shardedFaultServer(t, Options{Sessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := getStats(t, ts.URL)
	if len(st.Shards) != 4 {
		t.Fatalf("statsz shards = %d entries, want 4", len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Shard != i || sh.Records != 0 || sh.Degraded {
			t.Errorf("fresh shard gauge %d = %+v", i, sh)
		}
		if sh.LastRecovery != "clean" {
			t.Errorf("fresh shard %d last recovery = %q, want clean", i, sh.LastRecovery)
		}
	}

	// A write moves exactly its home shard's record count.
	home := history.ShardForKey("poisson", "A", 4)
	h := srv.Handler()
	if resp := putPoisson(t, h, "A", "r1", 0.5); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d", resp.StatusCode)
	}
	st = getStats(t, ts.URL)
	for i, sh := range st.Shards {
		want := 0
		if i == home {
			want = 1
		}
		if sh.Records != want {
			t.Errorf("shard %d records = %d after one put to shard %d, want %d", i, sh.Records, home, want)
		}
	}

	// A dying shard flips its degraded gauge; the others stay healthy.
	faults[home].SetConfig(history.FaultConfig{ErrRate: 1})
	for i := 0; i < 2; i++ {
		putPoisson(t, h, "A", "r2", 0.5)
	}
	st = getStats(t, ts.URL)
	for i, sh := range st.Shards {
		if got, want := sh.Degraded, i == home; got != want {
			t.Errorf("shard %d degraded = %v, want %v", i, got, want)
		}
	}
}
