package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/loadgen"
	"repro/internal/replica"
	"repro/internal/server"
)

// clients is the number of concurrent closed-loop clients: one per CPU
// of the 2-vCPU machines the benchmark was tuned on, in one generator
// process.
const clients = 2

// opTimeout bounds one request; no request of a healthy run comes near.
const opTimeout = 30 * time.Second

// serveSpec is one pcd serving workload. The store holds a fixed set of
// records: keys read keys, which reads target, and as many write keys,
// which writes overwrite and reads never target, as loadgen's reads
// never target its put records. The store's size, and with it the cost
// of reads and the daemon's memory, stays the same for the whole run
// instead of growing with throughput. Keeping writes off the read keys
// also keeps pcd's harvest cache, which is keyed by record pointer and
// never evicts, from holding every old generation of a harvested key.
type serveSpec struct {
	name     string
	shards   int     // 0: a single store
	walSync  string  // pcd -wal-sync
	follower bool    // run one pcd -follow follower; the primary gates writes on it
	keys     int     // read keys; the store holds 2*keys records
	zipfS    float64 // Zipf skew s of the keys; 0 means uniform
	mix      []weight
	// maxRate sizes the op stream generated per client and second; a
	// client that uses it all before the deadline fails the run.
	maxRate int
}

type weight struct {
	class string
	w     float64
}

// readHot: reads over a prefilled keyspace on four shards, so the
// canonical encoding of query responses, the store index, scatter-gather
// and the harvest cache do the work while fsync and replication sit idle.
// Keyspace, skew and mix are those of suites/hotkey-read-heavy.toml; the
// four shards are shard-scatter's layout.
var readHot = serveSpec{
	name: "read-hot", shards: 4, walSync: "interval", keys: 64, zipfS: 1.3,
	mix: []weight{
		{"get", 10}, {"query", 4}, {"compare", 2}, {"harvest", 2}, {"put", 1},
	},
	maxRate: 10000,
}

// writeDurable: the write path with every append fsynced and every
// acknowledgement waiting for the follower. The keyspace is the prefill
// of suites/write-heavy-durable.toml.
var writeDurable = serveSpec{
	name: "write-durable", walSync: "always", follower: true, keys: 24,
	mix: []weight{
		{"put", 8}, {"put_runs", 2}, {"get", 3},
	},
	maxRate: 1000,
}

// putBatchSize is how many records one put_runs op ships.
const putBatchSize = 4

// warmup is how long the clients run before measuring starts, so the
// daemon's heap and caches settle first.
const warmup = 2 * time.Second

// version is one write of synthetic record idx: its contents are
// loadgen.SyntheticRecord(gen, idx, ...). The prefill is generation
// seed; a rewrite uses a generation of its own, so a lost write reads
// back as stale contents.
type version struct {
	idx int
	gen int64
}

func (v version) record() *history.RunRecord {
	return loadgen.SyntheticRecord(v.gen, v.idx, loadgen.PrefillRunID(v.idx))
}

// serveOp is one pre-generated request.
type serveOp struct {
	class     string
	key, key2 int                  // target keys of reads
	writes    []version            // put / put_runs
	recs      []*history.RunRecord // their payloads
}

// genOps builds client w's op stream from the seed, payloads included,
// before any clock starts. Client w writes only write keys k with
// k % clients == w, cycling through them in order as loadgen's puts
// take the next key, so each key's last acknowledged write is known
// without ordering writes across clients.
func genOps(spec serveSpec, seed int64, w, n int) []serveOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w) + 1))
	var zipf *rand.Zipf
	if spec.zipfS > 0 {
		zipf = rand.NewZipf(rng, spec.zipfS, 1, uint64(spec.keys-1))
	}
	var total float64
	for _, m := range spec.mix {
		total += m.w
	}
	key := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(spec.keys)
	}
	next := 0
	owned := func() int {
		k := spec.keys + w + clients*(next%(spec.keys/clients))
		next++
		return k
	}
	ops := make([]serveOp, n)
	for i := range ops {
		x := rng.Float64() * total
		class := spec.mix[len(spec.mix)-1].class
		for _, m := range spec.mix {
			if x < m.w {
				class = m.class
				break
			}
			x -= m.w
		}
		op := serveOp{class: class}
		gen := seed + 1 + int64(i*clients+w) // unique across clients
		switch class {
		case "get", "query", "harvest":
			op.key = key()
		case "compare":
			op.key, op.key2 = key(), key()
		case "put":
			op.writes = []version{{owned(), gen}}
		case "put_runs":
			for len(op.writes) < putBatchSize {
				op.writes = append(op.writes, version{owned(), gen})
			}
		}
		for _, v := range op.writes {
			op.recs = append(op.recs, v.record())
		}
		ops[i] = op
	}
	return ops
}

// allOps generates every client's op stream for a run measuring d.
func allOps(spec serveSpec, seed int64, d time.Duration) [][]serveOp {
	ops := make([][]serveOp, clients)
	for w := range ops {
		ops[w] = genOps(spec, seed, w, int(float64(spec.maxRate)*(warmup+d).Seconds()))
	}
	return ops
}

// sample is one completed request.
type sample struct {
	class string
	done  time.Time
	lat   time.Duration
	err   error
}

// clientRun is one closed-loop client's outcome.
type clientRun struct {
	issued    int // requests sent, warm-up included
	samples   []sample
	acked     []version
	exhausted bool
}

// runClient drives ops back to back until the deadline. Requests that
// start before measureFrom are warm-up: their writes count for the
// read-back check, their timings for nothing.
func runClient(c *client.Client, ops []serveOp, measureFrom, deadline time.Time) clientRun {
	var out clientRun
	for i, op := range ops {
		if !time.Now().Before(deadline) {
			break
		}
		if i == len(ops)-1 {
			out.exhausted = true
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		start := time.Now()
		var err error
		switch op.class {
		case "get":
			_, err = c.GetRun(ctx, loadgen.StoreApp, loadgen.PrefillRef(op.key))
		case "query":
			_, err = c.Query(ctx, client.QueryParams{
				App: loadgen.StoreApp, Version: loadgen.VersionOf(op.key),
				State: "true", Min: 0.1 + 0.05*float64(op.key%8),
			})
		case "compare":
			_, err = c.Compare(ctx, loadgen.StoreApp, loadgen.PrefillRef(op.key), loadgen.PrefillRef(op.key2), 0.02)
		case "harvest":
			_, err = c.Harvest(ctx, &server.HarvestRequest{
				App: loadgen.StoreApp, Runs: []string{loadgen.PrefillRef(op.key)}, Options: core.HarvestAll(),
			})
		case "put":
			_, err = c.PutRun(ctx, op.recs[0])
		case "put_runs":
			_, err = c.PutRuns(ctx, op.recs)
		}
		lat := time.Since(start)
		cancel()
		out.issued++
		if err == nil {
			out.acked = append(out.acked, op.writes...)
		}
		if !start.Before(measureFrom) {
			out.samples = append(out.samples, sample{class: op.class, done: start.Add(lat), lat: lat, err: err})
		}
	}
	return out
}

// loadResult is the merged outcome of one measured phase.
type loadResult struct {
	issued     int // requests sent, warm-up included
	start, end time.Time
	samples    []sample
	acked      []version // in each client's order, client after client
	exhausted  bool
}

// drive runs the clients for the warm-up and then d, each on its
// pre-generated ops, and returns what they did after the warm-up.
func drive(mk func() *client.Client, ops [][]serveOp, d time.Duration) loadResult {
	measureFrom := time.Now().Add(warmup)
	deadline := measureFrom.Add(d)
	runs := make([]clientRun, len(ops))
	var wg sync.WaitGroup
	for w := range ops {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runs[w] = runClient(mk(), ops[w], measureFrom, deadline)
		}(w)
	}
	wg.Wait()
	res := loadResult{start: measureFrom, end: time.Now()}
	for _, r := range runs {
		res.issued += r.issued
		res.samples = append(res.samples, r.samples...)
		res.acked = append(res.acked, r.acked...)
		res.exhausted = res.exhausted || r.exhausted
	}
	return res
}

// windowCounts counts the completions in each whole second of the run.
func windowCounts(start, end time.Time, done []time.Time) []float64 {
	counts := make([]float64, int(end.Sub(start)/time.Second))
	for _, t := range done {
		if w := int(t.Sub(start) / time.Second); w >= 0 && w < len(counts) {
			counts[w]++
		}
	}
	return counts
}

// latencies returns the latencies in ms of the successful samples whose
// class passes keep.
func latencies(samples []sample, keep func(string) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && keep(s.class) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func isRead(class string) bool {
	return class == "get" || class == "query" || class == "compare" || class == "harvest"
}
func isWrite(class string) bool { return class == "put" }
func anyClass(string) bool      { return true }

// summarize fills the end-to-end load metrics and the detail lines.
func (res loadResult) summarize(rep *report) {
	var done []time.Time
	for _, s := range res.samples {
		rep.attempted++
		if s.err != nil {
			rep.failed++
			if rep.failed <= 5 {
				rep.detail("failed %s: %v", s.class, s.err)
			}
			continue
		}
		done = append(done, s.done)
	}
	rep.set("ops_per_s", float64(len(done))/res.end.Sub(res.start).Seconds())
	rep.set("op_ms_p50", median(latencies(res.samples, anyClass)))
	rep.detail("per-second completions %v", windowCounts(res.start, res.end, done))
	rep.detail("%d ops in %.2fs (%d clients, closed loop); %d acked writes", len(res.samples), res.end.Sub(res.start).Seconds(), clients, len(res.acked))
	for _, g := range []struct {
		name string
		keep func(string) bool
	}{{"read", isRead}, {"write", isWrite}} {
		xs := latencies(res.samples, g.keep)
		p50, _ := quantile(xs, 0.5)
		if p90, ok := quantile(xs, 0.9); ok {
			rep.detail("%s_ms_p50 = %.3f, %s_ms_p90 = %.3f (n=%d)", g.name, p50, g.name, p90, len(xs))
		} else if len(xs) > 0 {
			rep.detail("%s_ms_p50 = %.3f, p90 not supported (n=%d)", g.name, p50, len(xs))
		}
	}
	rep.ratioDetail("error_ratio", ratio{float64(rep.failed), float64(rep.attempted)})
	if res.exhausted {
		rep.problem("a client used up its pre-generated op stream before the deadline: raise maxRate")
	}
}

// statsDelta is the difference of two /statsz snapshots: the free
// counters every timed run records with tracing off.
type statsDelta struct {
	walAppends, walSyncs, cacheHits, cacheMisses float64
	quorumAcks, asyncWrites, gateTimeouts        float64
	rejectedFull                                 float64
	ops                                          map[string]float64
}

func diffStats(a, b *server.StatsResponse) statsDelta {
	d := statsDelta{
		walAppends:   float64(b.WALAppends - a.WALAppends),
		walSyncs:     float64(b.WALSyncs - a.WALSyncs),
		cacheHits:    float64(b.CacheHits - a.CacheHits),
		cacheMisses:  float64(b.CacheMisses - a.CacheMisses),
		rejectedFull: float64(b.Ingest.RejectedFull - a.Ingest.RejectedFull),
		ops:          map[string]float64{},
	}
	if a.Replication != nil && b.Replication != nil {
		d.quorumAcks = float64(b.Replication.QuorumAcks - a.Replication.QuorumAcks)
		d.asyncWrites = float64(b.Replication.AsyncWrites - a.Replication.AsyncWrites)
		d.gateTimeouts = float64(b.Replication.GateTimeouts - a.Replication.GateTimeouts)
	}
	for k, v := range b.OpCounts {
		if n := v - a.OpCounts[k]; n > 0 {
			d.ops[k] = float64(n)
		}
	}
	return d
}

// add accumulates another delta.
func (d *statsDelta) add(o statsDelta) {
	d.walAppends += o.walAppends
	d.walSyncs += o.walSyncs
	d.cacheHits += o.cacheHits
	d.cacheMisses += o.cacheMisses
	d.quorumAcks += o.quorumAcks
	d.asyncWrites += o.asyncWrites
	d.gateTimeouts += o.gateTimeouts
	d.rejectedFull += o.rejectedFull
	if d.ops == nil {
		d.ops = map[string]float64{}
	}
	for k, v := range o.ops {
		d.ops[k] += v
	}
}

func (d statsDelta) print(rep *report) {
	rep.ratioDetail("statsz wal_syncs_per_append", ratio{d.walSyncs, d.walAppends})
	rep.ratioDetail("statsz cache_hit_ratio", ratio{d.cacheHits, d.cacheHits + d.cacheMisses})
	rep.detail("statsz replication: quorum_acks %g, async_writes %g, gate_timeouts %g; ingest rejected_full %g",
		d.quorumAcks, d.asyncWrites, d.gateTimeouts, d.rejectedFull)
	names := make([]string, 0, len(d.ops))
	for k := range d.ops {
		names = append(names, k)
	}
	sort.Strings(names)
	line := "statsz op_counts:"
	for _, k := range names {
		line += fmt.Sprintf(" %s=%g", k, d.ops[k])
	}
	rep.detail("%s", line)
}

func fetchStats(url string) (*server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return client.New(url).Stats(ctx)
}

// prefill writes the read and write keys through pcd in batches.
func prefill(url string, spec serveSpec, seed int64) error {
	c := client.NewResilient(url, 4)
	const batch = 32
	for i := 0; i < 2*spec.keys; i += batch {
		var recs []*history.RunRecord
		for j := i; j < i+batch && j < 2*spec.keys; j++ {
			recs = append(recs, version{j, seed}.record())
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err := c.PutRuns(ctx, recs)
		cancel()
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// caughtUp waits until every shard's follower has acknowledged the
// primary's log head.
func caughtUp(primaryURL string) error {
	deadline := time.Now().Add(startTimeout)
	for {
		st, err := fetchStats(primaryURL)
		if err == nil && st.Replication != nil && len(st.Replication.Shards) > 0 {
			ok := true
			for _, sh := range st.Replication.Shards {
				if len(sh.Followers) == 0 || sh.Followers[0].AckSeq < sh.HeadSeq {
					ok = false
				}
			}
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not catch up within %v (last error %v)", startTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cluster is a pcd primary, and a follower when the spec has one.
type cluster struct {
	primary, follower *pcdProc
}

func (spec serveSpec) primaryArgs(dir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-store", dir, "-create", "-wal-sync", spec.walSync}
	if spec.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(spec.shards))
	}
	if spec.follower {
		args = append(args, "-replicas", "1")
	}
	return args
}

func followerArgs(dir, primaryURL string) []string {
	return []string{"-addr", "127.0.0.1:0", "-store", dir, "-create", "-follow", primaryURL}
}

// startCluster launches the primary (and follower) and returns once the
// primary is healthy and the follower, if any, has caught up.
func startCluster(cfg config, spec serveSpec, dir string) (*cluster, error) {
	p, err := startPCD(cfg.bin, spec.primaryArgs(filepath.Join(dir, "primary"))...)
	if err != nil {
		return nil, err
	}
	cl := &cluster{primary: p}
	if spec.follower {
		f, err := startPCD(cfg.bin, followerArgs(filepath.Join(dir, "follower"), p.url)...)
		if err != nil {
			p.kill()
			return nil, err
		}
		cl.follower = f
		if err := caughtUp(p.url); err != nil {
			cl.stop()
			return nil, err
		}
	}
	return cl, nil
}

// stop stops the follower first, so no replication long-poll holds the
// primary's drain open; every acknowledged write is already applied on
// it.
func (cl *cluster) stop() error {
	var ferr error
	if cl.follower != nil {
		ferr = cl.follower.stop()
	}
	if err := cl.primary.stop(); err != nil {
		return err
	}
	return ferr
}

// timeServe is the timed run of a serving workload.
func timeServe(cfg config, spec serveSpec) (*report, error) {
	rep := newReport()
	dir := cfg.work
	ops := allOps(spec, cfg.seed, cfg.seconds)

	cl, err := startCluster(cfg, spec, dir)
	if err != nil {
		return nil, err
	}
	if err := prefill(cl.primary.url, spec, cfg.seed); err != nil {
		cl.stop()
		return nil, err
	}
	if spec.follower {
		if err := caughtUp(cl.primary.url); err != nil {
			cl.stop()
			return nil, err
		}
	}
	if err := cl.stop(); err != nil {
		return nil, err
	}
	// Set-up: reopen the prefilled store (recovery, journal replay,
	// index build) until healthy, with the follower caught up.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cl, err = startCluster(cfg, spec, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := cl.stop(); err != nil {
				return nil, err
			}
		}
	}
	rep.set("setup_s", median(setups))

	before, err := fetchStats(cl.primary.url)
	if err != nil {
		cl.stop()
		return nil, err
	}
	url := cl.primary.url
	cpu0, err := cl.primary.cpuSeconds()
	if err != nil {
		cl.stop()
		return nil, err
	}
	res := drive(func() *client.Client { return client.New(url) }, ops, cfg.seconds)
	cpu1, err := cl.primary.cpuSeconds()
	if err != nil {
		cl.stop()
		return nil, err
	}
	after, err := fetchStats(cl.primary.url)
	if err != nil {
		cl.stop()
		return nil, err
	}
	rep.detail("pcd cpu_ms_per_op = %.4f (%.2f cpu-s over %d ops, warm-up included)", 1000*(cpu1-cpu0)/float64(res.issued), cpu1-cpu0, res.issued)
	rss, err := cl.primary.peakRSSMiB()
	if err != nil {
		cl.stop()
		return nil, err
	}
	if err := cl.stop(); err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)
	rep.detail("%s: pcd on %s, wal-sync %s, follower %v, %d read keys; setup_s samples %v", spec.name, layoutName(spec), spec.walSync, spec.follower, spec.keys, setups)
	res.summarize(rep)
	diffStats(before, after).print(rep)
	verifyStores(rep, spec, cfg.seed, dir, res.acked)
	return rep, nil
}

func layoutName(spec serveSpec) string {
	if spec.shards > 0 {
		return fmt.Sprintf("%d shards", spec.shards)
	}
	return "a single store"
}

// verifyStores is the correctness gate of a serving run, after every
// process has stopped: every key reads back canonical-equal to the
// loadgen.SyntheticRecord of its last acknowledged write (its prefill
// when none), FsckStore grades the primary (and follower) clean, and the
// follower holds exactly the primary's records, byte for byte.
func verifyStores(rep *report, spec serveSpec, seed int64, dir string, ackedWrites []version) {
	primary, err := readStore(filepath.Join(dir, "primary"))
	if err != nil {
		rep.problem("%v", err)
		return
	}
	last := make([]int64, 2*spec.keys)
	for i := range last {
		last[i] = seed
	}
	for _, v := range ackedWrites {
		last[v.idx] = v.gen
	}
	bad := 0
	for idx, gen := range last {
		v := version{idx, gen}
		exp, err := server.MarshalCanonical(v.record())
		if err != nil {
			rep.problem("encoding expected record %d: %v", idx, err)
			return
		}
		key := history.RecordKey{App: loadgen.StoreApp, Version: loadgen.VersionOf(idx), RunID: loadgen.PrefillRunID(idx)}
		if got, ok := primary[key]; !ok || got != string(exp) {
			bad++
			if bad <= 3 {
				rep.problem("%s missing or not its last acknowledged write on read-back", key)
			}
		}
	}
	if bad > 3 {
		rep.problem("%d keys failed read-back in all", bad)
	}
	if len(primary) != len(last) {
		rep.problem("store holds %d records, want the %d keys", len(primary), len(last))
	}
	rep.detail("read-back: %d keys checked against %d acknowledged writes", len(last), len(ackedWrites))
	if spec.follower {
		checkReplicas(rep, dir)
	} else {
		fsckClean(rep, filepath.Join(dir, "primary"))
	}
}

// checkReplicas grades dir/primary and dir/follower clean with FsckStore
// and requires the follower to hold exactly the primary's records, byte
// for byte.
func checkReplicas(rep *report, dir string) {
	fsckClean(rep, filepath.Join(dir, "primary"))
	fsckClean(rep, filepath.Join(dir, "follower"))
	primary, err := readStore(filepath.Join(dir, "primary"))
	if err != nil {
		rep.problem("%v", err)
		return
	}
	fol, err := readStore(filepath.Join(dir, "follower"))
	if err != nil {
		rep.problem("%v", err)
		return
	}
	diff := 0
	for k, v := range primary {
		if fol[k] != v {
			diff++
		}
	}
	if diff > 0 || len(fol) != len(primary) {
		rep.problem("follower differs from primary: %d of %d records differ, %d vs %d stored", diff, len(primary), len(fol), len(primary))
	}
}

// readStore opens a quiesced store with the standard recovery pass and
// returns every record's canonical encoding.
func readStore(dir string) (map[history.RecordKey]string, error) {
	st, err := history.OpenStoreAuto(dir, 0, history.DurableOptions{WAL: true})
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", dir, err)
	}
	defer st.Close()
	out := map[history.RecordKey]string{}
	for _, k := range st.Keys() {
		rec, err := st.Load(k.App, k.Version, k.RunID)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", k, err)
		}
		data, err := server.MarshalCanonical(rec)
		if err != nil {
			return nil, err
		}
		out[k] = string(data)
	}
	return out, nil
}

// fsckClean requires FsckStore to grade dir severity 0.
func fsckClean(rep *report, dir string) {
	r, err := history.FsckStore(dir, false)
	if err != nil {
		rep.problem("fsck %s: %v", dir, err)
		return
	}
	if r.Severity() != 0 {
		rep.problem("fsck %s: severity %d, findings %v", dir, r.Severity(), r.Findings)
	}
}

// node is the in-process pcd of a traced run: the primary assembled from
// the same public constructors cmd/pcd uses, with timing wrappers at
// each layer boundary, and a pcd -follow subprocess when the spec has a
// follower.
type node struct {
	url      string
	store    history.Storage
	srv      *server.Server
	httpSrv  *http.Server
	follower *pcdProc
}

func startNode(cfg config, spec serveSpec, dir string, tr *tracer) (*node, error) {
	sync, err := history.ParseSyncPolicy(spec.walSync)
	if err != nil {
		return nil, err
	}
	replicas := 0
	if spec.follower {
		replicas = 1
	}
	st, err := history.OpenStoreAuto(filepath.Join(dir, "primary"), spec.shards, history.DurableOptions{
		Create:     true,
		WAL:        true,
		WALOptions: history.WALOptions{Sync: sync},
		Replicas:   replicas,
		Wrap:       func(b history.Backend) history.Backend { return timedBackend{b, tr} },
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), store: st}
	var serve history.Storage = &timedStorage{Storage: st, t: tr, prefix: "history"}
	var repl *replica.Node
	if spec.follower {
		prim, err := replica.NewPrimary(st, replicas)
		if err != nil {
			ln.Close()
			st.Close()
			return nil, err
		}
		serve = &timedStorage{Storage: replica.Gate(serve, prim), t: tr, prefix: "replica.gate"}
		repl = &replica.Node{Primary: prim, Advertise: n.url}
	}
	n.srv = server.New(harness.NewEnv(serve), server.Options{Replication: repl})
	if err := n.srv.EnableSessionJournal(filepath.Join(st.Dir(), server.SessionsDirName), 0); err != nil {
		ln.Close()
		st.Close()
		return nil, err
	}
	n.httpSrv = &http.Server{Handler: timedHandler(tr, n.srv.Handler())}
	go n.httpSrv.Serve(ln)
	if spec.follower {
		f, err := startPCD(cfg.bin, followerArgs(filepath.Join(dir, "follower"), n.url)...)
		if err != nil {
			n.stop()
			return nil, err
		}
		n.follower = f
		if err := caughtUp(n.url); err != nil {
			n.stop()
			return nil, err
		}
	}
	return n, nil
}

// stop shuts the node down the way pcd's SIGTERM path does.
func (n *node) stop() error {
	var ferr error
	if n.follower != nil {
		ferr = n.follower.stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := n.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := n.store.SyncWAL(); err != nil {
		return err
	}
	if err := n.store.Close(); err != nil {
		return err
	}
	return ferr
}

// dirBytes sums the sizes of the files under dir, split into journal
// files (under a "wal" directory) and everything else.
func dirBytes(dir string) (wal, other int64, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.IsDir() {
			return nil
		}
		if filepath.Base(filepath.Dir(path)) == "wal" {
			wal += info.Size()
		} else {
			other += info.Size()
		}
		return nil
	})
	return wal, other, err
}

// traceServe is the traced run of a serving workload: the same op
// stream against the in-process node twice, each on a freshly prefilled
// store and for half the run's time, first with the tracer off and then
// on. The traced phase gives the per-layer numbers; the difference in
// median op latency is the tracing overhead.
func traceServe(cfg config, spec serveSpec) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	ops := allOps(spec, cfg.seed, cfg.seconds)
	var p50 [2]float64
	var last struct {
		delta statsDelta
		tr    *tracer
		retry float64
		walB  int64
		backB int64
		userB int64
	}
	for phase := 0; phase < 2; phase++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("phase%d", phase))
		tr := newTracer()
		n, err := startNode(cfg, spec, dir, tr)
		if err != nil {
			return nil, err
		}
		if err := prefill(n.url, spec, cfg.seed); err != nil {
			n.stop()
			return nil, err
		}
		if spec.follower {
			if err := caughtUp(n.url); err != nil {
				n.stop()
				return nil, err
			}
		}
		wal0, back0, err := dirBytes(filepath.Join(dir, "primary"))
		if err != nil {
			n.stop()
			return nil, err
		}
		before, err := fetchStats(n.url)
		if err != nil {
			n.stop()
			return nil, err
		}
		var clientsMade []*client.Client
		var mu sync.Mutex
		mk := func() *client.Client {
			c := client.New(n.url)
			c.HTTPClient = tracedHTTP(tr)
			mu.Lock()
			clientsMade = append(clientsMade, c)
			mu.Unlock()
			return c
		}
		tr.on.Store(phase == 1)
		res := drive(mk, ops, cfg.seconds/2)
		tr.on.Store(false)
		after, err := fetchStats(n.url)
		if err != nil {
			n.stop()
			return nil, err
		}
		if err := n.stop(); err != nil {
			return nil, err
		}
		wal1, back1, err := dirBytes(filepath.Join(dir, "primary"))
		if err != nil {
			return nil, err
		}
		phaseRep := newReport()
		if res.exhausted {
			phaseRep.problem("a client used up its pre-generated op stream before the deadline: raise maxRate")
		}
		verifyStores(phaseRep, spec, cfg.seed, dir, res.acked)
		for _, p := range phaseRep.problems {
			rep.problem("traced node, phase %d: %s", phase, p)
		}
		p50[phase] = median(latencies(res.samples, anyClass))
		for _, s := range res.samples {
			rep.attempted++
			if s.err != nil {
				rep.failed++
			}
		}
		var retries float64
		for _, c := range clientsMade {
			retries += float64(c.CounterSnapshot().Retries)
		}
		var userB int64
		for _, v := range res.acked {
			data, err := server.MarshalCanonical(v.record())
			if err != nil {
				return nil, err
			}
			userB += int64(len(data))
		}
		last.delta, last.tr, last.retry = diffStats(before, after), tr, retries
		last.walB, last.backB, last.userB = wal1-wal0, back1-back0, userB
	}
	if err := last.tr.writeFile(traceFile(cfg)); err != nil {
		return nil, err
	}
	layerMetrics(rep, last.tr.all())
	d := last.delta
	rep.set("client.retries", last.retry)
	rep.set("history.wal_syncs_per_append", ratio{d.walSyncs, d.walAppends}.value())
	rep.set("history.wal_bytes_per_user_byte", ratio{float64(last.walB), float64(last.userB)}.value())
	rep.set("history.backend_bytes_per_user_byte", ratio{float64(last.backB), float64(last.userB)}.value())
	rep.set("replica.quorum_acks", d.quorumAcks)
	rep.set("replica.async_writes", d.asyncWrites)
	rep.set("replica.gate_timeouts", d.gateTimeouts)
	rep.set("core.cache_hit_ratio", ratio{d.cacheHits, d.cacheHits + d.cacheMisses}.value())
	rep.set("trace.overhead_pct", 100*(p50[1]/p50[0]-1))
	rep.detail("%s traced node: untraced op p50 %.3f ms, traced op p50 %.3f ms, %d spans", spec.name, p50[0], p50[1], len(last.tr.all()))
	rep.ratioDetail("history.wal_bytes_per_user_byte", ratio{float64(last.walB), float64(last.userB)})
	rep.ratioDetail("history.backend_bytes_per_user_byte", ratio{float64(last.backB), float64(last.userB)})
	d.print(rep)
	return rep, nil
}

// layerMetrics derives the serving-path span metrics: medians per call
// of each layer's span and self time.
func layerMetrics(rep *report, spans []*span) {
	children := map[int64][]*span{}
	byReq := map[int64]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if strings.HasPrefix(s.Name, "server.") && s.Req != 0 {
			byReq[s.Req] = s
		}
	}
	self := func(s *span) time.Duration {
		var ivs []interval
		for _, c := range children[s.ID] {
			ivs = append(ivs, c.iv())
		}
		return selfTime(s.iv(), ivs)
	}
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for _, s := range spans {
		switch {
		case s.Name == "client.round_trip":
			if srv, ok := byReq[s.Req]; ok {
				add("client.transport_ms", ms(selfTime(s.iv(), []interval{srv.iv()})))
			}
		case strings.HasPrefix(s.Name, "server."):
			r := strings.TrimPrefix(s.Name, "server.")
			add("server.handler_ms."+r, ms(s.dur()))
			add("server.self_ms."+r, ms(self(s)))
			add("server.resp_bytes."+r, float64(s.Bytes))
		case s.Name == "history.load":
			add("history.load_ms", ms(s.dur()))
		case s.Name == "history.query":
			add("history.query_ms", ms(s.dur()))
		case s.Name == "history.save":
			add("history.save_ms", ms(s.dur()))
			add("history.wal_self_ms", ms(self(s)))
		case s.Name == "history.putbatch":
			add("history.putbatch_ms", ms(s.dur()))
		case s.Name == "history.backend_put":
			add("history.backend_put_ms", ms(s.dur()))
		case s.Name == "replica.gate.save":
			add("replica.quorum_wait_ms", ms(self(s)))
		}
	}
	for name, xs := range vals {
		if _, ok := rep.values[name]; ok {
			rep.set(name, median(xs))
		}
	}
}
