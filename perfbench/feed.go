package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/ingest"
	"repro/internal/sim"
)

// The online-feed workload: waves of concurrent ingest streams of the
// archetypes with known bottleneck signatures. The first wave runs
// without history; every later wave asks for harvested directives.
const (
	feedMaxTime = 20.0 // virtual seconds each simulated run lasts
	feedBatch   = 64   // samples per shipped batch
	feedPool    = 3    // distinct simulated runs per archetype
	// feedWavesPerEpisode is how many waves run against one fresh
	// daemon, so the store, and the daemon's memory, stay small and
	// alike from episode to episode.
	feedWavesPerEpisode = 8
	// feedEvalBudget and feedHarvestSources are pcd's
	// -ingest-eval-budget and -ingest-harvest-sources defaults, which
	// the traced replay's engines must match.
	feedEvalBudget     = 16
	feedHarvestSources = 8
)

var feedApps = []string{"mw", "pipeline"}

// feedStream is one pre-generated stream: the simulator's intervals, in
// arrival order, and the archetype's watch.
type feedStream struct {
	app       string
	intervals []sim.Interval
	watch     []ingest.Watch
}

type intervalLog struct{ ivs []sim.Interval }

func (l *intervalLog) OnInterval(iv sim.Interval) { l.ivs = append(l.ivs, iv) }

// genStreams simulates the stream pool from the seed, before any clock
// starts. pool[k*len(feedApps)+i] is the k-th run of feedApps[i].
func genStreams(seed int64) ([]feedStream, error) {
	var pool []feedStream
	for k := 0; k < feedPool; k++ {
		for i, name := range feedApps {
			a, err := app.Build(name, "", app.Options{})
			if err != nil {
				return nil, err
			}
			s, err := a.NewSimulator(sim.Config{Seed: seed*7919 + int64(1009*k+i)})
			if err != nil {
				return nil, err
			}
			sig, err := app.KnownBottlenecks(name, app.Options{})
			if err != nil {
				return nil, err
			}
			fs := feedStream{app: name}
			for _, b := range sig {
				fs.watch = append(fs.watch, ingest.Watch{Hyp: b.Hyp, Path: b.Path})
			}
			log := &intervalLog{}
			s.AddObserver(log)
			if err := s.Run(feedMaxTime); err != nil {
				return nil, err
			}
			fs.intervals = log.ivs
			pool = append(pool, fs)
		}
	}
	return pool, nil
}

// streamOutcome is one stream's result.
type streamOutcome struct {
	wave      int
	app       string
	runID     string
	pool      int
	harvested bool
	start     *ingest.StartResponse
	end       *ingest.EndResponse
	lat       time.Duration
	done      time.Time
	samples   int
	resends   int
	err       error
}

// sendStream ships one stream through an ingest.Reporter (batching and
// resends as pcfeed does them) and waits for the finalized diagnosis.
func sendStream(c *client.Client, fs feedStream, runID string, harvest bool) streamOutcome {
	out := streamOutcome{app: fs.app, runID: runID, harvested: harvest}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	rep := ingest.NewReporter(ctx, c, fs.app, "", runID, ingest.ReporterOptions{
		BatchSize: feedBatch, Harvest: harvest, Watch: fs.watch,
	})
	if out.start, out.err = rep.Start(); out.err != nil {
		return out
	}
	for _, iv := range fs.intervals {
		rep.OnInterval(iv)
	}
	out.end, out.err = rep.Finish(feedMaxTime)
	out.resends = rep.Resends()
	out.lat = time.Since(start)
	out.done = start.Add(out.lat)
	out.samples = rep.Samples()
	return out
}

// feedWaves runs one episode's waves of len(feedApps) concurrent streams
// against a fresh daemon: wave 0 without history, every later wave with
// harvested directives.
func feedWaves(mk func() *client.Client, pool []feedStream, episode int) ([]streamOutcome, time.Duration) {
	var outs []streamOutcome
	start := time.Now()
	for w := 0; w < feedWavesPerEpisode; w++ {
		wave := make([]streamOutcome, len(feedApps))
		var wg sync.WaitGroup
		for i := range feedApps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := ((episode*feedWavesPerEpisode+w)*len(feedApps) + i) % len(pool)
				o := sendStream(mk(), pool[k], fmt.Sprintf("f-e%03d-w%02d-%d", episode, w, i), w > 0)
				o.wave, o.pool = w, k
				wave[i] = o
			}(i)
		}
		wg.Wait()
		outs = append(outs, wave...)
	}
	return outs, time.Since(start)
}

// checkFeed is online-feed's correctness gate: every finalized record
// reads back with the true set its end response reported, and every
// harvested-wave stream started with directives.
func checkFeed(rep *report, url string, outs []streamOutcome) {
	c := client.New(url)
	for _, o := range outs {
		if o.err != nil || o.end == nil {
			continue
		}
		if o.harvested && o.start.Directives == 0 {
			rep.problem("harvested stream %s started with no directives", o.runID)
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		rec, err := c.GetRun(ctx, o.app, ":"+o.runID)
		cancel()
		if err != nil {
			rep.problem("read-back %s %s: %v", o.app, o.runID, err)
			continue
		}
		var trues []string
		for _, nr := range rec.Results {
			if nr.State == "true" {
				trues = append(trues, nr.Hyp+" "+nr.Focus)
			}
		}
		sort.Strings(trues)
		if strings.Join(trues, "\n") != strings.Join(o.end.Bottlenecks, "\n") {
			rep.problem("read-back %s %s: stored true set differs from the end response", o.app, o.runID)
		}
	}
}

// checkWatchSteps prints watch_steps, the paper's steps-to-signature,
// and fails the run unless the harvested waves reached the watched
// signature in fewer steps, on average, than wave 0.
func checkWatchSteps(rep *report, outs []streamOutcome) {
	var first, later []float64
	for _, o := range outs {
		if o.err != nil || o.end.WatchSteps == 0 {
			continue
		}
		if o.wave == 0 {
			first = append(first, float64(o.end.WatchSteps))
		} else {
			later = append(later, float64(o.end.WatchSteps))
		}
	}
	rep.detail("watch_steps: first wave mean %.2f (n=%d), harvested waves mean %.2f (n=%d)", mean(first), len(first), mean(later), len(later))
	if len(first) == 0 || len(later) == 0 || mean(later) >= mean(first) {
		rep.problem("harvested waves did not reach the watched signature in fewer steps than wave 0: %.2f (n=%d) against %.2f (n=%d)",
			mean(later), len(later), mean(first), len(first))
	}
}

// summarizeFeed fills the end-to-end feed metrics and details.
func summarizeFeed(rep *report, outs []streamOutcome, wall time.Duration) {
	var lats []float64
	samples := 0
	for _, o := range outs {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			if rep.failed <= 5 {
				rep.detail("failed stream %s: %v", o.runID, o.err)
			}
			continue
		}
		lats = append(lats, ms(o.lat))
		samples += o.samples
	}
	n := len(lats)
	rep.set("ops_per_s", float64(n)/wall.Seconds())
	rep.set("op_ms_p50", median(lats))
	rep.detail("online-feed: %d streams in %d waves of %d over %.2fs", n, len(outs)/len(feedApps), len(feedApps), wall.Seconds())
	rep.detail("stream_ms_p50 = %.3f (n=%d); samples_per_s = %.1f", median(lats), n, float64(samples)/wall.Seconds())
	checkWatchSteps(rep, outs)
	rep.ratioDetail("error_ratio", ratio{float64(rep.failed), float64(rep.attempted)})
}

// streamDirectives rebuilds, for each harvested stream of one episode,
// the directive set pcd's intake started it with (ingest.Manager's
// harvestFor): the app's runs stored by the episode's earlier waves, the
// last feedHarvestSources of them in the store's order, each harvested
// with core.HarvestAll and intersected. The set's size must equal the
// stream's StartResponse.Directives.
func streamDirectives(rep *report, st history.Storage, outs []streamOutcome, into map[string]*core.DirectiveSet) error {
	wave := map[string]int{}
	for _, o := range outs {
		wave[o.runID] = o.wave
	}
	for _, o := range outs {
		if o.err != nil || !o.harvested {
			continue
		}
		all, err := st.LoadAll(o.app, "")
		if err != nil {
			return err
		}
		var recs []*history.RunRecord
		for _, r := range all {
			if w, ok := wave[r.RunID]; ok && w < o.wave {
				recs = append(recs, r)
			}
		}
		if len(recs) > feedHarvestSources {
			recs = recs[len(recs)-feedHarvestSources:]
		}
		var ds *core.DirectiveSet
		for i, r := range recs {
			if h := core.Harvest(r, core.HarvestAll()); i == 0 {
				ds = h
			} else {
				ds = core.Intersect(ds, h)
			}
		}
		n := 0
		if ds != nil {
			n = len(ds.Prunes) + len(ds.Priorities) + len(ds.Thresholds)
		}
		if n != o.start.Directives {
			rep.problem("stream %s: rebuilt %d directives from %d stored runs, pcd started it with %d", o.runID, n, len(recs), o.start.Directives)
		}
		into[o.runID] = ds
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// feedSpec is the deployment the online loop feeds: pcd's default
// fsync-always journal over a fresh single store, with one follower
// gating every finalized record.
var feedSpec = serveSpec{name: "online-feed", walSync: "always", follower: true}

// timeFeed is online-feed's timed run: episodes of feedWavesPerEpisode
// waves, each against a freshly started primary and follower on empty
// stores, until the run's time is used. Set-up time is each episode's
// start-up; throughput counts streaming time only.
func timeFeed(cfg config) (*report, error) {
	rep := newReport()
	pool, err := genStreams(cfg.seed)
	if err != nil {
		return nil, err
	}
	var (
		outs        []streamOutcome
		wall        time.Duration
		setups, rss []float64
		delta       statsDelta
		epRate      []float64
	)
	start := time.Now()
	for e := 0; e == 0 || time.Since(start) < cfg.seconds; e++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("episode%03d", e))
		t0 := time.Now()
		cl, err := startCluster(cfg, feedSpec, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		before, err := fetchStats(cl.primary.url)
		if err != nil {
			cl.stop()
			return nil, err
		}
		url := cl.primary.url
		eo, ew := feedWaves(func() *client.Client { return client.New(url) }, pool, e)
		after, err := fetchStats(url)
		if err != nil {
			cl.stop()
			return nil, err
		}
		checkFeed(rep, url, eo)
		r, err := cl.primary.peakRSSMiB()
		if err != nil {
			cl.stop()
			return nil, err
		}
		if err := cl.stop(); err != nil {
			return nil, err
		}
		checkReplicas(rep, dir)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		outs, wall, rss = append(outs, eo...), wall+ew, append(rss, r)
		epRate = append(epRate, float64(len(eo))/ew.Seconds())
		delta.add(diffStats(before, after))
	}
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", median(rss))
	rep.detail("online-feed: %d episodes of %d waves; setup_s samples %v", len(setups), feedWavesPerEpisode, setups)
	rep.detail("streams per second by episode %.1f", epRate)
	summarizeFeed(rep, outs, wall)
	delta.print(rep)
	return rep, nil
}

// traceFeed is online-feed's traced run: the same episodes against the
// in-process node, tracer off for half the run's time and then on for
// the other half. ingest.Engine's Feed and Finalize are then replayed
// over the traced phase's batches.
func traceFeed(cfg config) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	pool, err := genStreams(cfg.seed)
	if err != nil {
		return nil, err
	}
	var p50 [2]float64
	var outs []streamOutcome
	var tr *tracer
	var delta statsDelta
	var retries float64
	dsets := map[string]*core.DirectiveSet{} // traced streams' directives, by run id
	e := 0
	for phase := 0; phase < 2; phase++ {
		tr = newTracer()
		outs, delta, retries = nil, statsDelta{}, 0
		start := time.Now()
		for first := true; first || time.Since(start) < cfg.seconds/2; first = false {
			dir := filepath.Join(cfg.work, fmt.Sprintf("episode%03d", e))
			n, err := startNode(cfg, feedSpec, dir, tr)
			if err != nil {
				return nil, err
			}
			before, err := fetchStats(n.url)
			if err != nil {
				n.stop()
				return nil, err
			}
			url := n.url
			mk := func() *client.Client {
				c := client.New(url)
				c.HTTPClient = tracedHTTP(tr)
				return c
			}
			tr.on.Store(phase == 1)
			eo, _ := feedWaves(mk, pool, e)
			tr.on.Store(false)
			after, err := fetchStats(url)
			if err != nil {
				n.stop()
				return nil, err
			}
			checkFeed(rep, url, eo)
			if phase == 1 {
				if err := streamDirectives(rep, n.store, eo, dsets); err != nil {
					n.stop()
					return nil, err
				}
			}
			if err := n.stop(); err != nil {
				return nil, err
			}
			checkReplicas(rep, dir)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			delta.add(diffStats(before, after))
			// The client sends once; the reporter does the resending.
			for _, o := range eo {
				retries += float64(o.resends)
			}
			outs = append(outs, eo...)
			e++
		}
		var lats []float64
		for _, o := range outs {
			rep.attempted++
			if o.err != nil {
				rep.failed++
				continue
			}
			lats = append(lats, ms(o.lat))
		}
		p50[phase] = median(lats)
	}
	if err := tr.writeFile(traceFile(cfg)); err != nil {
		return nil, err
	}
	layerMetrics(rep, tr.all())

	checkWatchSteps(rep, outs)

	// Replay the traced phase's streams through a fresh engine, batch by
	// batch as the reporter shipped them, with the directives and budget
	// pcd gave them. The replay must end where pcd's engine did: the
	// same true set, steps and steps-to-signature.
	var feedMS, finalMS, dirs []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		dirs = append(dirs, float64(o.start.Directives))
		fs := pool[o.pool]
		eng := ingest.NewEngine(fs.app, "", o.runID, ingest.EngineOptions{
			Directives: dsets[o.runID], EvalBudget: feedEvalBudget, Watch: fs.watch,
		})
		for i := 0; i < len(fs.intervals); i += feedBatch {
			batch := make([]ingest.Sample, 0, feedBatch)
			for _, iv := range fs.intervals[i:min(i+feedBatch, len(fs.intervals))] {
				batch = append(batch, ingest.FromInterval(iv))
			}
			t0 := time.Now()
			if err := eng.Feed(batch); err != nil {
				return nil, fmt.Errorf("replaying %s: %w", o.runID, err)
			}
			feedMS = append(feedMS, ms(time.Since(t0)))
		}
		t0 := time.Now()
		_, trues, err := eng.Finalize(feedMaxTime)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", o.runID, err)
		}
		finalMS = append(finalMS, ms(time.Since(t0)))
		if strings.Join(trues, "\n") != strings.Join(o.end.Bottlenecks, "\n") ||
			eng.Steps() != o.end.Steps || eng.WatchSteps() != o.end.WatchSteps {
			rep.problem("replay of %s differs from pcd's engine: %d true, %d steps, %d watch steps against %d, %d, %d",
				o.runID, len(trues), eng.Steps(), eng.WatchSteps(), len(o.end.Bottlenecks), o.end.Steps, o.end.WatchSteps)
		}
	}
	rep.set("client.retries", retries)
	rep.set("ingest.feed_ms", median(feedMS))
	rep.set("ingest.finalize_ms", median(finalMS))
	rep.set("ingest.directives_per_stream", mean(dirs))
	rep.set("ingest.rejected_full", delta.rejectedFull)
	rep.set("history.wal_syncs_per_append", ratio{delta.walSyncs, delta.walAppends}.value())
	rep.set("core.cache_hit_ratio", ratio{delta.cacheHits, delta.cacheHits + delta.cacheMisses}.value())
	rep.set("replica.quorum_acks", delta.quorumAcks)
	rep.set("replica.async_writes", delta.asyncWrites)
	rep.set("replica.gate_timeouts", delta.gateTimeouts)
	rep.set("trace.overhead_pct", 100*(p50[1]/p50[0]-1))
	rep.detail("online-feed traced node: untraced stream p50 %.3f ms, traced %.3f ms, %d streams replayed", p50[0], p50[1], len(finalMS))
	delta.print(rep)
	return rep, nil
}
