package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/app"
	"repro/internal/consultant"
	"repro/internal/core"
	"repro/internal/dyninst"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/server"
	"repro/internal/sim"
)

// evalArgs is the paper evaluation the paper-eval workload times.
var evalArgs = []string{"-exp", "all", "-trials", "3", "-parallel", "2"}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// pcbenchRun runs bin/pcbench with args and returns its output, wall
// time and peak RSS in MiB.
func pcbenchRun(bin string, args ...string) ([]byte, time.Duration, float64, error) {
	cmd := exec.Command(filepath.Join(bin, "pcbench"), args...)
	cmd.SysProcAttr = dieWithParent()
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("pcbench %v: %v\n%s", args, err, errOut.String())
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	var rss float64
	if ru != nil {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out.Bytes(), wall, rss, nil
}

// evalReference is the output of the same evaluation at -parallel 1 by
// the same pcbench binary. The evaluation takes no seed, so the
// reference depends on the binary alone; it is computed once per
// checkout and binary and kept beside the work directories.
func evalReference(cfg config) ([]byte, error) {
	bin := filepath.Join(cfg.bin, "pcbench")
	f, err := os.Open(bin)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(filepath.Dir(cfg.work), "pcbench-parallel1-"+hex.EncodeToString(h.Sum(nil))[:16]+".txt")
	if data, err := os.ReadFile(path); err == nil {
		return data, nil
	}
	out, _, _, err := pcbenchRun(cfg.bin, "-exp", "all", "-trials", "3", "-parallel", "1")
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return nil, err
	}
	return out, os.Rename(tmp, path)
}

// timeEval is paper-eval's timed run: set-up is pcbench up to the point
// the first session would start (process start, store set-up and the
// session-free Figure 1, which -exp all renders first); then whole
// evaluations back to back until the run's time is used, each output
// checked byte for byte against the sequential reference.
func timeEval(cfg config) (*report, error) {
	rep := newReport()
	ref, err := evalReference(cfg)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		_, wall, _, err := pcbenchRun(cfg.bin, "-exp", "fig1")
		if err != nil {
			return nil, err
		}
		setups = append(setups, wall.Seconds())
	}
	var walls, rsss []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < cfg.seconds {
		rep.attempted++
		out, wall, rss, err := pcbenchRun(cfg.bin, evalArgs...)
		if err != nil {
			rep.failed++
			rep.problem("%v", err)
			break
		}
		if !bytes.Equal(out, ref) {
			rep.problem("evaluation %d output differs from pcbench -parallel 1 (%d vs %d bytes)", len(walls)+1, len(out), len(ref))
		}
		walls = append(walls, wall.Seconds())
		rsss = append(rsss, rss)
	}
	if len(walls) == 0 {
		return rep, nil
	}
	wall := median(walls)
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", 1/wall)
	rep.set("op_ms_p50", 1000*wall)
	rep.set("peak_rss_mb", median(rsss))
	rep.detail("paper-eval: %d evaluations (pcbench %v), output identical to -parallel 1 (%d bytes)", len(walls), evalArgs, len(ref))
	rep.detail("eval_wall_s = %.3f s (median of %d; all %v)", wall, len(walls), walls)
	rep.detail("error_ratio = %d / %d", rep.failed, rep.attempted)
	return rep, nil
}

// family is one application the traced diagnosis loop runs: a base
// session without directives, then a directed session steered by
// directives harvested from the base run of source (mapped into this
// application's names when the source differs).
type family struct {
	name, source string
	build        func() (*app.App, error)
}

func poisson(v string) func() (*app.App, error) {
	return func() (*app.App, error) { return app.Poisson(v, app.Options{}) }
}

// families are the evaluation's session families: Poisson A-D, each
// directed by its predecessor version's history as in Table 3, and
// ocean directed by its own.
var families = []family{
	{"poisson-A", "poisson-D", poisson("A")},
	{"poisson-B", "poisson-A", poisson("B")},
	{"poisson-C", "poisson-B", poisson("C")},
	{"poisson-D", "poisson-C", poisson("D")},
	{"ocean", "ocean", func() (*app.App, error) { return app.Ocean(app.Options{}) }},
}

// directedHarvest is Table 3's harvest: general and historic prunes plus
// priorities.
var directedHarvest = core.HarvestOptions{GeneralPrunes: true, HistoricPrunes: true, Priorities: true}

// sessionTrace is what the traced loop measured for one session.
type sessionTrace struct {
	wall, guidance, runUntil, runUntilInner, tick time.Duration
	ticks                                         int
	inst, usage                                   observerTime
	events                                        int64
	probes, pairs                                 int
}

// observerTime sums an observer's calls.
type observerTime struct {
	total time.Duration
	calls int
}

// timedObserver times every interval an observer consumes.
type timedObserver struct {
	inner sim.Observer
	t     *observerTime
}

func (o timedObserver) OnInterval(iv sim.Interval) {
	t := time.Now()
	o.inner.OnInterval(iv)
	o.t.total += time.Since(t)
	o.t.calls++
}

// tracedSession is the benchmark's copy of harness.RunSession's loop,
// timed at each layer boundary. It builds the same components through
// the same public constructors in the same order, so its record must be
// byte-identical to RunSession's for the same config; traceEval checks
// that on every session. Timelines and checkpoints, which the
// evaluation's sessions do not use, are left out.
func tracedSession(a *app.App, cfg harness.SessionConfig) (*history.RunRecord, *sessionTrace, error) {
	tr := &sessionTrace{}
	begin := time.Now()
	space, err := a.Space()
	if err != nil {
		return nil, nil, err
	}
	simulator, err := a.NewSimulator(cfg.Sim)
	if err != nil {
		return nil, nil, err
	}
	procs := make([]dyninst.ProcEntry, 0, a.NProcs())
	procNodes := make(map[string]string, a.NProcs())
	for _, ps := range a.Procs {
		procs = append(procs, dyninst.ProcEntry{Name: ps.Name, Node: ps.Node})
		procNodes[ps.Name] = ps.Node
	}
	inst, err := dyninst.NewManager(cfg.Inst, space, procs)
	if err != nil {
		return nil, nil, err
	}
	usage := history.NewUsageCollector(a.NProcs())
	simulator.AddObserver(timedObserver{inst, &tr.inst})
	simulator.AddObserver(timedObserver{usage, &tr.usage})
	simulator.SetSlowdown(inst.Slowdown)

	var guid consultant.Guidance
	if cfg.Directives != nil {
		g0 := time.Now()
		ds := cfg.Directives
		if len(cfg.Mappings) > 0 {
			if ds, err = core.ApplyMappings(ds, cfg.Mappings); err != nil {
				return nil, nil, err
			}
		}
		guid, _ = ds.Guidance(space)
		tr.guidance = time.Since(g0)
	}
	hypRoot := cfg.Hypotheses
	if hypRoot == nil {
		hypRoot = consultant.StandardHypotheses()
	}
	pc, err := consultant.New(cfg.PC, space, inst, hypRoot, guid)
	if err != nil {
		return nil, nil, err
	}
	if err := simulator.Start(); err != nil {
		return nil, nil, err
	}
	if err := pc.Start(0); err != nil {
		return nil, nil, err
	}
	t := 0.0
	for t < cfg.MaxTime {
		t += cfg.TickInterval
		obs0 := tr.inst.total + tr.usage.total
		r0 := time.Now()
		if err := simulator.RunUntil(t); err != nil {
			return nil, nil, err
		}
		r1 := time.Now()
		pc.Tick(t)
		tr.tick += time.Since(r1)
		tr.runUntil += r1.Sub(r0)
		tr.runUntilInner += tr.inst.total + tr.usage.total - obs0
		tr.ticks++
		if pc.Quiesced() || simulator.Done() {
			break
		}
		if simulator.Deadlocked() {
			return nil, nil, fmt.Errorf("application deadlocked at t=%.1f", simulator.Now())
		}
	}
	rec := history.FromRun(a.Name, a.Version, cfg.RunID, space, pc, usage.Fractions(t), procNodes, t)
	tr.wall = time.Since(begin)
	tr.events = simulator.EventsProcessed()
	tr.probes = inst.TotalRequests()
	tr.pairs = pc.TestedPairs()
	return rec, tr, nil
}

// untimedSession runs harness.RunSession itself, returning its record,
// wall time and the allocation deltas around it.
func untimedSession(a *app.App, cfg harness.SessionConfig) (*history.RunRecord, time.Duration, uint64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := harness.RunSession(a, cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return res.Record, wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, nil
}

// traceEval is paper-eval's traced run. Sessions run one at a time:
// each config first through harness.RunSession (untraced: wall time and
// allocations), then through the traced loop copy, whose record must be
// canonical-byte-identical. Rounds of all families repeat with the next
// seed until the run's time is used.
func traceEval(cfg config) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	tr := newTracer()
	var (
		sessionMS, allocs, bytesPer, simSelf, events, instObs, probes []float64
		usageObs, tick, pairs, harvestMS, guidanceMS                  []float64
		traced, untraced                                              time.Duration
	)
	runOne := func(f family, c harness.SessionConfig, parent int64) (*history.RunRecord, error) {
		a, err := f.build()
		if err != nil {
			return nil, err
		}
		want, wall, nAlloc, nBytes, err := untimedSession(a, c)
		if err != nil {
			return nil, err
		}
		if a, err = f.build(); err != nil {
			return nil, err
		}
		rep.attempted++
		got, st, err := tracedSession(a, c)
		if err != nil {
			rep.failed++
			return nil, err
		}
		wb, err1 := server.MarshalCanonical(want)
		gb, err2 := server.MarshalCanonical(got)
		if err1 != nil || err2 != nil || !bytes.Equal(wb, gb) {
			rep.problem("session %s: traced record differs from harness.RunSession's", c.RunID)
		}
		end := time.Now()
		sid := tr.record(&span{Parent: parent, Name: "harness.session", Start: end.Add(-st.wall), End: end})
		guidanceCalls := 0
		if c.Directives != nil {
			guidanceCalls = 1
		}
		for _, agg := range []struct {
			name         string
			total, inner time.Duration
			calls        int
		}{
			{"sim.run_until", st.runUntil, st.runUntilInner, st.ticks},
			{"dyninst.on_interval", st.inst.total, 0, st.inst.calls},
			{"history.usage_on_interval", st.usage.total, 0, st.usage.calls},
			{"consultant.tick", st.tick, 0, st.ticks},
			{"core.guidance", st.guidance, 0, guidanceCalls},
		} {
			tr.record(&span{Parent: sid, Name: agg.name, Start: end.Add(-agg.total), End: end, Inner: agg.inner, Calls: agg.calls})
		}
		traced += st.wall
		untraced += wall
		sessionMS = append(sessionMS, ms(wall))
		allocs = append(allocs, float64(nAlloc))
		bytesPer = append(bytesPer, float64(nBytes))
		simSelf = append(simSelf, ms(st.runUntil-st.runUntilInner))
		events = append(events, float64(st.events))
		instObs = append(instObs, ms(st.inst.total))
		usageObs = append(usageObs, ms(st.usage.total))
		probes = append(probes, float64(st.probes))
		tick = append(tick, ms(st.tick))
		pairs = append(pairs, float64(st.pairs))
		if c.Directives != nil {
			guidanceMS = append(guidanceMS, ms(st.guidance))
		}
		return want, nil
	}

	start := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(start) < cfg.seconds {
		seed := cfg.seed + int64(rounds)
		round := &span{Name: "round", Start: time.Now()}
		root := tr.record(round)
		bases := map[string]*history.RunRecord{}
		for _, f := range families {
			c := harness.DefaultSessionConfig()
			c.Sim.Seed = seed
			c.RunID = fmt.Sprintf("pe-%s-base-%d", f.name, seed)
			rec, err := runOne(f, c, root)
			if err != nil {
				return nil, err
			}
			bases[f.name] = rec
		}
		for _, f := range families {
			src := bases[f.source]
			h0 := time.Now()
			ds := core.Harvest(src, directedHarvest)
			h := time.Since(h0)
			tr.record(&span{Parent: root, Name: "core.harvest", Start: h0, End: h0.Add(h)})
			harvestMS = append(harvestMS, ms(h))
			c := harness.DefaultSessionConfig()
			c.Sim.Seed = seed
			c.RunID = fmt.Sprintf("pe-%s-directed-%d", f.name, seed)
			c.Directives = ds
			if f.source != f.name {
				c.Mappings = core.InferMappings(src.Resources, bases[f.name].Resources)
			}
			if _, err := runOne(f, c, root); err != nil {
				return nil, err
			}
		}
		round.End = time.Now()
		rounds++
	}
	if err := tr.writeFile(traceFile(cfg)); err != nil {
		return nil, err
	}
	rep.set("harness.session_ms", median(sessionMS))
	rep.set("harness.allocs_per_session", median(allocs))
	rep.set("harness.bytes_per_session", median(bytesPer))
	rep.set("sim.self_ms", median(simSelf))
	rep.set("sim.events", median(events))
	rep.set("dyninst.observe_ms", median(instObs))
	rep.set("dyninst.probe_requests", median(probes))
	rep.set("history.usage_observe_ms", median(usageObs))
	rep.set("consultant.tick_ms", median(tick))
	rep.set("consultant.pairs_tested", median(pairs))
	rep.set("core.harvest_ms", median(harvestMS))
	rep.set("core.guidance_ms", median(guidanceMS))
	rep.set("trace.overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1))
	rep.detail("paper-eval traced: %d rounds, %d sessions, each record compared with harness.RunSession's; traced %.3fs vs untraced %.3fs",
		rounds, len(sessionMS), traced.Seconds(), untraced.Seconds())
	return rep, nil
}

// zeroLayers sets every per-layer metric to zero: a layer the workload
// does not exercise spends no time and does no work.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		rep.set(d.name, 0)
	}
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg config) string {
	return filepath.Join(filepath.Dir(cfg.work), "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
