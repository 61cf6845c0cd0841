// Command perfbench is the repository's benchmark: it runs one workload
// against the programs as built from this checkout, checks every output
// for correctness, and prints the metrics as one JSON line.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench --workload paper-eval|read-hot|write-durable|online-feed
//	          --seed N --seconds S --trace 0|1 [--bin DIR] [--work DIR]
//
// With --trace 0 the run is timed with tracing off and reports the
// end-to-end metrics; with --trace 1 a separate traced run reports the
// per-layer metrics. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// A run whose correctness check fails prints "correct": false with no
// metrics and exits 1. A run that cannot be carried out at all exits 1
// without a result line. README.md describes every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the built pcd and pcbench
	work     string // scratch directory for this run's stores
}

// workloads maps each workload name to its timed and traced runs.
var workloads = map[string]struct {
	timed, traced func(cfg config) (*report, error)
}{
	"paper-eval":    {timeEval, traceEval},
	"read-hot":      {func(c config) (*report, error) { return timeServe(c, readHot) }, func(c config) (*report, error) { return traceServe(c, readHot) }},
	"write-durable": {func(c config) (*report, error) { return timeServe(c, writeDurable) }, func(c config) (*report, error) { return traceServe(c, writeDurable) }},
	"online-feed":   {timeFeed, traceFeed},
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-eval, read-hot, write-durable, online-feed")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 10, "how long the run measures")
		trace    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		bin      = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built pcd and pcbench binaries")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for stores and traces")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-eval|read-hot|write-durable|online-feed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fail(err)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		bin:      *bin,
		work:     dir,
	}
	run, defs := wl.timed, endToEnd
	if cfg.trace {
		run, defs = wl.traced, perLayer
	}
	rep, err := run(cfg)
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	for _, line := range rep.details {
		fmt.Println(line)
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	if rep.attempted < 1 {
		rep.problem("no operation was attempted")
	}
	if len(rep.problems) == 0 {
		m, err := rep.metrics(defs)
		if err != nil {
			fail(err)
		}
		res.Correct, res.Metrics = true, m
		for _, d := range defs {
			fmt.Printf("%-40s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
		}
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
