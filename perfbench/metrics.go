package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below are
// what BENCHMARK.json promises (metrics_test.go keeps the two in step):
// a timed run reports every end-to-end metric, a traced run every
// per-layer metric.
type metricDef struct {
	name, unit string
}

// endToEnd are measured with tracing off. Each workload defines its
// operation: one whole evaluation (paper-eval), one HTTP request of the
// mix (read-hot, write-durable), one ingest stream from start to its
// finalized end response (online-feed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MiB"},
}

// routes are the pcd endpoints the serving workloads drive; per-route
// server metrics are reported for each.
var routes = []string{
	"get_run", "put_run", "put_runs", "query", "compare", "harvest",
	"ingest_start", "ingest_samples", "ingest_end",
}

// perLayer are measured by the traced run. A layer the workload does not
// exercise reports zero.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"harness.session_ms", "ms"},
		{"harness.allocs_per_session", "count"},
		{"harness.bytes_per_session", "bytes"},
		{"sim.self_ms", "ms"},
		{"sim.events", "count"},
		{"dyninst.observe_ms", "ms"},
		{"dyninst.probe_requests", "count"},
		{"history.usage_observe_ms", "ms"},
		{"consultant.tick_ms", "ms"},
		{"consultant.pairs_tested", "count"},
		{"core.harvest_ms", "ms"},
		{"core.guidance_ms", "ms"},
		{"client.transport_ms", "ms"},
		{"client.retries", "count"},
	}
	for _, r := range routes {
		defs = append(defs,
			metricDef{"server.handler_ms." + r, "ms"},
			metricDef{"server.self_ms." + r, "ms"},
			metricDef{"server.resp_bytes." + r, "bytes"})
	}
	return append(defs,
		metricDef{"history.load_ms", "ms"},
		metricDef{"history.query_ms", "ms"},
		metricDef{"history.save_ms", "ms"},
		metricDef{"history.putbatch_ms", "ms"},
		metricDef{"history.backend_put_ms", "ms"},
		metricDef{"history.wal_self_ms", "ms"},
		metricDef{"history.wal_syncs_per_append", "ratio"},
		metricDef{"history.wal_bytes_per_user_byte", "ratio"},
		metricDef{"history.backend_bytes_per_user_byte", "ratio"},
		metricDef{"replica.quorum_wait_ms", "ms"},
		metricDef{"replica.quorum_acks", "count"},
		metricDef{"replica.async_writes", "count"},
		metricDef{"replica.gate_timeouts", "count"},
		metricDef{"core.cache_hit_ratio", "ratio"},
		metricDef{"ingest.feed_ms", "ms"},
		metricDef{"ingest.finalize_ms", "ms"},
		metricDef{"ingest.directives_per_stream", "count"},
		metricDef{"ingest.rejected_full", "count"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces: the metrics, the operation
// counts, human-readable detail lines, and every correctness problem the
// checks found.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	details   []string
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ratioDetail prints a ratio with its base.
func (r *report) ratioDetail(name string, q ratio) {
	r.detail("%s = %.4f (%g / %g)", name, q.value(), q.num, q.base)
}

// metrics returns the defs' values as the result line carries them.
// Every def must have been set, and nothing else: a missing or stray
// metric is a bug in the workload, reported as an error rather than
// papered over.
func (r *report) metrics(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var stray []string
	for name := range r.values {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	sort.Strings(stray)
	if len(missing) > 0 || len(stray) > 0 {
		return nil, fmt.Errorf("metrics missing [%s], unexpected [%s]",
			strings.Join(missing, " "), strings.Join(stray, " "))
	}
	return out, nil
}
