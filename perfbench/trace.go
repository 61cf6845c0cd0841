package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that was open on the same goroutine when this
// one began (0 for a root). Calls too numerous to record one by one
// (a session's simulator steps and observer calls) are kept as one
// aggregate span per session: Calls counts them, the span's length is
// their summed time (placed to end with the session), and Inner sums the
// sequential child calls inside them, which never overlap each other, so
// their union is their sum.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"`
	Bytes  int64         `json:"bytes,omitempty"`
	Inner  time.Duration `json:"inner_ns,omitempty"`
	Calls  int           `json:"calls,omitempty"`

	g uint64 // goroutine that began the span
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }
func (s *span) iv() interval       { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends. Each goroutine has a
// stack of open spans, so a span begun inside another on the same
// goroutine (a storage call inside an HTTP handler) becomes its child
// without any context being threaded through the program. While off,
// every wrapper passes calls straight through.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []*span
	stacks map[uint64][]*span
}

func newTracer() *tracer { return &tracer{stacks: map[uint64][]*span{}} }

// begin opens a span on the calling goroutine. req 0 inherits the
// enclosing span's request. It returns nil while tracing is off.
func (t *tracer) begin(name string, req int64) *span {
	if !t.on.Load() {
		return nil
	}
	g := goid()
	s := &span{ID: t.nextID.Add(1), Name: name, Req: req, g: g}
	t.mu.Lock()
	if st := t.stacks[g]; len(st) > 0 {
		top := st[len(st)-1]
		s.Parent = top.ID
		if s.Req == 0 {
			s.Req = top.Req
		}
	}
	t.stacks[g] = append(t.stacks[g], s)
	t.mu.Unlock()
	s.Start = time.Now()
	return s
}

// end closes s, which must be the innermost open span of the goroutine
// that began it.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = time.Now()
	g := s.g
	t.mu.Lock()
	st := t.stacks[g]
	if n := len(st); n > 0 && st[n-1] == s {
		if n == 1 {
			delete(t.stacks, g)
		} else {
			t.stacks[g] = st[:n-1]
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record appends an already-timed span with an explicit parent; the
// single-goroutine diagnosis loop uses it instead of begin/end.
func (t *tracer) record(s *span) int64 {
	s.ID = t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// all returns the recorded spans.
func (t *tracer) all() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 17 [running]:"). It costs a walk of the
// goroutine's stack, which is most of the tracing overhead.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// reqHeader carries the client span's request id to the server
// middleware, so both ends of one request share it.
const reqHeader = "X-Perfbench-Req"

// timedTransport is the client-side http.RoundTripper span. The span
// ends when the response body is closed, so it covers reading the body.
type timedTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.next.RoundTrip(req)
	}
	id := tt.t.nextID.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	s := &span{Name: "client.round_trip", Req: id, Start: time.Now()}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.End = time.Now()
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// tracedHTTP is an HTTP client whose requests carry client spans.
func tracedHTTP(t *tracer) *http.Client {
	return &http.Client{Transport: timedTransport{t, http.DefaultTransport}}
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Now()
		b.t.record(b.s)
	})
	return err
}

// routeOf maps a request onto pcd's route name (the /statsz op name).
func routeOf(r *http.Request) string {
	switch r.Method + " " + r.URL.Path {
	case "GET /api/v1/run":
		return "get_run"
	case "PUT /api/v1/run":
		return "put_run"
	case "POST /api/v1/runs/batch":
		return "put_runs"
	case "GET /api/v1/query":
		return "query"
	case "GET /api/v1/compare":
		return "compare"
	case "POST /api/v1/harvest":
		return "harvest"
	case "POST /api/v1/ingest/start":
		return "ingest_start"
	case "POST /api/v1/ingest/samples":
		return "ingest_samples"
	case "POST /api/v1/ingest/end":
		return "ingest_end"
	}
	return "other"
}

// timedHandler is the server-side span: one per request, named after its
// route, counting the response bytes.
func timedHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		s := t.begin("server."+routeOf(r), req)
		if s == nil {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		s.Bytes = cw.n
		t.end(s)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// Flush keeps long-poll replication responses streaming.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedStorage wraps a history.Storage with spans named prefix+".load",
// ".query", ".save" and ".putbatch". Below replica.Gate it times the
// store itself (prefix "history"); above it, the gated write
// (prefix "replica.gate").
type timedStorage struct {
	history.Storage
	t      *tracer
	prefix string
}

func (s *timedStorage) Load(app, version, runID string) (*history.RunRecord, error) {
	sp := s.t.begin(s.prefix+".load", 0)
	defer s.t.end(sp)
	return s.Storage.Load(app, version, runID)
}

func (s *timedStorage) Query(app, version string, f history.ResultFilter) ([]history.QueryHit, error) {
	sp := s.t.begin(s.prefix+".query", 0)
	defer s.t.end(sp)
	return s.Storage.Query(app, version, f)
}

func (s *timedStorage) Save(rec *history.RunRecord) error {
	sp := s.t.begin(s.prefix+".save", 0)
	defer s.t.end(sp)
	return s.Storage.Save(rec)
}

func (s *timedStorage) PutBatch(recs []*history.RunRecord) (int, error) {
	sp := s.t.begin(s.prefix+".putbatch", 0)
	defer s.t.end(sp)
	return s.Storage.PutBatch(recs)
}

// timedBackend wraps the record backend beneath the journal, installed
// through history.DurableOptions.Wrap.
type timedBackend struct {
	history.Backend
	t *tracer
}

func (b timedBackend) Put(key history.RecordKey, data []byte) error {
	sp := b.t.begin("history.backend_put", 0)
	defer b.t.end(sp)
	return b.Backend.Put(key, data)
}

// Inner lets history.Store.Dir see through the wrapper to the
// filesystem backend, as it does for history.FaultBackend, so the
// session journal lands inside the store.
func (b timedBackend) Inner() history.Backend { return b.Backend }
