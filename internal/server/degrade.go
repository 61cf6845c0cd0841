package server

import (
	"errors"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/history"
)

// Degraded mode: the store owns the backend breaker — one per fault
// domain, so one per shard of a sharded store. While a part's breaker is
// open its writes fail fast with history.ErrDown and reads keep serving
// from the index. The server maps that (and every other backend error)
// to 503 + Retry-After, reports "degraded" on /healthz while the whole
// store refuses writes, and paces the recovery probes: each cooldown
// while any part is down, one /healthz call pings the store, and a part
// whose backend answers is back without a restart.

// svcCounters is the atomic backing store for the resilience fields of
// StatsResponse.
type svcCounters struct {
	backendFaults   atomic.Uint64
	writesRejected  atomic.Uint64
	backendProbes   atomic.Uint64
	sessionRetries  atomic.Uint64
	journalHits     atomic.Uint64
	sessionsResumed atomic.Uint64
}

// noteStoreErr counts one store-operation failure and reports whether it
// was backend trouble — a miss (os.ErrNotExist) or a validation error is
// the server answering correctly. A write the store refused fast counts
// as rejected, any other backend error as a fault.
func (s *Server) noteStoreErr(err error) bool {
	var be *history.BackendError
	if !errors.As(err, &be) || errors.Is(err, os.ErrNotExist) {
		return false
	}
	if errors.Is(err, history.ErrDown) && be.Op != "get" {
		s.counts.writesRejected.Add(1)
	} else {
		s.counts.backendFaults.Add(1)
	}
	s.watchStore()
	return true
}

// watchStore reads the store's health and keeps the probe schedule in
// step with it: the first sighting of a down part schedules the first
// probe one cooldown out, and an all-clear store drops the schedule.
func (s *Server) watchStore() history.Health {
	h := s.env.Store().Health()
	s.mu.Lock()
	switch {
	case h.Down == 0:
		s.nextProbe = time.Time{}
	case s.nextProbe.IsZero():
		s.nextProbe = s.clock().Add(s.brkCooldown)
	}
	s.mu.Unlock()
	return h
}

// isDegraded reports whether the whole store refuses writes.
func (s *Server) isDegraded() bool {
	h := s.env.Store().Health()
	return h.Down == h.Parts
}

// clock returns the current time via the test seam when set.
func (s *Server) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// writeUnavailable answers 503 with a Retry-After of the breaker
// cooldown, telling well-behaved clients when a retry is worth it.
func (s *Server) writeUnavailable(w http.ResponseWriter, msg string) {
	secs := int(s.brkCooldown / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: msg})
}

// failStore maps a store-operation error onto the wire: backend trouble
// becomes 503 + Retry-After, everything else takes the ordinary writeErr
// path.
func (s *Server) failStore(w http.ResponseWriter, err error, fallback int) {
	if s.noteStoreErr(err) {
		s.writeUnavailable(w, err.Error())
		return
	}
	writeErr(w, err, fallback)
}

// healthProbe runs the recovery check when one is due — at most one
// store Ping per cooldown window while any part is down — and reports
// whether the whole store still refuses writes.
func (s *Server) healthProbe() bool {
	h := s.watchStore()
	s.mu.Lock()
	due := h.Down > 0 && !s.clock().Before(s.nextProbe)
	if due {
		// Claim this window's probe so concurrent health checks don't
		// pile onto a struggling backend.
		s.nextProbe = s.clock().Add(s.brkCooldown)
	}
	s.mu.Unlock()
	if due {
		s.counts.backendProbes.Add(1)
		if err := s.env.Store().Ping(); err != nil {
			s.counts.backendFaults.Add(1)
		}
		s.watchStore()
	}
	return s.isDegraded()
}
