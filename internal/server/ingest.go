package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/history"
	"repro/internal/ingest"
)

// The streaming-intake endpoints: POST /api/v1/ingest/{start,samples,
// end} carry the wire shapes of internal/ingest (FORMATS.md "Streaming
// ingestion"). The manager owns the sessions; these handlers only map
// its sentinel errors onto statuses; the end-of-stream marker is the
// only call here that touches the backend, and its store failures take
// the ordinary 503 path.

// writeIngestErr maps an intake error onto the wire: backpressure is
// 429 + Retry-After (the client's cue to let the queue drain), an
// unknown stream 404, a protocol violation (double start, sequence gap)
// 409, a shut-down intake 503.
func (s *Server) writeIngestErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrStreamBusy), errors.Is(err, ingest.ErrTooManyStreams):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ingest.ErrNoStream):
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ingest.ErrStreamExists), errors.Is(err, ingest.ErrOutOfOrder):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ingest.ErrClosed):
		s.writeUnavailable(w, err.Error())
	default:
		writeErr(w, err, http.StatusBadRequest)
	}
}

func (s *Server) handleIngestStart(w http.ResponseWriter, r *http.Request) {
	var req ingest.StartRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decode ingest start: %w", err), http.StatusBadRequest)
		return
	}
	resp, err := s.intake.Start(&req)
	if err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIngestSamples(w http.ResponseWriter, r *http.Request) {
	var req ingest.SamplesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decode ingest samples: %w", err), http.StatusBadRequest)
		return
	}
	resp, err := s.intake.Samples(&req)
	if err != nil {
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIngestEnd(w http.ResponseWriter, r *http.Request) {
	var req ingest.EndRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decode ingest end: %w", err), http.StatusBadRequest)
		return
	}
	// The marker finalizes into the store; a gated follower refuses it
	// up front, and a failed save keeps the stream alive for a later
	// retry. A discard writes nothing and is always allowed.
	if !req.Discard && s.rejectWriteGated(w, req.App, req.Version) {
		return
	}
	resp, err := s.intake.End(&req)
	if err != nil {
		if history.IsBackendError(err) {
			s.failStore(w, err, http.StatusBadRequest)
			return
		}
		s.writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePutRuns(w http.ResponseWriter, r *http.Request) {
	var req PutRunsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("decode runs batch: %w", err), http.StatusBadRequest)
		return
	}
	if len(req.Runs) == 0 {
		writeErr(w, fmt.Errorf("empty batch"), http.StatusBadRequest)
		return
	}
	for _, rec := range req.Runs {
		if s.rejectWriteGated(w, rec.App, rec.Version) {
			return
		}
	}
	n, err := s.env.Store().PutBatch(req.Runs)
	if err != nil {
		// n records landed before the failure; the client's resend
		// overwrites them idempotently.
		s.failStore(w, fmt.Errorf("batch stopped after %d of %d: %w", n, len(req.Runs), err), http.StatusBadRequest)
		return
	}
	saved := make([]string, len(req.Runs))
	for i, rec := range req.Runs {
		saved[i] = rec.Key().String()
	}
	writeJSON(w, http.StatusOK, PutRunsResponse{Saved: saved})
}
