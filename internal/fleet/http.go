package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"roboads/internal/api"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Handler returns the fleet's HTTP API:
//
//	POST   /v1/sessions                  create a session (CreateRequest → SessionInfo),
//	                                     or restore a persisted one (CreateRequest.Restore)
//	GET    /v1/sessions                  list sessions ([]SessionStatus)
//	GET    /v1/sessions/{id}             one session's status (SessionStatus)
//	POST   /v1/sessions/{id}/step        step one trace.Frame (→ ReplyLine)
//	POST   /v1/sessions/{id}/frames      stream trace.Frame NDJSON (or binary frame
//	                                     records, Content-Type ContentTypeBinaryFrames)
//	                                     in, ReplyLine NDJSON out (reply records for
//	                                     binary frames sent with Accept:
//	                                     api.ContentTypeBinaryReplies), batched greedily
//	POST   /v1/sessions/{id}/checkpoint  snapshot the session now (→ CheckpointInfo)
//	POST   /v1/sessions/{id}/migrate     live-migrate the session to another node
//	                                     (MigrateRequest → MigrateResponse)
//	DELETE /v1/sessions/{id}             close a session (and discard its persisted state)
//	GET    /v1/debug/trace               frame-lifecycle trace snapshot (telemetry.TraceSnapshot);
//	                                     {"enabled": false} when Config.Trace is nil
//	POST   /v1/internal/sessions/import  receive a migrating session (ImportRequest)
//	POST   /v1/internal/replicate        full-duplex primary→follower WAL stream
//
// Frames use the trace wire format (trace.Frame, no header line), so a
// recorded trace body replays against a live session verbatim. The
// streaming endpoint steps frames strictly in order, one report line per
// frame, and absorbs backpressure server-side; the single-frame /step
// endpoint surfaces backpressure as 429 with a Retry-After header.
//
// Every non-2xx response body is the machine-readable api.Error
// envelope; the sentinel→status→code mapping is pinned by the API
// contract test.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", m.handleCreate)
	mux.HandleFunc("GET /v1/sessions", m.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", m.handleStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/step", m.handleStep)
	mux.HandleFunc("POST /v1/sessions/{id}/frames", m.handleFrames)
	mux.HandleFunc("POST /v1/sessions/{id}/checkpoint", m.handleCheckpoint)
	mux.HandleFunc("POST /v1/sessions/{id}/migrate", m.handleMigrate)
	mux.HandleFunc("DELETE /v1/sessions/{id}", m.handleDelete)
	mux.HandleFunc("POST /v1/internal/sessions/import", m.handleImport)
	mux.HandleFunc("POST /v1/internal/replicate", m.handleReplicate)
	// ServeTrace and Snapshot are nil-receiver-safe, so a traceless
	// manager still answers (with {"enabled": false}).
	mux.HandleFunc("GET /v1/debug/trace", m.cfg.Trace.ServeTrace)
	return mux
}

// GatedHandler wraps a /v1 handler behind a readiness gate: while ready
// returns false, every request except the internal replication/import
// endpoints answers 503 not_ready. A follower serves nothing until it
// promotes; a node that has begun draining stops accepting new work.
func GatedHandler(h http.Handler, ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready() && !strings.HasPrefix(r.URL.Path, "/v1/internal/") {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				api.Error{Message: "fleet: node not ready", Code: api.CodeNotReady, RetryAfterMs: 1000})
			return
		}
		h.ServeHTTP(w, r)
	})
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode create request: %w", err))
		return
	}
	var info SessionInfo
	var err error
	if req.Restore != "" {
		info, err = m.Restore(req.Restore)
	} else {
		info, err = m.Create(Spec{Robot: req.Robot, ID: req.ID})
	}
	if err != nil {
		admitError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// admitError answers a refused admission: a create, restore or import.
func admitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrTooManySessions), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrSessionNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrSessionLive):
		status = http.StatusConflict
	case errors.Is(err, ErrDurabilityDisabled):
		status = http.StatusNotImplemented
	}
	httpError(w, status, err)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m.Sessions())
}

// handleStatus answers one session's live status. 410 with code "moved"
// (and a location) means the session migrated to another node.
func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := m.Status(r.PathValue("id"))
	if err != nil {
		httpError(w, lookupStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMigrate drains, exports, and ships one live session to the
// requested target node, leaving a tombstone redirect behind.
func (m *Manager) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req api.MigrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode migrate request: %w", err))
		return
	}
	if req.Target == "" {
		httpError(w, http.StatusBadRequest, errors.New("migrate: missing target"))
		return
	}
	resp, err := m.Migrate(r.Context(), r.PathValue("id"), req.Target)
	switch {
	case errors.Is(err, ErrSessionNotFound), errors.Is(err, ErrMoved):
		httpError(w, lookupStatus(err), err)
		return
	case errors.Is(err, ErrMigrating):
		// A concurrent migration of the same session is already running.
		httpError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusGone, err)
		return
	case err != nil:
		// The export or the ship to the target failed; the session is
		// still live here and still serving.
		httpError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleImport is the receiving half of a live migration: a snapshot
// envelope plus the WAL tail becomes a live session, bit-for-bit equal
// to the exported one.
func (m *Manager) handleImport(w http.ResponseWriter, r *http.Request) {
	var req api.ImportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode import request: %w", err))
		return
	}
	info, err := m.ImportSession(req.Snapshot, req.Frames)
	if err != nil {
		admitError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleCheckpoint snapshots a live session on demand, rotating its
// WAL. 501 means the server runs without a state directory.
func (m *Manager) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := m.Checkpoint(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrDurabilityDisabled):
		httpError(w, http.StatusNotImplemented, err)
		return
	case errors.Is(err, ErrSessionNotFound):
		httpError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusGone, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	err := m.Close(r.PathValue("id"))
	if errors.Is(err, ErrSessionNotFound) {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStep steps exactly one frame. Backpressure is the caller's to
// handle: a full queue answers 429 with a Retry-After header and the
// frame must be resubmitted.
func (m *Manager) handleStep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	var frame trace.Frame
	if err := json.NewDecoder(r.Body).Decode(&frame); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode frame: %w", err))
		return
	}
	sp := m.cfg.Trace.Begin(id, start)
	sp.SetK(frame.K)
	sp.Lap(telemetry.StageDecode)
	rep, err := m.stepSpanned(r.Context(), id, &frame, &sp)
	defer func() {
		// The span survives exactly when the frame stepped and we hold
		// its reply; the final lap covers encode + write-out.
		sp.Lap(telemetry.StageReply)
		sp.Finish()
	}()
	if err != nil {
		var bp *BackpressureError
		switch {
		case errors.As(err, &bp):
			ms := bp.RetryAfter.Milliseconds()
			// Retry-After only speaks whole seconds, so the hint (default
			// 25ms) ceils to "1" — a coarse fallback for generic HTTP
			// clients. Callers that can parse the body should prefer
			// ReplyLine.RetryAfterMs, which carries the exact hint.
			w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ReplyLine{K: frame.K, Error: err.Error(), Code: api.CodeBackpressure, RetryAfterMs: ms})
		case errors.Is(err, ErrSessionNotFound), errors.Is(err, ErrMoved):
			httpError(w, lookupStatus(err), err)
		case errors.Is(err, ErrMigrating):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusGone, err)
		default:
			// A frame-level step error: the request was fine, the
			// detector failed on this frame. 200 with an error line,
			// matching the streaming endpoint's per-frame error replies.
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(ReplyLine{K: frame.K, Error: err.Error(), Code: replyCode(err)})
		}
		return
	}
	wire := NewWireReport(rep)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ReplyLine{K: wire.K, Report: &wire})
}

// stepSpanned is Step with the frame's span attached. Span ownership
// follows the frame: a rejected frame's span is dropped (rejections
// have no lifecycle to record) and an abandoned wait leaves the span
// with the still-stepping frame — both cases nil *sp so the caller
// cannot touch a span it no longer owns.
func (m *Manager) stepSpanned(ctx context.Context, id string, frame *trace.Frame, sp **telemetry.Span) (*detect.Report, error) {
	res, err := m.submitWait(ctx, id, []BatchFrame{{U: mat.Vec(frame.U), Readings: frameReadings(frame), Span: *sp}}, false)
	if err != nil {
		*sp = nil
		return nil, err
	}
	return res[0].Report, res[0].Err
}

// handleFrames is the streaming ingest: trace.Frame NDJSON (or, with
// Content-Type ContentTypeBinaryFrames, binary frame records) in, one
// ReplyLine out per frame, flushed once per batch — as NDJSON, or as
// reply records when a binary request's Accept header names
// api.ContentTypeBinaryReplies. Frames step strictly
// in submission order and the reply stream is bit-for-bit what
// per-frame /step calls would produce — batching changes when fsyncs
// and flushes happen, never what is computed. Full duplex lets a client
// stream frames and read reports concurrently over HTTP/1.1.
//
// Batching is greedy but never waits for more input: the reader blocks
// for the first frame of a batch, then drains only frames already fully
// buffered (up to Config.MaxBatch). A lockstep client that sends one
// frame and waits for its reply therefore gets batch size 1 and is
// never deadlocked; a pipelining client gets amortized queue admission,
// fsync, and flush for free.
func (m *Manager) handleFrames(w http.ResponseWriter, r *http.Request) {
	// Before any answer: else net/http drains the open body before a refusal.
	out := &replyWriter{w: w, rc: http.NewResponseController(w)}
	out.rc.EnableFullDuplex() // best-effort; serial clients work regardless
	id := r.PathValue("id")
	if _, err := m.Info(id); err != nil {
		httpError(w, lookupStatus(err), err)
		return
	}
	fbr := &frameBatchReader{
		br:      bufio.NewReaderSize(r.Body, 1<<16),
		binary:  r.Header.Get("Content-Type") == ContentTypeBinaryFrames,
		max:     m.cfg.MaxBatch,
		tr:      m.cfg.Trace,
		session: id,
	}
	if fbr.binary && r.Header.Get("Accept") == api.ContentTypeBinaryReplies {
		m.mStreamsBinary.Inc()
		w.Header().Set("Content-Type", api.ContentTypeBinaryReplies)
	} else {
		out.enc = json.NewEncoder(&out.buf)
		m.mStreamsNDJSON.Inc()
		w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	}
	w.WriteHeader(http.StatusOK)
	out.rc.Flush()

	for {
		frames, spans, readErr := fbr.next()
		if len(frames) > 0 {
			batch := make([]BatchFrame, len(frames))
			for i := range frames {
				batch[i] = BatchFrame{U: mat.Vec(frames[i].U), Readings: frameReadings(&frames[i])}
				if spans != nil {
					batch[i].Span = spans[i]
				}
			}
			results, err := m.submitWait(r.Context(), id, batch, true)
			if err != nil {
				// The whole batch failed before stepping (closed session,
				// canceled request): one terminal line, like the
				// sequential path's first failing frame. Span ownership
				// was settled inside submitWait.
				out.add(&ReplyLine{K: frames[0].K, Error: err.Error(), Code: replyCode(err), Closed: terminalErr(err)})
				out.flush()
				return
			}
			closed := false
			for i, res := range results {
				line := ReplyLine{K: frames[i].K}
				if res.Err != nil {
					line.Error = res.Err.Error()
					line.Code = replyCode(res.Err)
					line.Closed = terminalErr(res.Err)
				} else {
					wire := NewWireReport(res.Report)
					line.K = wire.K
					line.Report = &wire
				}
				out.add(&line)
				closed = closed || line.Closed
			}
			err = out.flush()
			finishSpans(spans)
			if closed || err != nil {
				return
			}
		}
		if readErr != nil {
			if !errors.Is(readErr, io.EOF) {
				out.add(&ReplyLine{Error: "decode frame: " + readErr.Error(), Closed: true})
				out.flush()
			}
			return
		}
	}
}

// replyWriter renders a /frames stream's ReplyLines on the wire the
// request negotiated — NDJSON when enc is set, else reply records — into
// one buffer reused across batches, and hands a batch to the connection
// as one Write and one Flush.
type replyWriter struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	enc *json.Encoder // NDJSON into buf; nil on a reply-record stream
	buf bytes.Buffer
	err error // first encode failure
}

func (o *replyWriter) add(line *ReplyLine) {
	switch {
	case o.err != nil: // the stream ends before its first unencodable line
	case o.enc == nil:
		o.buf.Write(api.AppendReplyRecord(o.buf.AvailableBuffer(), line))
	default:
		o.err = o.enc.Encode(line) // fails on a non-finite report value
	}
}

// flush sends what add buffered. An error means the stream is over: a
// line could not be encoded, or the client went away.
func (o *replyWriter) flush() error {
	_, err := o.w.Write(o.buf.Bytes())
	o.buf.Reset()
	o.rc.Flush()
	return errors.Join(o.err, err)
}

// frameBatchReader reads ingest frames in greedy batches from either
// wire format. next blocks for one frame, then takes whatever is
// already buffered; it never blocks to grow a batch. With tr set, each
// frame also gets a span whose decode lap covers only time spent on
// bytes already received — a lap clock started before a blocking read
// would bill the client's think time to the server.
type frameBatchReader struct {
	br      *bufio.Reader
	binary  bool
	max     int
	tr      *telemetry.Tracer
	session string
}

// next returns the next batch. Frames decoded before a malformed one
// are returned alongside the error so no accepted input is dropped;
// err is io.EOF exactly when the stream ended cleanly. spans is nil
// when tracing is off, else index-aligned with frames.
func (f *frameBatchReader) next() ([]trace.Frame, []*telemetry.Span, error) {
	var frames []trace.Frame
	var spans []*telemetry.Span
	for len(frames) < f.max {
		// Only the first frame of a batch may block on the client.
		if len(frames) > 0 && !f.buffered() {
			break
		}
		var start time.Time
		timed := false
		if f.tr != nil {
			// Anchor before the read only when it cannot block — then
			// the decode lap measures real decode work.
			if timed = len(frames) > 0 || f.buffered(); timed {
				start = time.Now()
			}
		}
		frame, err := f.readFrame()
		if err != nil {
			return frames, spans, err
		}
		if frame == nil {
			continue // blank NDJSON line
		}
		if f.tr != nil {
			if !timed {
				// The read blocked on the wire: start the span now and
				// let its decode stage read ~0 rather than charging the
				// wait to the server.
				start = time.Now()
			}
			sp := f.tr.Begin(f.session, start)
			sp.SetK(frame.K)
			sp.Lap(telemetry.StageDecode)
			spans = append(spans, sp)
		}
		frames = append(frames, *frame)
	}
	return frames, spans, nil
}

// finishSpans closes a batch's spans after its replies are written:
// one reply-stage lap each, then the terminal observe.
func finishSpans(spans []*telemetry.Span) {
	for _, sp := range spans {
		sp.Lap(telemetry.StageReply)
		sp.Finish()
	}
}

// buffered reports whether a complete frame is already in the read
// buffer and can be decoded without touching the connection.
func (f *frameBatchReader) buffered() bool {
	if f.binary {
		return trace.FrameRecordBuffered(f.br)
	}
	n := f.br.Buffered()
	if n == 0 {
		return false
	}
	peek, err := f.br.Peek(n)
	return err == nil && bytes.IndexByte(peek, '\n') >= 0
}

// readFrame decodes one frame, blocking as needed. A nil frame with nil
// error is a blank NDJSON line (skipped by the caller).
func (f *frameBatchReader) readFrame() (*trace.Frame, error) {
	if f.binary {
		return trace.ReadFrameRecord(f.br)
	}
	line, err := f.br.ReadBytes('\n')
	if len(bytes.TrimSpace(line)) == 0 {
		// Blank line, or a clean/torn end of stream.
		if err == nil {
			return nil, nil
		}
		return nil, err
	}
	// An unterminated final line is still one complete frame.
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	var frame trace.Frame
	if jerr := json.Unmarshal(line, &frame); jerr != nil {
		return nil, jerr
	}
	return &frame, nil
}

func frameReadings(frame *trace.Frame) map[string]mat.Vec {
	readings := make(map[string]mat.Vec, len(frame.Readings))
	for name, z := range frame.Readings {
		readings[name] = mat.Vec(z)
	}
	return readings
}

// errorCode maps a fleet error to its machine-readable api code. The
// vocabulary (and the status each sentinel travels with, per endpoint)
// is pinned by the API contract test; clients dispatch on the code
// instead of string-matching messages.
func errorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBackpressure):
		return api.CodeBackpressure
	case errors.Is(err, ErrMoved):
		return api.CodeMoved
	case errors.Is(err, ErrMigrating):
		return api.CodeMigrating
	case errors.Is(err, ErrSessionNotFound):
		return api.CodeNotFound
	case errors.Is(err, ErrClosed):
		return api.CodeClosed
	case errors.Is(err, ErrTooManySessions):
		return api.CodeSessionCap
	case errors.Is(err, ErrSessionLive):
		return api.CodeSessionLive
	case errors.Is(err, ErrDurabilityDisabled):
		return api.CodeDurabilityDisabled
	default:
		return api.CodeBadRequest
	}
}

// replyCode is errorCode for per-frame ReplyLine errors, where an
// unrecognized error is a detector-side failure, not a bad request.
func replyCode(err error) string {
	if code := errorCode(err); code != api.CodeBadRequest {
		return code
	}
	if errors.Is(err, core.ErrFrameShape) || errors.Is(err, core.ErrFrameNotFinite) {
		// The frame itself is malformed (a command or reading of the
		// wrong length, or not finite): the client's fault, and the
		// session lives on.
		return api.CodeBadRequest
	}
	return api.CodeInternal
}

// terminalErr reports whether a streaming-ingest error ends the session
// from this node's point of view (ReplyLine.Closed).
func terminalErr(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrSessionNotFound) || errors.Is(err, ErrMoved) || errors.Is(err, ErrStepPanic)
}

// lookupStatus is the HTTP status of a failed session lookup: 410 with
// a redirect envelope when the session migrated away, else 404.
func lookupStatus(err error) int {
	if errors.Is(err, ErrMoved) {
		return http.StatusGone
	}
	return http.StatusNotFound
}

// envelope renders err as the shared machine-readable error envelope,
// attaching the retry hint (backpressure, migrating) and the redirect
// location (moved) when the concrete error carries one.
func envelope(err error) api.Error {
	e := api.Error{Message: err.Error(), Code: errorCode(err)}
	var bp *BackpressureError
	if errors.As(err, &bp) {
		e.RetryAfterMs = bp.RetryAfter.Milliseconds()
	}
	if e.Code == api.CodeMigrating {
		// The drain+export+ship of a small session takes milliseconds;
		// a retrying client should come back quickly and be prepared to
		// chase a "moved" redirect.
		e.RetryAfterMs = 50
	}
	var mv *MovedError
	if errors.As(err, &mv) {
		e.Location = mv.Target
	}
	return e
}

func httpError(w http.ResponseWriter, status int, err error) {
	e := envelope(err)
	if status >= http.StatusInternalServerError && e.Code == api.CodeBadRequest {
		e.Code = api.CodeInternal
	}
	writeJSON(w, status, e)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
