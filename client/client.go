// Package client is the typed Go client of the roboads /v1 fleet API.
// It speaks exactly the wire structs of internal/api against a single
// node or a router, decodes every non-2xx response into *api.Error (so
// callers dispatch on machine-readable codes, not message strings), and
// absorbs backpressure on Step with the server's exact millisecond
// retry hint. Everything in cmd/ that talks /v1 goes through this
// package; raw net/http /v1 calls live only here and in the router.
package client

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
	"sync"
	"time"

	"roboads/internal/api"
	"roboads/internal/trace"
)

// Client talks to one roboads node (or router) at a base URL. The zero
// value is not usable; construct with New. Safe for concurrent use.
type Client struct {
	base          string
	hc            *http.Client
	retryHook     func(time.Duration)
	headerTimeout time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryHook observes every backpressure pause Step is about to
// take, e.g. to count retries or cap total wait in tests.
func WithRetryHook(f func(time.Duration)) Option { return func(c *Client) { c.retryHook = f } }

// WithHeaderTimeout bounds how long a streaming open (Stream, Replicate)
// may wait for the server's response headers before the attempt is
// failed. 0 restores the default (30s); it cannot be disabled, because
// an unbounded wait can never return: see doStream.
func WithHeaderTimeout(d time.Duration) Option { return func(c *Client) { c.headerTimeout = d } }

// New builds a client for base, which may omit the scheme
// ("127.0.0.1:8080" and "http://127.0.0.1:8080" are equivalent).
func New(base string, opts ...Option) *Client {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{base: base, hc: http.DefaultClient, headerTimeout: 30 * time.Second}
	for _, o := range opts {
		o(c)
	}
	if c.headerTimeout <= 0 {
		c.headerTimeout = 30 * time.Second
	}
	return c
}

// errHeaderTimeout fails a streaming open whose response headers did not
// arrive within the client's header timeout.
var errHeaderTimeout = errors.New("client: timed out waiting for response headers")

// doStream issues a streaming request whose body is an open-ended pipe
// (Stream's frames, Replicate's acks) and waits for response headers.
//
// The watchdog is load-bearing, not a courtesy. If the peer dies after
// the TCP connect but before its response headers, net/http cannot fail
// the round trip until its write loop returns — and the write loop is
// blocked reading our pipe, which produces nothing until the caller has
// a stream to send on. Left alone, Do blocks forever (transport.go
// mapRoundTripError waits on writeLoopDone unconditionally). Closing the
// pipe writer from a timer is the only lever that unblocks the write
// loop and turns the wedged open into an error the caller can retry.
func (c *Client) doStream(req *http.Request, pw *io.PipeWriter) (*http.Response, error) {
	watchdog := time.AfterFunc(c.headerTimeout, func() {
		pw.CloseWithError(errHeaderTimeout)
	})
	resp, err := c.hc.Do(req)
	// A fire racing a successful Do leaves a stream whose sends fail
	// with errHeaderTimeout; callers already treat a broken stream as a
	// reconnect, so the race costs one retry, never a hang.
	watchdog.Stop()
	if err != nil {
		pw.CloseWithError(err)
		return nil, err
	}
	return resp, nil
}

// Base returns the normalized base URL the client targets.
func (c *Client) Base() string { return c.base }

// decodeError turns a non-2xx response into an *api.Error. Bodies that
// are not an envelope (proxies, panics) become a bare message with the
// status-derived code left empty.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	e := &api.Error{Status: resp.StatusCode}
	if err := json.Unmarshal(body, e); err != nil || e.Message == "" {
		e.Message = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return e
}

// doJSON posts (or gets) a JSON request and decodes a 2xx JSON reply
// into out; non-2xx decodes into *api.Error.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Create opens a session (or restores a persisted one when req.Restore
// is set) and returns its identity.
func (c *Client) Create(ctx context.Context, req api.CreateRequest) (api.SessionInfo, error) {
	var info api.SessionInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions", req, &info)
	return info, err
}

// List returns every live session's status.
func (c *Client) List(ctx context.Context) ([]api.SessionStatus, error) {
	var out []api.SessionStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out, err
}

// Status returns one session's status. A migrated session answers an
// *api.Error with code "moved" whose Location names the new node.
func (c *Client) Status(ctx context.Context, id string) (api.SessionStatus, error) {
	var out api.SessionStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &out)
	return out, err
}

// Delete closes a session and discards its persisted state.
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Checkpoint snapshots a session now, rotating its WAL.
func (c *Client) Checkpoint(ctx context.Context, id string) (api.CheckpointInfo, error) {
	var out api.CheckpointInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+id+"/checkpoint", nil, &out)
	return out, err
}

// Migrate live-migrates a session to the node at target (a base URL).
func (c *Client) Migrate(ctx context.Context, id, target string) (api.MigrateResponse, error) {
	var out api.MigrateResponse
	err := c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+id+"/migrate", api.MigrateRequest{Target: target}, &out)
	return out, err
}

// Import ships a session snapshot (+ WAL tail) to this node — the
// receiving half of a live migration.
func (c *Client) Import(ctx context.Context, snapshot []byte, frames []*trace.Frame) (api.SessionInfo, error) {
	var info api.SessionInfo
	err := c.doJSON(ctx, http.MethodPost, "/v1/internal/sessions/import",
		api.ImportRequest{Snapshot: snapshot, Frames: frames}, &info)
	return info, err
}

// DebugTrace fetches the frame-lifecycle trace snapshot as raw JSON.
func (c *Client) DebugTrace(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.doJSON(ctx, http.MethodGet, "/v1/debug/trace", nil, &out)
	return out, err
}

// Healthy probes GET /healthz (process up).
func (c *Client) Healthy(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready probes GET /readyz (recovery finished, accepting work).
func (c *Client) Ready(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Step posts one frame to the single-frame endpoint and returns its
// reply line. Backpressure (429) is absorbed here: the client sleeps
// the server's exact ReplyLine.RetryAfterMs hint (falling back to the
// whole-second Retry-After header, then 25ms) and resubmits until ctx
// ends. A frame-level detector error comes back in the line (Error set,
// nil Go error), matching the streaming endpoint's per-frame replies;
// transport and session-level failures return *api.Error.
func (c *Client) Step(ctx context.Context, id string, frame *trace.Frame) (api.ReplyLine, error) {
	body, err := json.Marshal(frame)
	if err != nil {
		return api.ReplyLine{}, err
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions/"+id+"/step", bytes.NewReader(body))
		if err != nil {
			return api.ReplyLine{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			return api.ReplyLine{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			var line api.ReplyLine
			derr := json.NewDecoder(resp.Body).Decode(&line)
			header := resp.Header
			resp.Body.Close()
			if derr != nil {
				return api.ReplyLine{}, derr
			}
			d := retryDelay(header, line.RetryAfterMs)
			if c.retryHook != nil {
				c.retryHook(d)
			}
			select {
			case <-ctx.Done():
				return api.ReplyLine{}, ctx.Err()
			case <-time.After(d):
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return api.ReplyLine{}, decodeError(resp)
		}
		var line api.ReplyLine
		derr := json.NewDecoder(resp.Body).Decode(&line)
		resp.Body.Close()
		if derr != nil {
			return api.ReplyLine{}, derr
		}
		return line, nil
	}
}

// retryDelay resolves a 429's backoff: the exact millisecond hint when
// present, else the whole-second Retry-After header, else 25ms.
func retryDelay(header http.Header, hintMs int64) time.Duration {
	if hintMs > 0 {
		return time.Duration(hintMs) * time.Millisecond
	}
	if secs, err := strconv.Atoi(header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 25 * time.Millisecond
}

// Stream is one full-duplex /frames ingest: Send ships frames, Recv
// reads the in-order reply lines. Send and Recv may run concurrently
// (one goroutine each); CloseSend ends the frame stream so Recv drains
// the remaining replies to io.EOF.
type Stream struct {
	pw     *io.PipeWriter
	resp   *http.Response
	sc     *bufio.Scanner   // NDJSON replies
	rr     *api.ReplyReader // reply records; set instead of sc
	binary bool

	sendMu sync.Mutex
	buf    []byte
}

// Stream opens the streaming ingest for a session. With binary true the
// frames travel as binary frame records (the compact wire) and the
// request asks for binary reply records too (api.ContentTypeBinaryReplies);
// otherwise both directions are NDJSON. The reply decoder follows the
// response's Content-Type, so a server that predates reply records (or
// a proxy that drops the Accept header) is read as NDJSON and Recv
// returns the same ReplyLines either way.
func (c *Client) Stream(ctx context.Context, id string, binary bool) (*Stream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions/"+id+"/frames", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if binary {
		req.Header.Set("Content-Type", api.ContentTypeBinaryFrames)
		req.Header.Set("Accept", api.ContentTypeBinaryReplies)
	} else {
		req.Header.Set("Content-Type", api.ContentTypeNDJSON)
	}
	resp, err := c.doStream(req, pw)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	s := &Stream{pw: pw, resp: resp, binary: binary}
	if resp.Header.Get("Content-Type") == api.ContentTypeBinaryReplies {
		s.rr = api.NewReplyReader(resp.Body)
	} else {
		s.sc = bufio.NewScanner(resp.Body)
		s.sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	}
	return s, nil
}

// Send ships one frame. Safe for one sender goroutine at a time.
func (s *Stream) Send(frame *trace.Frame) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.binary {
		s.buf = trace.AppendFrameRecord(s.buf[:0], frame)
	} else {
		data, err := json.Marshal(frame)
		if err != nil {
			return err
		}
		s.buf = append(append(s.buf[:0], data...), '\n')
	}
	_, err := s.pw.Write(s.buf)
	return err
}

// CloseSend ends the frame stream; the server finishes replying to
// every accepted frame and closes the response.
func (s *Stream) CloseSend() error { return s.pw.Close() }

// Recv returns the next reply line; io.EOF after the final reply of a
// closed stream.
func (s *Stream) Recv() (api.ReplyLine, error) {
	if s.rr != nil {
		line, err := s.rr.Read()
		if err != nil && !errors.Is(err, io.EOF) {
			err = fmt.Errorf("reply record: %w", err)
		}
		return line, err
	}
	for s.sc.Scan() {
		if len(bytes.TrimSpace(s.sc.Bytes())) == 0 {
			continue
		}
		var line api.ReplyLine
		if err := json.Unmarshal(s.sc.Bytes(), &line); err != nil {
			return api.ReplyLine{}, fmt.Errorf("reply line: %w", err)
		}
		return line, nil
	}
	if err := s.sc.Err(); err != nil {
		return api.ReplyLine{}, err
	}
	return api.ReplyLine{}, io.EOF
}

// Close tears the stream down (both directions).
func (s *Stream) Close() error {
	s.pw.Close()
	return s.resp.Body.Close()
}

// ReplStream is the follower side of a /v1/internal/replicate stream:
// Recv reads the primary's records, Ack confirms durable application.
type ReplStream struct {
	pw   *io.PipeWriter
	resp *http.Response
	sc   *bufio.Scanner

	ackMu sync.Mutex
}

// Replicate opens a replication stream, announcing the follower's
// durable cursor per session (absent = needs a snapshot).
func (c *Client) Replicate(ctx context.Context, cursors map[string]int) (*ReplStream, error) {
	hello, err := json.Marshal(api.ReplHello{Cursors: cursors})
	if err != nil {
		return nil, err
	}
	hello = append(hello, '\n')
	pr, pw := io.Pipe()
	// The hello line precedes the (open-ended) ack pipe on one body.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/internal/replicate",
		io.MultiReader(bytes.NewReader(hello), pr))
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", api.ContentTypeNDJSON)
	resp, err := c.doStream(req, pw)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	return &ReplStream{pw: pw, resp: resp, sc: sc}, nil
}

// Recv returns the primary's next replication record; io.EOF when the
// stream ends.
func (r *ReplStream) Recv() (api.ReplRecord, error) {
	for r.sc.Scan() {
		if len(bytes.TrimSpace(r.sc.Bytes())) == 0 {
			continue
		}
		var rec api.ReplRecord
		if err := json.Unmarshal(r.sc.Bytes(), &rec); err != nil {
			return api.ReplRecord{}, fmt.Errorf("replication record: %w", err)
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return api.ReplRecord{}, err
	}
	return api.ReplRecord{}, io.EOF
}

// Ack tells the primary the follower has made session durable through
// seq. Safe concurrently with Recv.
func (r *ReplStream) Ack(session string, seq int) error {
	data, err := json.Marshal(api.ReplAck{Session: session, Seq: seq})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	_, err = r.pw.Write(data)
	return err
}

// Close tears the stream down.
func (r *ReplStream) Close() error {
	r.pw.Close()
	return r.resp.Body.Close()
}

// IsCode reports whether err is an *api.Error carrying the given code —
// sugar over api.IsCode for callers that already import only client.
func IsCode(err error, code string) bool { return api.IsCode(err, code) }
