// Package client is the typed Go client of the roboads /v1 fleet API.
// It speaks exactly the wire structs of internal/api against a single
// node or a router, decodes every non-2xx response into *api.Error (so
// callers dispatch on machine-readable codes, not message strings), and
// absorbs backpressure on Step with the server's exact millisecond
// retry hint. Everything in cmd/ that talks /v1 goes through this
// package; raw net/http /v1 calls live only here and in the router.
//
// Unary calls go through an *http.Client. A stream (Stream, Replicate)
// dials the node itself and opens with an HTTP/1.1 POST of a chunked
// body, bounded by the ctx deadline and the header timeout; then each
// Send or Ack writes one chunk on the caller's goroutine, and ctx's end
// closes the connection. Streams speak plain http only, bypassing the
// HTTP client's transport and any HTTP_PROXY.
package client

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
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

// WithHTTPClient substitutes the *http.Client of the unary calls
// (timeouts, transports, test doubles). The default is
// http.DefaultClient. Streams do not use it: they dial the node
// themselves, so neither its transport nor HTTP_PROXY applies to them.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryHook observes every backpressure pause Step is about to
// take, e.g. to count retries or cap total wait in tests.
func WithRetryHook(f func(time.Duration)) Option { return func(c *Client) { c.retryHook = f } }

// WithHeaderTimeout bounds a streaming open (Stream, Replicate): dial,
// request and response headers, unless the ctx deadline comes first. 0
// restores the default (30s); it cannot be disabled, so a peer that
// accepts and never answers cannot hold a reconnect forever.
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
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
			defer resp.Body.Close()
			return api.ReplyLine{}, decodeError(resp)
		}
		var line api.ReplyLine
		err = json.NewDecoder(resp.Body).Decode(&line)
		resp.Body.Close()
		if err != nil {
			return api.ReplyLine{}, err
		}
		if resp.StatusCode == http.StatusOK {
			return line, nil
		}
		d := retryDelay(resp.Header, line.RetryAfterMs)
		if c.retryHook != nil {
			c.retryHook(d)
		}
		select {
		case <-ctx.Done():
			return api.ReplyLine{}, ctx.Err()
		case <-time.After(d):
		}
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

// duplex is a stream's own connection: request-body chunks written on
// the sender's goroutine out, the response body in.
type duplex struct {
	conn net.Conn
	resp *http.Response
	sc   *bufio.Scanner // NDJSON response lines, unless nil
	ctx  context.Context
	stop func() bool // unregisters the close on ctx's end

	mu    sync.Mutex // one chunk at a time; guards buf and ended
	buf   []byte
	ended bool
}

// openStream dials the node, POSTs to path a chunked body that stays
// open, its first chunk (if any) sent before the answer, and reads the
// response headers under a deadline on the connection: the earlier of
// ctx's and the header timeout. Connection: close (true: the connection
// carries this one exchange) makes a Go server refuse an open (404, 410)
// at once instead of first draining a body that has no end.
func (c *Client) openStream(ctx context.Context, path, contentType, accept string, first []byte) (*duplex, error) {
	u, err := url.Parse(c.base + path)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("client: cannot stream over %s: streams speak plain http only", u.Scheme)
	}
	deadline := time.Now().Add(c.headerTimeout)
	ctxDeadline, byCtx := ctx.Deadline()
	if byCtx = byCtx && ctxDeadline.Before(deadline); byCtx {
		deadline = ctxDeadline
	}
	addr := net.JoinHostPort(u.Hostname(), cmp.Or(u.Port(), "80"))
	d := &duplex{ctx: ctx}
	conn, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, d.openErr(byCtx, err)
	}
	d.conn, d.stop = conn, context.AfterFunc(ctx, func() { conn.Close() })
	conn.SetDeadline(deadline)
	req := fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: Go-http-client/1.1\r\nConnection: close\r\n"+
		"Transfer-Encoding: chunked\r\nContent-Type: %s\r\n", u.RequestURI(), u.Host, contentType)
	if accept != "" {
		req = fmt.Appendf(req, "Accept: %s\r\n", accept)
	}
	if _, err = conn.Write(append(req, "\r\n"...)); err == nil && first != nil {
		err = d.send(first)
	}
	if err == nil {
		d.resp, err = http.ReadResponse(bufio.NewReader(conn), &http.Request{Method: http.MethodPost, URL: u})
	}
	switch {
	case err != nil:
		err = d.openErr(byCtx, err)
	case d.resp.StatusCode != http.StatusOK:
		err = decodeError(d.resp)
	default:
		conn.SetDeadline(time.Time{})
		return d, nil
	}
	d.Close()
	return nil, err
}

// openErr names why an open failed: ctx's end if it ended (its close may
// be what broke the open), else which deadline fell, if one did.
func (d *duplex) openErr(byCtx bool, err error) error {
	if d.ctx.Err() == nil && errors.Is(err, os.ErrDeadlineExceeded) {
		err = errors.New("timed out waiting for response headers")
		if byCtx {
			err = context.DeadlineExceeded
		}
	}
	return fmt.Errorf("client: open stream: %w", d.err(err))
}

// send writes record as one chunk, in one Write on the caller's
// goroutine. The caller holds mu.
func (d *duplex) send(record []byte) error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	if d.ended {
		return errors.New("client: send after CloseSend")
	}
	d.buf = append(strconv.AppendInt(d.buf[:0], int64(len(record)), 16), "\r\n"...)
	d.buf = append(append(d.buf, record...), "\r\n"...)
	_, err := d.conn.Write(d.buf)
	return d.err(err)
}

// err reports a connection error as ctx's end, which closed it, if ctx ended.
func (d *duplex) err(err error) error {
	if err != nil && d.ctx.Err() != nil {
		return fmt.Errorf("%w (%v)", d.ctx.Err(), err)
	}
	return err
}

// Close tears the stream down, both directions.
func (d *duplex) Close() error {
	d.stop()
	return d.conn.Close()
}

// Stream is one full-duplex /frames ingest: Send ships frames, Recv
// reads the in-order reply lines, and each may run on its own goroutine.
// CloseSend ends the frame stream so Recv drains the remaining replies
// to io.EOF; ctx's end closes the stream, failing Send and Recv with it.
type Stream struct {
	*duplex
	rr     *api.ReplyReader // reply records; set instead of sc
	binary bool
	record []byte // guarded by mu
}

// Stream opens the streaming ingest for a session (see the package doc).
// With binary true the frames travel as binary frame records (the
// compact wire) and the request asks for binary reply records too
// (api.ContentTypeBinaryReplies); otherwise both directions are NDJSON.
// The reply decoder follows the response's Content-Type, so a server
// that predates reply records (or a proxy that drops the Accept header)
// is read as NDJSON and Recv returns the same ReplyLines either way.
func (c *Client) Stream(ctx context.Context, id string, binary bool) (*Stream, error) {
	contentType, accept := api.ContentTypeNDJSON, ""
	if binary {
		contentType, accept = api.ContentTypeBinaryFrames, api.ContentTypeBinaryReplies
	}
	d, err := c.openStream(ctx, "/v1/sessions/"+id+"/frames", contentType, accept, nil)
	if err != nil {
		return nil, err
	}
	s := &Stream{duplex: d, binary: binary}
	if d.resp.Header.Get("Content-Type") == api.ContentTypeBinaryReplies {
		s.rr = api.NewReplyReader(d.resp.Body)
	} else {
		d.sc = bufio.NewScanner(d.resp.Body)
		d.sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	}
	return s, nil
}

// Send ships one frame. Safe for one sender goroutine at a time.
func (s *Stream) Send(frame *trace.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.binary {
		s.record = trace.AppendFrameRecord(s.record[:0], frame)
	} else {
		data, err := json.Marshal(frame)
		if err != nil {
			return err
		}
		s.record = append(append(s.record[:0], data...), '\n')
	}
	return s.send(s.record)
}

// CloseSend ends the frame stream; the server finishes replying to
// every accepted frame and closes the response.
func (s *Stream) CloseSend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return nil
	}
	s.ended = true
	_, err := io.WriteString(s.conn, "0\r\n\r\n")
	return s.err(err)
}

// Recv returns the next reply line; io.EOF after the final reply of a
// closed stream.
func (s *Stream) Recv() (api.ReplyLine, error) {
	if s.rr != nil {
		line, err := s.rr.Read()
		if err != nil && !errors.Is(err, io.EOF) {
			err = s.err(fmt.Errorf("reply record: %w", err))
		}
		return line, err
	}
	return recvJSON[api.ReplyLine](s.duplex, "reply line")
}

// recvJSON decodes the next non-blank NDJSON line of the response; what
// names the line in a decode error.
func recvJSON[T any](d *duplex, what string) (T, error) {
	var v, zero T
	for d.sc.Scan() {
		if len(bytes.TrimSpace(d.sc.Bytes())) == 0 {
			continue
		}
		if err := json.Unmarshal(d.sc.Bytes(), &v); err != nil {
			return zero, fmt.Errorf("%s: %w", what, err)
		}
		return v, nil
	}
	if err := d.sc.Err(); err != nil {
		return zero, d.err(err)
	}
	return zero, io.EOF
}

// ReplStream is the follower side of a /v1/internal/replicate stream:
// Recv reads the primary's records, Ack confirms durable application.
// Like Stream, it has a connection of its own that ctx's end closes.
type ReplStream struct{ *duplex }

// Replicate opens a replication stream, announcing the follower's
// durable cursor per session (absent = needs a snapshot).
func (c *Client) Replicate(ctx context.Context, cursors map[string]int) (*ReplStream, error) {
	hello, err := json.Marshal(api.ReplHello{Cursors: cursors})
	if err != nil {
		return nil, err
	}
	d, err := c.openStream(ctx, "/v1/internal/replicate", api.ContentTypeNDJSON, "", append(hello, '\n'))
	if err != nil {
		return nil, err
	}
	d.sc = bufio.NewScanner(d.resp.Body)
	d.sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	return &ReplStream{d}, nil
}

// Recv returns the primary's next replication record; io.EOF when the
// stream ends.
func (r *ReplStream) Recv() (api.ReplRecord, error) {
	return recvJSON[api.ReplRecord](r.duplex, "replication record")
}

// Ack tells the primary the follower has made session durable through
// seq. Safe concurrently with Recv.
func (r *ReplStream) Ack(session string, seq int) error {
	data, err := json.Marshal(api.ReplAck{Session: session, Seq: seq})
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.send(append(data, '\n'))
}

// IsCode reports whether err is an *api.Error carrying the given code —
// sugar over api.IsCode for callers that already import only client.
func IsCode(err error, code string) bool { return api.IsCode(err, code) }
