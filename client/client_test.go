package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/attack"
	"roboads/internal/fleet"
	"roboads/internal/router"
	"roboads/internal/sim"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

var ctx = context.Background()

// mission returns the first n monitor-input frames of a clean simulated
// Khepera run.
func mission(t *testing.T, seed int64, n int) []*trace.Frame {
	t.Helper()
	setup, err := sim.NewKhepera(sim.LabMission(), &attack.Scenario{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*trace.Frame, 0, n)
	for len(frames) < n {
		rec, err := setup.Sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		frame := &trace.Frame{K: rec.K, U: rec.UPlanned, Readings: make(map[string][]float64, len(rec.Readings))}
		for name, z := range rec.Readings {
			frame.Readings[name] = z
		}
		frames = append(frames, frame)
	}
	return frames
}

// node is a fleet manager behind httptest, with its metrics in reach.
type node struct {
	srv *httptest.Server
	reg *telemetry.Registry
}

// newNode serves a fleet manager's /v1 API (plus the /readyz a router
// probes) behind wrap, which may tamper with requests on their way in.
func newNode(t *testing.T, wrap func(http.Handler) http.Handler) *node {
	t.Helper()
	reg := telemetry.NewRegistry()
	m, err := fleet.NewManager(fleet.Config{Workers: 2, Build: fleet.DefaultBuilder(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", m.Handler())
	mux.HandleFunc("GET /readyz", func(http.ResponseWriter, *http.Request) {})
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		m.Shutdown(sctx)
	})
	return &node{srv: srv, reg: reg}
}

// streams reads the node's per-wire stream-open counters.
func (n *node) streams() (binary, ndjson int64) {
	return n.reg.CounterValue(fleet.MetricStreams + `{replies="binary"}`),
		n.reg.CounterValue(fleet.MetricStreams + `{replies="ndjson"}`)
}

func createSession(t *testing.T, c *client.Client) string {
	t.Helper()
	info, err := c.Create(ctx, api.CreateRequest{Robot: "khepera"})
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// lockstep streams frames into a fresh session one round trip at a time
// and returns the reply lines, having drained the stream to io.EOF.
func lockstep(t *testing.T, c *client.Client, binary bool, frames []*trace.Frame) []api.ReplyLine {
	t.Helper()
	s, err := c.Stream(ctx, createSession(t, c), binary)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lines := make([]api.ReplyLine, 0, len(frames))
	for _, f := range frames {
		if err := s.Send(f); err != nil {
			t.Fatal(err)
		}
		line, err := s.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", f.K, err)
		}
		lines = append(lines, line)
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if line, err := s.Recv(); err != io.EOF {
		t.Fatalf("after CloseSend: (%+v, %v), want io.EOF", line, err)
	}
	return lines
}

func requireSameLines(t *testing.T, what string, got, want []api.ReplyLine) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: line %d diverged:\ngot  %+v %+v\nwant %+v %+v", what, i, got[i], got[i].Report, want[i], want[i].Report)
		}
	}
}

// TestStreamWiresAgree: one mission through per-frame Step, an NDJSON
// stream and a binary stream yields DeepEqual reply lines — directly,
// through a router in front of the node, and against a server that never
// sees the Accept header (an old server, a header-dropping proxy), where
// the same Stream call falls back to NDJSON replies; and pipelined, from
// a sender goroutine, through a base URL with a path prefix. The node's
// roboads_fleet_streams_total says which reply wire each stream got.
func TestStreamWiresAgree(t *testing.T) {
	frames := mission(t, 21, 40)
	n := newNode(t, nil)
	c := client.New(n.srv.URL)

	id := createSession(t, c)
	want := make([]api.ReplyLine, 0, len(frames))
	for _, f := range frames {
		line, err := c.Step(ctx, id, f)
		if err != nil {
			t.Fatal(err)
		}
		if line.Report == nil || line.Report.DaValid != (line.Report.Da != nil) {
			t.Fatalf("step %d: %+v %+v", f.K, line, line.Report)
		}
		want = append(want, line)
	}

	requireSameLines(t, "ndjson stream", lockstep(t, c, false, frames), want)
	if b, j := n.streams(); b != 0 || j != 1 {
		t.Fatalf("after the NDJSON stream: binary=%d ndjson=%d, want 0 and 1", b, j)
	}
	requireSameLines(t, "binary stream", lockstep(t, c, true, frames), want)
	if b, j := n.streams(); b != 1 || j != 1 {
		t.Fatalf("after the binary stream: binary=%d ndjson=%d, want 1 and 1", b, j)
	}

	rt, err := router.New(router.Config{Nodes: []string{n.srv.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	requireSameLines(t, "binary stream through the router", lockstep(t, client.New(front.URL), true, frames), want)
	if b, j := n.streams(); b != 2 || j != 1 {
		t.Fatalf("after the routed binary stream: binary=%d ndjson=%d, want 2 and 1", b, j)
	}

	deaf := newNode(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept")
			h.ServeHTTP(w, r)
		})
	})
	requireSameLines(t, "binary stream, Accept dropped", lockstep(t, client.New(deaf.srv.URL), true, frames), want)
	if b, j := deaf.streams(); b != 0 || j != 1 {
		t.Fatalf("Accept dropped: binary=%d ndjson=%d, want 0 and 1", b, j)
	}

	prefixed := newNode(t, func(h http.Handler) http.Handler { return http.StripPrefix("/fleet", h) })
	pc := client.New(prefixed.srv.URL + "/fleet/")
	requireSameLines(t, "pipelined binary stream under a path prefix", pipelined(t, pc, true, frames), want)
	requireSameLines(t, "pipelined NDJSON stream under a path prefix", pipelined(t, pc, false, frames), want)
	if b, j := prefixed.streams(); b != 1 || j != 1 {
		t.Fatalf("path prefix: binary=%d ndjson=%d, want 1 and 1", b, j)
	}
}

// pipelined streams frames into a fresh session as replay -remote does:
// one goroutine sends every frame and then CloseSend while this one
// reads the replies to io.EOF.
func pipelined(t *testing.T, c *client.Client, binary bool, frames []*trace.Frame) []api.ReplyLine {
	t.Helper()
	s, err := c.Stream(ctx, createSession(t, c), binary)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sent := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := s.Send(f); err != nil {
				sent <- err
				return
			}
		}
		sent <- s.CloseSend()
	}()
	var lines []api.ReplyLine
	for {
		line, err := s.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reply %d: %v", len(lines), err)
		}
		lines = append(lines, line)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStreamErrorsArriveAsLines: a refused frame mid-stream and the
// terminal line of a session closed under the stream are ReplyLines, not
// transport errors, on both reply wires; and CloseSend after pipelined
// sends drains every outstanding reply, then io.EOF.
func TestStreamErrorsArriveAsLines(t *testing.T) {
	frames := mission(t, 27, 12)
	bad := *frames[5]
	bad.U = bad.U[:1]
	n := newNode(t, nil)
	c := client.New(n.srv.URL)
	for _, binary := range []bool{false, true} {
		id := createSession(t, c)
		s, err := c.Stream(ctx, id, binary)
		if err != nil {
			t.Fatal(err)
		}
		sent := append(append(append([]*trace.Frame(nil), frames[:5]...), &bad), frames[5:]...)
		for _, f := range sent { // pipelined: no reply is read yet
			if err := s.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sent {
			line, err := s.Recv()
			if err != nil {
				t.Fatalf("binary=%v reply %d: %v", binary, i, err)
			}
			if refused := i == 5; refused != (line.Code == api.CodeBadRequest) || refused != (line.Report == nil) || line.Closed {
				t.Fatalf("binary=%v reply %d: %+v", binary, i, line)
			}
		}
		if err := c.Delete(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := s.Send(frames[0]); err != nil {
			t.Fatal(err)
		}
		line, err := s.Recv()
		if err != nil || !line.Closed || line.Report != nil || line.Error == "" ||
			(line.Code != api.CodeClosed && line.Code != api.CodeNotFound) {
			t.Fatalf("binary=%v after Delete: (%+v, %v), want a closed line", binary, line, err)
		}
		if line, err := s.Recv(); err != io.EOF {
			t.Fatalf("binary=%v after the closed line: (%+v, %v), want io.EOF", binary, line, err)
		}
		s.Close()

		// CloseSend with replies still outstanding drains them all.
		s, err = c.Stream(ctx, createSession(t, c), binary)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := s.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CloseSend(); err != nil {
			t.Fatal(err)
		}
		for i := range frames {
			if line, err := s.Recv(); err != nil || line.Report == nil {
				t.Fatalf("binary=%v draining reply %d: (%+v, %v)", binary, i, line, err)
			}
		}
		if line, err := s.Recv(); err != io.EOF {
			t.Fatalf("binary=%v drained: (%+v, %v), want io.EOF", binary, line, err)
		}
		s.Close()
	}
}

// TestStreamDamagedReplyRecord: a reply record torn by a dying server, or
// with one bit flipped on the way, ends Recv with an error wrapping the
// codec's trace.ErrCorrupt after the intact records before it — never
// with a short or wrong ReplyLine.
func TestStreamDamagedReplyRecord(t *testing.T) {
	good := api.ReplyLine{K: 3, Report: &api.WireReport{K: 3, Mode: "ref=lidar", Condition: "S0/A0",
		X: []float64{0.5, 0.25, -1}, Weights: []float64{1}}}
	record := api.AppendReplyRecord(nil, &good)
	flipped := append([]byte(nil), record...)
	flipped[len(flipped)/2] ^= 0x10
	for what, tail := range map[string][]byte{"torn": record[:len(record)-7], "bit-flipped": flipped} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rc := http.NewResponseController(w)
			rc.EnableFullDuplex() // reply while the request body is still open
			w.Header().Set("Content-Type", api.ContentTypeBinaryReplies)
			w.Write(record)
			w.Write(tail)
			rc.Flush()
		}))
		s, err := client.New(srv.URL).Stream(ctx, "s-000001", true)
		if err != nil {
			t.Fatal(err)
		}
		if line, err := s.Recv(); err != nil || !reflect.DeepEqual(line, good) {
			t.Fatalf("%s: intact record read as (%+v, %v)", what, line, err)
		}
		if line, err := s.Recv(); !errors.Is(err, trace.ErrCorrupt) || !reflect.DeepEqual(line, api.ReplyLine{}) {
			t.Fatalf("%s: damaged record read as (%+v, %v), want trace.ErrCorrupt", what, line, err)
		}
		s.Close()
		srv.Close()
	}
}

var errStillRunning = errors.New("still running")

// within runs f and returns its error, or errStillRunning when f has not
// returned after d (f is then left running).
func within(d time.Duration, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return errStillRunning
	}
}

// TestStreamOpenBounded: a peer that accepts the connection and never
// answers holds neither streaming open past the caller's ctx deadline,
// nor, under a ctx that never ends, past the client's header timeout —
// the bound on a follower's reconnect before it promotes.
func TestStreamOpenBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})
	opens := map[string]func(context.Context, *client.Client) error{
		"Stream": func(ctx context.Context, c *client.Client) error {
			_, err := c.Stream(ctx, "s-000001", true)
			return err
		},
		"Replicate": func(ctx context.Context, c *client.Client) error {
			_, err := c.Replicate(ctx, map[string]int{"s-000001": 3})
			return err
		},
	}
	for name, open := range opens {
		dctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
		err := within(2*time.Second, func() error { return open(dctx, client.New(ln.Addr().String())) })
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s under a 300ms ctx: %v, want context.DeadlineExceeded within 2s", name, err)
		}
		c := client.New(ln.Addr().String(), client.WithHeaderTimeout(200*time.Millisecond))
		if err := within(2*time.Second, func() error { return open(ctx, c) }); err == nil || err == errStillRunning {
			t.Errorf("%s with a 200ms header timeout: %v, want an error within 2s", name, err)
		}
	}
}

// TestStreamCancel: cancelling the ctx a stream was opened with ends the
// stream in both directions. Send and Recv each fail with an error
// wrapping context.Canceled; neither drops a frame in silence.
func TestStreamCancel(t *testing.T) {
	frames := mission(t, 23, 2)
	n := newNode(t, nil)
	c := client.New(n.srv.URL)
	for _, binary := range []bool{false, true} {
		sctx, cancel := context.WithCancel(ctx)
		s, err := c.Stream(sctx, createSession(t, c), binary)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(frames[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recv(); err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := within(time.Second, func() error { return s.Send(frames[1]) }); !errors.Is(err, context.Canceled) {
			t.Errorf("binary=%v Send after cancel: %v, want context.Canceled within 1s", binary, err)
		}
		if err := within(time.Second, func() error { _, err := s.Recv(); return err }); !errors.Is(err, context.Canceled) {
			t.Errorf("binary=%v Recv after cancel: %v, want context.Canceled within 1s", binary, err)
		}
		s.Close()
	}
}

// TestStreamOpenRefused: a stream opened on a session the node does not
// host fails with the node's *api.Error — not_found for one it never
// had, moved with the new owner's base URL for one that migrated away.
func TestStreamOpenRefused(t *testing.T) {
	src, dst := newNode(t, nil), newNode(t, nil)
	c := client.New(src.srv.URL)
	moved := createSession(t, c)
	if _, err := c.Migrate(ctx, moved, dst.srv.URL); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ id, code, location string }{
		{"s-nope", api.CodeNotFound, ""},
		{moved, api.CodeMoved, dst.srv.URL},
	} {
		for _, binary := range []bool{false, true} {
			err := within(5*time.Second, func() error {
				s, err := c.Stream(ctx, tc.id, binary)
				if err == nil {
					s.Close()
				}
				return err
			})
			var e *api.Error
			if !errors.As(err, &e) || e.Code != tc.code || e.Location != tc.location {
				t.Errorf("%s binary=%v: %v, want code %q location %q", tc.id, binary, err, tc.code, tc.location)
			}
		}
	}
}

// TestRefusedStreamAnswersPromptly: a streaming endpoint that refuses a
// request answers at once, while the client's body is still open, and
// the server shuts down cleanly afterwards. The client is plain net/http
// without Connection: close, which leaves the server to decide what to
// do with the unread body; a handler that answered before it enabled
// full duplex had net/http drain up to 256 KB of it first, so the
// refusal waited on frames that never came.
func TestRefusedStreamAnswersPromptly(t *testing.T) {
	volatile := newNode(t, nil)
	m, err := fleet.NewManager(fleet.Config{Workers: 1, Build: fleet.DefaultBuilder(), Durability: fleet.Durability{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	durable := httptest.NewServer(m.Handler())
	defer m.Shutdown(ctx)
	rt, err := router.New(router.Config{Nodes: []string{volatile.srv.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())

	for _, tc := range []struct {
		name, url, hello string
		status           int
	}{
		{"node frames, unknown session", volatile.srv.URL + "/v1/sessions/s-nope/frames", "", http.StatusNotFound},
		{"replicate, volatile node", volatile.srv.URL + "/v1/internal/replicate", "", http.StatusNotImplemented},
		{"replicate, bad hello", durable.URL + "/v1/internal/replicate", "not a hello\n", http.StatusBadRequest},
		{"router frames, failed locate", front.URL + "/v1/sessions/s-nope/frames", "", http.StatusNotFound},
	} {
		pr, pw := io.Pipe()
		if tc.hello != "" {
			go pw.Write([]byte(tc.hello))
		}
		req, err := http.NewRequest(http.MethodPost, tc.url, pr)
		if err != nil {
			t.Fatal(err)
		}
		hc := &http.Client{Transport: &http.Transport{}}
		var resp *http.Response
		err = within(2*time.Second, func() (err error) {
			resp, err = hc.Do(req)
			return err
		})
		pw.Close()
		if err != nil {
			t.Errorf("%s: %v, want status %d within 2s", tc.name, err, tc.status)
			continue
		}
		resp.Body.Close()
		hc.CloseIdleConnections()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	for _, srv := range []*httptest.Server{front, durable, volatile.srv} {
		if err := within(2*time.Second, func() error { srv.Close(); return nil }); err != nil {
			t.Errorf("closing %s: %v", srv.URL, err)
		}
	}
}
