package client_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// the same Stream call falls back to NDJSON replies. The node's
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
