package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"roboads/internal/api"
	"roboads/internal/mat"
	"roboads/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = DefaultBuilder()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m, srv
}

func createSession(t *testing.T, base, robot string) SessionInfo {
	t.Helper()
	body, _ := json.Marshal(CreateRequest{Robot: robot})
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// rawReplies posts body to the streaming ingest with the given headers
// and returns the response's Content-Type and raw body.
func rawReplies(t *testing.T, base, id string, header http.Header, body []byte) (string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/frames", base, id), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header = header
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frames status = %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), out
}

// decodeReplies decodes a /frames response body the way its
// Content-Type says: reply records, else ReplyLine NDJSON.
func decodeReplies(t *testing.T, contentType string, body []byte) []ReplyLine {
	t.Helper()
	var lines []ReplyLine
	if contentType == api.ContentTypeBinaryReplies {
		rr := api.NewReplyReader(bytes.NewReader(body))
		for {
			line, err := rr.Read()
			if err == io.EOF {
				return lines
			}
			if err != nil {
				t.Fatalf("decode reply record %d: %v", len(lines), err)
			}
			lines = append(lines, line)
		}
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var line ReplyLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("decode reply line: %v", err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// streamFrames posts frames as one NDJSON body to the streaming ingest
// and decodes the per-frame reply lines.
func streamFrames(t *testing.T, base, id string, frames []trace.Frame) []ReplyLine {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, frame := range frames {
		if err := enc.Encode(frame); err != nil {
			t.Fatal(err)
		}
	}
	ct, out := rawReplies(t, base, id, http.Header{"Content-Type": {api.ContentTypeNDJSON}}, body.Bytes())
	if ct != api.ContentTypeNDJSON {
		t.Fatalf("NDJSON frames answered with Content-Type %q", ct)
	}
	return decodeReplies(t, ct, out)
}

// streamBinary posts frames as one binary frame-record body to the
// streaming ingest, asking for reply records when binaryReplies is set,
// and decodes the per-frame replies from the wire the request selects.
func streamBinary(t *testing.T, base, id string, frames []trace.Frame, binaryReplies bool) []ReplyLine {
	t.Helper()
	var body []byte
	for i := range frames {
		body = trace.AppendFrameRecord(body, &frames[i])
	}
	header, want := http.Header{"Content-Type": {ContentTypeBinaryFrames}}, api.ContentTypeNDJSON
	if binaryReplies {
		header.Set("Accept", api.ContentTypeBinaryReplies)
		want = api.ContentTypeBinaryReplies
	}
	ct, out := rawReplies(t, base, id, header, body)
	if ct != want {
		t.Fatalf("binary frames (binaryReplies=%v) answered with Content-Type %q", binaryReplies, ct)
	}
	return decodeReplies(t, ct, out)
}

// replyWires is every way a test can put frames on /frames and read the
// replies back; all of them must yield the same ReplyLines.
var replyWires = map[string]func(*testing.T, string, string, []trace.Frame) []ReplyLine{
	"ndjson-frames/ndjson-replies": streamFrames,
	"binary-frames/ndjson-replies": func(t *testing.T, base, id string, frames []trace.Frame) []ReplyLine {
		return streamBinary(t, base, id, frames, false)
	},
	"binary-frames/binary-replies": func(t *testing.T, base, id string, frames []trace.Frame) []ReplyLine {
		return streamBinary(t, base, id, frames, true)
	},
}

// TestHTTPSessionLifecycle exercises create → list → step → delete and
// the error statuses around them.
func TestHTTPSessionLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	info := createSession(t, srv.URL, "khepera")
	if info.Robot != "khepera" || len(info.Sensors) == 0 || info.Dt <= 0 {
		t.Fatalf("session info = %+v", info)
	}

	resp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("session list = %+v", list)
	}

	frame := kheperaFrames(t, 7, 1)[0]
	body, _ := json.Marshal(frame)
	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/step", srv.URL, info.ID),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var line ReplyLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || line.Report == nil || line.Error != "" {
		t.Fatalf("step reply status=%d line=%+v", resp.StatusCode, line)
	}
	if line.Report.K != frame.K || len(line.Report.X) == 0 {
		t.Fatalf("step report = %+v", line.Report)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%s", srv.URL, info.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d", resp.StatusCode)
	}

	// Creating an unknown robot is a client error.
	body, _ = json.Marshal(CreateRequest{Robot: "roomba"})
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown robot status = %d", resp.StatusCode)
	}
}

// TestHTTPStreamingMatchesLocal is the wire-equivalence test: frames
// streamed over HTTP produce reply lines whose reports are bit-for-bit
// the wire view of an in-process detector run on the same frames.
func TestHTTPStreamingMatchesLocal(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	frames := kheperaFrames(t, 21, 40)
	want := localReports(t, DefaultBuilder(), Spec{Robot: "khepera"}, frames)

	info := createSession(t, srv.URL, "khepera")
	lines := streamFrames(t, srv.URL, info.ID, frames)
	if len(lines) != len(frames) {
		t.Fatalf("got %d reply lines for %d frames", len(lines), len(frames))
	}
	got := make([]WireReport, len(lines))
	for i, line := range lines {
		if line.Error != "" || line.Report == nil {
			t.Fatalf("line %d: %+v", i, line)
		}
		got[i] = *line.Report
	}
	// The reference reports crossed encoding/json exactly once too, so
	// round-trip them for a same-representation comparison.
	var wantWire []WireReport
	buf, _ := json.Marshal(want)
	if err := json.Unmarshal(buf, &wantWire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantWire) {
		for i := range got {
			if !reflect.DeepEqual(got[i], wantWire[i]) {
				t.Fatalf("report %d diverged:\nremote %+v\nlocal  %+v", i, got[i], wantWire[i])
			}
		}
		t.Fatal("reports diverged")
	}
}

// One malformed frame — a reading of the wrong length, which used to
// panic inside NUISE on the shard worker and take the whole process down,
// or a NaN reading or infinite command, which used to fail every mode and
// be answered as an internal error — gets a bad_request reply of its own,
// and the session carries on as if the frame had never arrived: every
// later reply is the report a detector that never saw it produces. On
// every reply wire; the non-finite frames need the binary frame wire.
func TestHTTPMalformedFrameIsRefused(t *testing.T) {
	frames := kheperaFrames(t, 27, 30)
	want := localReports(t, DefaultBuilder(), Spec{Robot: "khepera"}, frames)
	var wantWire []WireReport
	buf, _ := json.Marshal(want)
	if err := json.Unmarshal(buf, &wantWire); err != nil {
		t.Fatal(err)
	}

	const at = 10
	malformed := func(u []float64, ips []float64) trace.Frame {
		bad := frames[at]
		bad.U = u
		bad.Readings = make(map[string][]float64, len(frames[at].Readings))
		for name, z := range frames[at].Readings {
			bad.Readings[name] = z
		}
		bad.Readings["ips"] = ips
		return bad
	}
	u, ips := frames[at].U, frames[at].Readings["ips"]
	cases := []struct {
		name, errPart string
		bad           trace.Frame
		binaryOnly    bool
	}{
		{"short reading", "frame shape", malformed(u, ips[:2]), false},
		{"NaN reading", "non-finite", malformed(u, []float64{math.NaN(), ips[1], ips[2]}), true},
		{"NaN command", "non-finite", malformed([]float64{math.NaN(), u[1]}, ips), true},
		{"Inf command", "non-finite", malformed([]float64{u[0], math.Inf(1)}, ips), true},
	}
	_, srv := newTestServer(t, Config{Workers: 2})
	for _, tc := range cases {
		sent := append(append(append([]trace.Frame(nil), frames[:at]...), tc.bad), frames[at:]...)
		for wire, stream := range replyWires {
			if tc.binaryOnly && strings.HasPrefix(wire, "ndjson-frames") {
				continue
			}
			info := createSession(t, srv.URL, "khepera")
			lines := stream(t, srv.URL, info.ID, sent)
			if len(lines) != len(sent) {
				t.Fatalf("%s, %s: got %d replies for %d frames", tc.name, wire, len(lines), len(sent))
			}
			if l := lines[at]; l.Report != nil || l.Code != api.CodeBadRequest || l.Closed ||
				l.K != tc.bad.K || !strings.Contains(l.Error, tc.errPart) {
				t.Fatalf("%s, %s: malformed frame answered %+v", tc.name, wire, l)
			}
			good := append(append([]ReplyLine(nil), lines[:at]...), lines[at+1:]...)
			for i, l := range good {
				if l.Error != "" || l.Report == nil {
					t.Fatalf("%s, %s: line %d: %+v", tc.name, wire, i, l)
				}
				if !reflect.DeepEqual(*l.Report, wantWire[i]) {
					t.Fatalf("%s, %s: report %d diverged after the refused frame:\nremote %+v\nlocal  %+v", tc.name, wire, i, *l.Report, wantWire[i])
				}
			}
		}
	}
}

// TestHTTPBatchBinaryMatchesPerFrameJSON is the batching determinism
// test: the same frames submitted four ways — one per-frame JSON /step
// request each, one NDJSON /frames body (batched server-side), and one
// binary /frames body answered in NDJSON and in reply records — must
// produce bit-for-bit identical reports. Batching and the wire encoding
// change scheduling and I/O, never what is computed.
func TestHTTPBatchBinaryMatchesPerFrameJSON(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, MaxBatch: 7})
	frames := kheperaFrames(t, 33, 40)

	// Reference: per-frame JSON /step (sequential submission).
	stepInfo := createSession(t, srv.URL, "khepera")
	want := make([]WireReport, 0, len(frames))
	for i := range frames {
		body, _ := json.Marshal(frames[i])
		resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/step", srv.URL, stepInfo.ID),
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var line ReplyLine
		if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if line.Error != "" || line.Report == nil {
			t.Fatalf("step %d: %+v", i, line)
		}
		want = append(want, *line.Report)
	}

	for name, stream := range replyWires {
		info := createSession(t, srv.URL, "khepera")
		lines := stream(t, srv.URL, info.ID, frames)
		if len(lines) != len(frames) {
			t.Fatalf("%s: got %d reply lines for %d frames", name, len(lines), len(frames))
		}
		got := make([]WireReport, len(lines))
		for i, line := range lines {
			if line.Error != "" || line.Report == nil {
				t.Fatalf("%s line %d: %+v", name, i, line)
			}
			got[i] = *line.Report
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s report %d diverged:\nbatched   %+v\nper-frame %+v", name, i, got[i], want[i])
				}
			}
			t.Fatalf("%s reports diverged", name)
		}
	}
}

// TestHTTPStepRetryAfterUnits pins the two backpressure hints a 429
// carries: the Retry-After header only speaks whole seconds, so the
// default 25ms hint ceils to "1" there — clients honoring the header
// wait 40x too long — while the body's retryAfterMs carries the exact
// value. The header stays (generic HTTP clients need something), but
// RetryAfterMs is the one to prefer.
func TestHTTPStepRetryAfterUnits(t *testing.T) {
	st := newScriptedStepper()
	m, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Build: scriptedBuilder(st)})
	info := mustCreate(t, m, Spec{Robot: "fake"})

	// Occupy the worker and fill the one-slot queue.
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}
	<-st.started
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(trace.Frame{K: 9, U: []float64{0}, Readings: map[string][]float64{"fake": {0}}})
	resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/step", srv.URL, info.ID),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var line ReplyLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header = %q, want the coarse whole-second %q", got, "1")
	}
	if line.RetryAfterMs != 25 {
		t.Fatalf("retryAfterMs = %d, want the exact default hint 25", line.RetryAfterMs)
	}

	st.release <- struct{}{}
	st.release <- struct{}{}
}

// TestSubmitBatchRetryingBackpressure drives the streaming endpoint's
// retry loop under sustained backpressure — a one-slot queue, every
// admission contested — and requires every batch to complete. It then
// pins the prompt-bailout contract: a retry loop spinning against a
// full queue must return as soon as its session closes, not keep
// retrying forever.
func TestSubmitBatchRetryingBackpressure(t *testing.T) {
	st := newScriptedStepper()
	m, err := NewManager(Config{Workers: 1, QueueDepth: 1, RetryAfter: time.Millisecond, Build: scriptedBuilder(st)})
	if err != nil {
		t.Fatal(err)
	}
	// Release every step as it starts: the queue drains, slowly.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-st.started:
				st.release <- struct{}{}
			case <-stop:
				return
			}
		}
	}()
	stopReleasing := sync.OnceFunc(func() { close(stop); <-stopped })
	defer func() {
		// A step left waiting holds the session's step lock, which Close
		// and Shutdown wait on: a closed release channel lets every step
		// through, and a bounded Shutdown fails instead of hanging.
		stopReleasing()
		close(st.release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	info := mustCreate(t, m, Spec{Robot: "fake"})

	const writers, batches = 4, 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frames := []BatchFrame{{U: mat.VecOf(0), Readings: map[string]mat.Vec{"fake": mat.VecOf(0)}}}
			for i := 0; i < batches; i++ {
				results, err := m.submitWait(context.Background(), info.ID, frames, true)
				if err != nil {
					errs[w] = err
					return
				}
				for _, res := range results {
					if res.Err != nil {
						errs[w] = res.Err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stopReleasing()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d under backpressure: %v", w, err)
		}
	}

	// Prompt bailout: wedge the worker and the queue, start a retry loop,
	// close the session mid-retry.
	s, err := m.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}
	<-st.started
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.submitWait(context.Background(), info.ID,
			[]BatchFrame{{U: mat.VecOf(0), Readings: map[string]mat.Vec{"fake": mat.VecOf(0)}}}, true)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it enter the retry loop
	go m.Close(info.ID)
	// Close answers the queued frame and then waits for the in-flight
	// step. Release that step only once the session refuses pushes:
	// released earlier, it frees the queue, and the retry loop's frame
	// could be accepted (and answered ErrClosed in its result) first.
	for !s.isClosed() {
		time.Sleep(time.Millisecond)
	}
	st.release <- struct{}{}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrSessionNotFound) {
			t.Fatalf("retry loop returned %v, want closed/not-found", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop kept spinning after the session closed")
	}
}

// TestHTTPStreamToUnknownSession pins the 404 on a bad stream target.
func TestHTTPStreamToUnknownSession(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/sessions/s-999999/frames", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSessionCap pins the 503 + Retry-After on the session limit.
func TestHTTPSessionCap(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, MaxSessions: 1})
	createSession(t, srv.URL, "khepera")
	body, _ := json.Marshal(CreateRequest{Robot: "khepera"})
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header")
	}
}

var updateGolden = flag.Bool("update", false, "re-record the testdata/ golden files of the tests that run")

// TestHTTPFramesNDJSONRepliesPinned is the compatibility proof for
// clients that never heard of binary replies: a request without the
// Accept header is answered with the bytes recorded before the binary
// reply record existed (testdata/frames40.replies.ndjson: a 40-frame
// mission with one shape-refused frame inserted at index 10), whichever
// wire the frames arrive on.
func TestHTTPFramesNDJSONRepliesPinned(t *testing.T) {
	frames := kheperaFrames(t, 21, 40)
	bad := frames[10]
	bad.Readings = map[string][]float64{}
	for name, z := range frames[10].Readings {
		bad.Readings[name] = z
	}
	bad.Readings["ips"] = bad.Readings["ips"][:2]
	sent := append(append(append([]trace.Frame(nil), frames[:10]...), bad), frames[10:]...)
	var binBody, jsonBody []byte
	for i := range sent {
		binBody = trace.AppendFrameRecord(binBody, &sent[i])
		line, _ := json.Marshal(&sent[i])
		jsonBody = append(append(jsonBody, line...), '\n')
	}

	_, srv := newTestServer(t, Config{Workers: 2})
	path := filepath.Join("testdata", "frames40.replies.ndjson")
	for _, wire := range []struct {
		contentType string
		body        []byte
	}{{ContentTypeBinaryFrames, binBody}, {api.ContentTypeNDJSON, jsonBody}} {
		info := createSession(t, srv.URL, "khepera")
		ct, got := rawReplies(t, srv.URL, info.ID, http.Header{"Content-Type": {wire.contentType}}, wire.body)
		if ct != api.ContentTypeNDJSON {
			t.Fatalf("%s frames answered with Content-Type %q", wire.contentType, ct)
		}
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s frames: NDJSON reply body diverged from %s\ngot:\n%s", wire.contentType, path, got)
		}
	}
}

// The mode-bank "workers" field is gone from CreateRequest, and no
// decoder here is strict: an old client that still sends it gets its
// session, reporting exactly what one created without the field reports.
func TestHTTPCreateIgnoresWorkers(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", map[string]any{"robot": "khepera", "workers": 4})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with workers: status %d, want 201", resp.StatusCode)
	}
	var old SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&old); err != nil {
		t.Fatal(err)
	}
	plain := createSession(t, srv.URL, "khepera")
	frames := kheperaFrames(t, 33, 20)
	if got, want := streamFrames(t, srv.URL, old.ID, frames), streamFrames(t, srv.URL, plain.ID, frames); !reflect.DeepEqual(got, want) {
		t.Fatal("a session created with workers reports differently from one created without")
	}
}
