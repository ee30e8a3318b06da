package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roboads/internal/api"
)

// The API contract tests pin the /v1 error surface: every fleet
// sentinel's HTTP status, machine-readable code, and envelope extras
// (retry hints, redirect locations). Clients — the typed client and
// the router — dispatch on exactly these, so a drifted mapping is a
// silent cross-version break. Change a case here only together with a
// documented wire-contract change.

// doJSON issues one request with an optional JSON body and returns the
// response.
func doJSON(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wantEnvelope asserts one error response: status, code, and that the
// body is the api.Error envelope (never a bare string or ad-hoc map).
// It returns the decoded envelope for extra assertions.
func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) api.Error {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	if e.Code != code {
		t.Fatalf("code = %q (%s), want %q", e.Code, e.Message, code)
	}
	if e.Message == "" {
		t.Fatal("error envelope has no message")
	}
	return e
}

// TestContractLookupAndCreate pins the request-shaped failures on a
// plain (non-durable) node: bad requests, unknown sessions, proposed-ID
// collisions, and the durability-off sentinel.
func TestContractLookupAndCreate(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	frame := kheperaFrames(t, 7, 1)[0]

	// ErrSessionNotFound → 404 not_found on every lookup-shaped route.
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/nope"},
		{http.MethodPost, "/v1/sessions/nope/step"},
		{http.MethodPost, "/v1/sessions/nope/frames"},
		{http.MethodDelete, "/v1/sessions/nope"},
		{http.MethodPost, "/v1/sessions/nope/migrate"},
	} {
		var body any
		switch {
		case strings.HasSuffix(c.path, "/step"):
			body = frame
		case strings.HasSuffix(c.path, "/migrate"):
			body = api.MigrateRequest{Target: "http://127.0.0.1:1"}
		}
		resp := doJSON(t, c.method, srv.URL+c.path, body)
		wantEnvelope(t, resp, http.StatusNotFound, api.CodeNotFound)
	}

	// Malformed or invalid requests → 400 bad_request.
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Robot: "no-such-robot"})
	wantEnvelope(t, resp, http.StatusBadRequest, api.CodeBadRequest)
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Robot: "khepera", ID: "bad/id"})
	wantEnvelope(t, resp, http.StatusBadRequest, api.CodeBadRequest)
	info := createSession(t, srv.URL, "khepera")
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/migrate", api.MigrateRequest{})
	wantEnvelope(t, resp, http.StatusBadRequest, api.CodeBadRequest)

	// ErrSessionLive → 409 session_live on a proposed-ID collision.
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Robot: "khepera", ID: info.ID})
	wantEnvelope(t, resp, http.StatusConflict, api.CodeSessionLive)

	// ErrDurabilityDisabled → 501 durability_disabled without -state-dir.
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/checkpoint", nil)
	wantEnvelope(t, resp, http.StatusNotImplemented, api.CodeDurabilityDisabled)
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Restore: "gone"})
	wantEnvelope(t, resp, http.StatusNotImplemented, api.CodeDurabilityDisabled)
}

// TestContractDurableRestore pins restore-path errors on a durable node:
// restoring a session with no persisted state is 404 not_found.
func TestContractDurableRestore(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2, Durability: Durability{Dir: t.TempDir()}})
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Restore: "never-existed"})
	wantEnvelope(t, resp, http.StatusNotFound, api.CodeNotFound)
}

// TestContractSessionCap pins ErrTooManySessions → 503 session_cap with
// a Retry-After header.
func TestContractSessionCap(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, MaxSessions: 1})
	createSession(t, srv.URL, "khepera")
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Robot: "khepera"})
	wantEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeSessionCap)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("session_cap response has no Retry-After header")
	}
}

// TestContractBackpressure pins the /step 429: a full queue answers a
// ReplyLine (not a bare envelope — the reply carries the frame's k)
// with code backpressure, the exact millisecond retry hint, and a
// whole-second Retry-After header for generic clients.
func TestContractBackpressure(t *testing.T) {
	st := newScriptedStepper()
	m, srv := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 40 * time.Millisecond,
		Build: scriptedBuilder(st),
	})
	info := mustCreate(t, m, Spec{Robot: "fake"})

	p1, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-st.started // worker mid-step, queue empty
	p2, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/step",
		map[string]any{"k": 3, "u": []float64{0}, "readings": map[string][]float64{"fake": {0}}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("step status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	var line ReplyLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Code != api.CodeBackpressure || line.RetryAfterMs != 40 || line.K != 3 {
		t.Fatalf("backpressure reply = %+v", line)
	}

	st.release <- struct{}{}
	<-st.started
	st.release <- struct{}{}
	for _, p := range []*Pending{p1, p2} {
		if _, err := p.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestContractMigratingAndClosed pins the mid-lifecycle sentinels, all
// made deterministic by a scripted stepper holding a frame in-step:
//
//   - step while the session drains for migration → 503 migrating with
//     the fixed 50ms retry hint;
//   - a concurrent migrate of the same session → 409 migrating;
//   - a failed migration (the scripted stepper cannot export state)
//     → 5xx with code internal, and the session keeps serving;
//   - a queued frame answered by DELETE → 410 closed;
//   - create after shutdown → 503 closed with Retry-After.
func TestContractMigratingAndClosed(t *testing.T) {
	st := newScriptedStepper()
	m, srv := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Build: scriptedBuilder(st)})
	info := mustCreate(t, m, Spec{Robot: "fake"})
	stepBody := map[string]any{"k": 1, "u": []float64{0}, "readings": map[string][]float64{"fake": {0}}}

	// Hold a frame in-step so Migrate's drain loop spins with the
	// migrating flag up, and pre-fill the single queue slot: the polled
	// HTTP steps below must always be rejected outright (429 before the
	// migrating flag flips, 503 after) — one slipping into the queue
	// would block its handler on a reply the held worker can never send,
	// deadlocking the drain.
	p1, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-st.started
	p2, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	migrateDone := make(chan *http.Response, 1)
	go func() {
		migrateDone <- doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/migrate",
			api.MigrateRequest{Target: "http://127.0.0.1:1"})
	}()
	// Poll until the drain has begun: a step rejected with migrating.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/step", stepBody)
		if resp.StatusCode == http.StatusServiceUnavailable {
			e := wantEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeMigrating)
			if e.RetryAfterMs != 50 {
				t.Fatalf("migrating retryAfterMs = %d, want 50", e.RetryAfterMs)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("step was never rejected with migrating")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ErrMigrating → 409 on a concurrent migrate of the same session.
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/migrate",
		api.MigrateRequest{Target: "http://127.0.0.1:1"})
	wantEnvelope(t, resp, http.StatusConflict, api.CodeMigrating)

	// Release the held frame and the queued one behind it: the drain
	// completes, the export fails (scripted steppers hold no exportable
	// state), the migration aborts server-side with an internal-class
	// envelope, and the session is serving again.
	st.release <- struct{}{}
	<-st.started // the queued frame reaches the worker
	st.release <- struct{}{}
	for _, p := range []*Pending{p1, p2} {
		if _, err := p.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	mresp := <-migrateDone
	defer mresp.Body.Close()
	if mresp.StatusCode < 500 {
		t.Fatalf("failed migration status = %d, want 5xx", mresp.StatusCode)
	}
	var e api.Error
	if err := json.NewDecoder(mresp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeInternal {
		t.Fatalf("failed migration code = %q, want internal", e.Code)
	}

	// ErrClosed → 410 closed for a queued frame orphaned by DELETE. The
	// worker holds frame A in-step; frame B waits in the queue; DELETE
	// answers B with ErrClosed without stepping it.
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}
	<-st.started
	stepDone := make(chan *http.Response, 1)
	go func() {
		stepDone <- doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+info.ID+"/step", stepBody)
	}()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if stat, err := m.Status(info.ID); err == nil && stat.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued frame never showed up")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := doJSON(t, http.MethodDelete, srv.URL+"/v1/sessions/"+info.ID, nil)
		resp.Body.Close()
	}()
	wantEnvelope(t, <-stepDone, http.StatusGone, api.CodeClosed)
	st.release <- struct{}{} // let the in-step frame finish so DELETE returns
	wg.Wait()

	// ErrClosed → 503 closed for create on a draining manager.
	if err := m.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Robot: "fake"})
	wantEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeClosed)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("closed create response has no Retry-After header")
	}
}

// TestContractMoved pins the tombstone redirect left by a completed
// migration: every route on the old node answers 410 with code moved
// and the target's base URL in the envelope's location.
func TestContractMoved(t *testing.T) {
	_, src := newTestServer(t, Config{Workers: 2})
	_, dst := newTestServer(t, Config{Workers: 2})
	info := createSession(t, src.URL, "khepera")
	frames := kheperaFrames(t, 7, 3)
	for i := range frames {
		resp := doJSON(t, http.MethodPost, src.URL+"/v1/sessions/"+info.ID+"/step", frames[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp := doJSON(t, http.MethodPost, src.URL+"/v1/sessions/"+info.ID+"/migrate",
		api.MigrateRequest{Target: dst.URL})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status = %d", resp.StatusCode)
	}
	var mr api.MigrateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.FramesApplied != len(frames) || mr.Target != dst.URL {
		t.Fatalf("migrate response = %+v", mr)
	}

	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/" + info.ID},
		{http.MethodPost, "/v1/sessions/" + info.ID + "/step"},
		{http.MethodPost, "/v1/sessions/" + info.ID + "/frames"},
		{http.MethodPost, "/v1/sessions/" + info.ID + "/migrate"},
	} {
		var body any
		switch {
		case strings.HasSuffix(c.path, "/step"):
			body = frames[0]
		case strings.HasSuffix(c.path, "/migrate"):
			body = api.MigrateRequest{Target: dst.URL}
		}
		e := wantEnvelope(t, doJSON(t, c.method, src.URL+c.path, body), http.StatusGone, api.CodeMoved)
		if e.Location != dst.URL {
			t.Fatalf("%s %s: location = %q, want %q", c.method, c.path, e.Location, dst.URL)
		}
	}

	// A refused create of the migrated ID leaves the redirect in place.
	wantEnvelope(t, doJSON(t, http.MethodPost, src.URL+"/v1/sessions", CreateRequest{Robot: "nope", ID: info.ID}),
		http.StatusBadRequest, api.CodeBadRequest)
	e := wantEnvelope(t, doJSON(t, http.MethodGet, src.URL+"/v1/sessions/"+info.ID, nil), http.StatusGone, api.CodeMoved)
	if e.Location != dst.URL {
		t.Fatalf("after a refused create: location = %q, want %q", e.Location, dst.URL)
	}
}

// TestContractNotReady pins the readiness gate: an unready node answers
// 503 not_ready (with the 1s retry hint) on every /v1 route except the
// internal replication surface, which must stay open so a follower can
// keep syncing while unready.
func TestContractNotReady(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, Build: DefaultBuilder()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(t.Context())
	srv := httptest.NewServer(GatedHandler(m.Handler(), func() bool { return false }))
	defer srv.Close()

	e := wantEnvelope(t, doJSON(t, http.MethodGet, srv.URL+"/v1/sessions", nil),
		http.StatusServiceUnavailable, api.CodeNotReady)
	if e.RetryAfterMs != 1000 {
		t.Fatalf("not_ready retryAfterMs = %d, want 1000", e.RetryAfterMs)
	}
	resp := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions", CreateRequest{Robot: "khepera"})
	wantEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeNotReady)

	// The internal surface passes the gate (it fails on its own terms —
	// a garbage import is a 400, not a 503).
	resp = doJSON(t, http.MethodPost, srv.URL+"/v1/internal/sessions/import", api.ImportRequest{Snapshot: []byte("junk")})
	wantEnvelope(t, resp, http.StatusBadRequest, api.CodeBadRequest)
}

// TestContractErrorCodeTable pins errorCode's sentinel→code vocabulary
// exhaustively, including wrapped errors — the single mapping every
// envelope and reply line is built from.
func TestContractErrorCodeTable(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{nil, ""},
		{ErrBackpressure, api.CodeBackpressure},
		{&BackpressureError{SessionID: "s", RetryAfter: time.Millisecond}, api.CodeBackpressure},
		{ErrMoved, api.CodeMoved},
		{&MovedError{SessionID: "s", Target: "http://x"}, api.CodeMoved},
		{ErrMigrating, api.CodeMigrating},
		{ErrSessionNotFound, api.CodeNotFound},
		{ErrClosed, api.CodeClosed},
		{ErrTooManySessions, api.CodeSessionCap},
		{ErrSessionLive, api.CodeSessionLive},
		{ErrDurabilityDisabled, api.CodeDurabilityDisabled},
		{errors.New("anything else"), api.CodeBadRequest},
	}
	for _, c := range cases {
		if got := errorCode(c.err); got != c.code {
			t.Errorf("errorCode(%v) = %q, want %q", c.err, got, c.code)
		}
		if c.err != nil {
			wrapped := fmt.Errorf("outer: %w", c.err)
			if got := errorCode(wrapped); got != c.code {
				t.Errorf("errorCode(wrapped %v) = %q, want %q", c.err, got, c.code)
			}
		}
	}
	// Per-frame replies map unknown errors to internal, not bad_request:
	// the request was fine, the detector failed.
	if got := replyCode(errors.New("detector exploded")); got != api.CodeInternal {
		t.Errorf("replyCode(unknown) = %q, want internal", got)
	}
	if got := replyCode(ErrBackpressure); got != api.CodeBackpressure {
		t.Errorf("replyCode(backpressure) = %q", got)
	}
}
