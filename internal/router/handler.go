package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"sync"
	"time"

	"roboads/client"
	"roboads/internal/api"
)

// retryBudget bounds the total time one proxied request may spend
// sleeping on "migrating" hints before giving up and passing the last
// response through.
const retryBudget = 2500 * time.Millisecond

// maxMovedHops bounds how many migration redirects one request chases.
const maxMovedHops = 4

// Handler returns the router's HTTP front: the full /v1 session surface
// proxied by session placement, plus the router's own health endpoints.
// The /v1/internal/* endpoints are deliberately absent — node-to-node
// traffic does not route through the front.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(rt.healthyNodes()) == 0 {
			writeJSON(w, http.StatusServiceUnavailable,
				api.Error{Message: "router: no ready nodes", Code: api.CodeNotReady, RetryAfterMs: 1000})
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/frames", rt.handleFrames)
	mux.HandleFunc("/v1/sessions/{id}", rt.handleForward)
	mux.HandleFunc("/v1/sessions/{id}/{verb}", rt.handleForward)
	mux.HandleFunc("GET /v1/debug/trace", rt.handleDebugTrace)
	return mux
}

// newSessionID draws a random router-assigned session ID. Random (not
// sequential) so N routers never collide; the ID, not the node, decides
// placement from here on.
func newSessionID() string {
	var b [6]byte
	rand.Read(b[:])
	return "r-" + hex.EncodeToString(b[:])
}

// handleCreate places a session: the ID (client-proposed, restore
// target, or freshly drawn) hashes to an owner, and the create lands on
// the first ready candidate in rank order.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	rt.mProxied.Inc()
	var req api.CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, api.Error{Message: "decode create request: " + err.Error(), Code: api.CodeBadRequest})
		return
	}
	placeID := req.ID
	if placeID == "" {
		if req.Restore != "" {
			placeID = req.Restore
		} else {
			placeID = newSessionID()
			req.ID = placeID
		}
	}
	var lastErr error
	for _, node := range rt.candidates(placeID) {
		info, err := client.New(node, client.WithHTTPClient(rt.hc)).Create(r.Context(), req)
		if err == nil {
			rt.noteLocation(placeID, node)
			writeJSON(w, http.StatusCreated, info)
			return
		}
		lastErr = err
		if advanceOnError(err) {
			rt.mRetries.Inc()
			continue
		}
		break
	}
	writeClientError(w, lastErr)
}

// handleList merges every ready node's session listing, annotating each
// session with the node that hosts it.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mProxied.Inc()
	nodes := rt.healthyNodes()
	lists := make([][]api.SessionStatus, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			out, err := client.New(node, client.WithHTTPClient(rt.hc)).List(r.Context())
			if err != nil {
				return // a node that just died drops out of the merge
			}
			for j := range out {
				out[j].Node = node
			}
			lists[i] = out
		}(i, node)
	}
	wg.Wait()
	merged := make([]api.SessionStatus, 0, 16)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	writeJSON(w, http.StatusOK, merged)
}

// handleForward proxies one buffered request (status, step, checkpoint,
// migrate, delete) to the session's node, advancing across candidates
// when a node is down or does not host the session, chasing "moved"
// redirects, and honoring "migrating" retry hints.
func (rt *Router) handleForward(w http.ResponseWriter, r *http.Request) {
	rt.mProxied.Inc()
	id := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.Error{Message: "read request: " + err.Error(), Code: api.CodeBadRequest})
		return
	}
	deadline := time.Now().Add(retryBudget)
	// The cached node (when present) is probed first, alone; the full
	// rendezvous scan is computed lazily, only when the hint misses.
	cached, hit := rt.cachedNode(id)
	var queue []string
	ensured := false
	ensureFull := func() {
		if ensured {
			return
		}
		ensured = true
		for _, n := range rt.candidates(id) {
			if n != cached {
				queue = append(queue, n)
			}
		}
	}
	if hit {
		queue = []string{cached}
	} else {
		ensureFull()
	}
	hops := 0
	var last *proxiedResponse
	var lastErr error
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
	retrySameNode:
		resp, err := rt.roundTrip(r, node, body)
		if err != nil {
			lastErr = err
			if dialError(err) {
				// The connection never opened, so the request never ran —
				// safe to advance even for non-idempotent step calls.
				if node == cached {
					rt.forgetLocation(id)
				}
				rt.mRetries.Inc()
				ensureFull()
				continue
			}
			writeJSON(w, http.StatusBadGateway, api.Error{Message: fmt.Sprintf("router: %s: %v", node, err), Code: api.CodeInternal})
			return
		}
		last, lastErr = resp, nil
		switch {
		case resp.code == api.CodeNotFound:
			// Not on this node; after a failover the session lives on a
			// successor, so keep looking before answering 404.
			if node == cached {
				rt.forgetLocation(id)
			}
			rt.mRetries.Inc()
			ensureFull()
			continue
		case resp.code == api.CodeNotReady:
			rt.mRetries.Inc()
			ensureFull()
			continue
		case resp.code == api.CodeMoved && resp.envelope.Location != "" && hops < maxMovedHops:
			hops++
			rt.mMoved.Inc()
			if node == cached {
				// Tombstone (410) on the cached node: the entry is stale;
				// the chase's landing node re-primes it below.
				rt.forgetLocation(id)
			}
			node = resp.envelope.Location
			goto retrySameNode
		case resp.code == api.CodeMigrating && time.Now().Before(deadline):
			wait := time.Duration(resp.envelope.RetryAfterMs) * time.Millisecond
			if wait <= 0 {
				wait = 50 * time.Millisecond
			}
			select {
			case <-r.Context().Done():
				return
			case <-time.After(wait):
			}
			goto retrySameNode
		default:
			if resp.status < 400 {
				if r.Method == http.MethodDelete {
					rt.forgetLocation(id)
				} else {
					if hit && node == cached {
						rt.mLocHits.Inc()
					}
					rt.noteLocation(id, node)
				}
			}
			resp.writeTo(w)
			return
		}
	}
	if last != nil {
		last.writeTo(w)
		return
	}
	writeJSON(w, http.StatusBadGateway, api.Error{Message: fmt.Sprintf("router: no node answered for session %s: %v", id, lastErr), Code: api.CodeInternal})
}

// proxiedResponse is one upstream reply, fully buffered, with its error
// envelope (when any) pre-parsed for routing decisions.
type proxiedResponse struct {
	status   int
	header   http.Header
	body     []byte
	code     string
	envelope api.Error
}

func (p *proxiedResponse) writeTo(w http.ResponseWriter) {
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := p.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(p.status)
	w.Write(p.body)
}

// roundTrip replays the buffered request against one node.
func (rt *Router) roundTrip(r *http.Request, node string, body []byte) (*proxiedResponse, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	out := &proxiedResponse{status: resp.StatusCode, header: resp.Header, body: data}
	if resp.StatusCode >= 400 {
		if json.Unmarshal(data, &out.envelope) == nil {
			out.code = out.envelope.Code
		}
	}
	return out, nil
}

// handleFrames proxies the streaming ingest: the session's node is
// located first (cheap status probes across candidates, chasing moved
// redirects), then the stream reverse-proxies to it with flushing on
// every write so reply lines reach the client as they are produced.
func (rt *Router) handleFrames(w http.ResponseWriter, r *http.Request) {
	rt.mProxied.Inc()
	rc := http.NewResponseController(w)
	// Full duplex before any answer, as on the node's /frames: the frame
	// stream stays readable while replies flow back, and a refusal does
	// not wait for net/http to drain it.
	rc.EnableFullDuplex()
	id := r.PathValue("id")
	owner, err := rt.locate(r.Context(), id)
	if err != nil {
		writeClientError(w, err)
		return
	}
	target, perr := url.Parse(owner)
	if perr != nil {
		writeJSON(w, http.StatusBadGateway, api.Error{Message: "router: bad node url " + owner, Code: api.CodeInternal})
		return
	}
	proxy := &httputil.ReverseProxy{
		Rewrite:       func(pr *httputil.ProxyRequest) { pr.SetURL(target) },
		FlushInterval: -1, // reply lines stream: flush every write
		Transport:     rt.hc.Transport,
		ErrorLog:      nil,
	}
	proxy.ServeHTTP(&headerFlushingWriter{ResponseWriter: w, rc: rc}, r)
}

// headerFlushingWriter flushes the response headers to the wire the
// moment the proxy writes them. The node's 200 opens the stream before
// any body bytes exist, and the client will not send its first frame —
// so the node will not produce the first reply line, which would
// otherwise carry the flush — until it sees those headers; without this
// the status sits in the server's buffer and both sides wait forever.
type headerFlushingWriter struct {
	http.ResponseWriter
	rc *http.ResponseController
}

func (f *headerFlushingWriter) WriteHeader(code int) {
	f.ResponseWriter.WriteHeader(code)
	f.rc.Flush()
}

// Unwrap lets the proxy's own ResponseController reach the underlying
// writer's Flush for the per-write streaming flushes.
func (f *headerFlushingWriter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// locate finds the node currently hosting a session: the cached
// location first, then candidates in rank order, chasing migration
// redirects either way.
func (rt *Router) locate(ctx context.Context, id string) (string, error) {
	cached, hit := rt.cachedNode(id)
	probe := func(node string) (string, error) {
		target := node
		var lastErr error
		for hops := 0; hops <= maxMovedHops; hops++ {
			_, err := client.New(target, client.WithHTTPClient(rt.hc)).Status(ctx, id)
			if err == nil {
				return target, nil
			}
			lastErr = err
			var e *api.Error
			if errors.As(err, &e) && e.Code == api.CodeMoved && e.Location != "" {
				rt.mMoved.Inc()
				target = e.Location
				continue
			}
			break
		}
		return "", lastErr
	}
	if hit {
		if target, err := probe(cached); err == nil {
			if target == cached {
				rt.mLocHits.Inc()
			}
			rt.noteLocation(id, target)
			return target, nil
		}
		rt.forgetLocation(id)
	}
	var lastErr error
	for _, node := range rt.candidates(id) {
		if node == cached {
			continue // already probed and invalidated above
		}
		target, err := probe(node)
		if err == nil {
			rt.noteLocation(id, target)
			return target, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = &api.Error{Message: "router: session " + id + " not found on any node", Code: api.CodeNotFound, Status: http.StatusNotFound}
	}
	return "", lastErr
}

// handleDebugTrace forwards the trace snapshot request to the first
// ready node (every node serves its own snapshot; the router does not
// merge them).
func (rt *Router) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	rt.mProxied.Inc()
	for _, node := range rt.healthyNodes() {
		raw, err := client.New(node, client.WithHTTPClient(rt.hc)).DebugTrace(r.Context())
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, api.Error{Message: "router: no ready nodes", Code: api.CodeNotReady, RetryAfterMs: 1000})
}

// advanceOnError reports whether a typed client error means "try the
// next candidate" (node down or not taking work) rather than a
// definitive answer.
func advanceOnError(err error) bool {
	if dialError(err) {
		return true
	}
	var e *api.Error
	if errors.As(err, &e) {
		return e.Code == api.CodeNotReady || e.Code == api.CodeSessionCap
	}
	return false
}

// dialError reports whether err failed before the request was sent, so
// a retry elsewhere cannot double-apply anything.
func dialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// writeClientError renders a typed client error back onto the wire,
// preserving its status, envelope, and retry/redirect headers.
func writeClientError(w http.ResponseWriter, err error) {
	var e *api.Error
	if !errors.As(err, &e) {
		msg := "router: upstream unreachable"
		if err != nil {
			msg = "router: " + err.Error()
		}
		writeJSON(w, http.StatusBadGateway, api.Error{Message: msg, Code: api.CodeInternal})
		return
	}
	status := e.Status
	if status == 0 {
		status = http.StatusBadGateway
	}
	if e.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", (e.RetryAfterMs+999)/1000))
	}
	if e.Location != "" {
		w.Header().Set("Location", e.Location)
	}
	writeJSON(w, status, *e)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
