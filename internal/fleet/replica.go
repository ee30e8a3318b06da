package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"roboads/internal/api"
	"roboads/internal/telemetry"
)

// Primary-side WAL replication: a follower node opens one long-lived
// POST /v1/internal/replicate stream, announcing its per-session durable
// cursors in a hello line; the primary ships snapshot and frame records
// as sessions appear and WALs grow, and reads ack lines (the follower's
// own group-commit fsync confirmations) back off the request body. With
// Config.AckPolicy == AckFollower, a frame's reply additionally waits
// for that ack, so a SIGKILL of the primary loses zero acked frames.

// Replication metric names.
const (
	// MetricReplFollowers gauges connected replication followers (0 or 1;
	// a newer connection supersedes an older one).
	MetricReplFollowers = "roboads_fleet_repl_followers"
	// MetricReplShipped counts frame records shipped to followers.
	MetricReplShipped = "roboads_fleet_repl_shipped_total"
	// MetricReplDegraded counts AckFollower frames acked on local
	// durability alone because no follower was connected.
	MetricReplDegraded = "roboads_fleet_repl_degraded_total"
	// MetricReplAckWait is the AckFollower wait latency histogram.
	MetricReplAckWait = "roboads_fleet_repl_ack_wait_seconds"
)

// replWaiter is one frame batch blocked on a follower ack.
type replWaiter struct {
	session string
	seq     int
	ch      chan struct{}
}

// replHub coordinates the primary side of replication: the shipper
// stream wakes on notify after WAL appends, and AckFollower commits wait
// on acked high-water marks per session.
type replHub struct {
	notify chan struct{} // cap 1: coalesced wakeups for the shipper

	mu        sync.Mutex
	gen       int            // bumped per follower connection; stale streams exit
	connected bool           // a follower stream is currently attached
	acked     map[string]int // per-session highest follower-acked frame seq
	waiters   []replWaiter

	mFollowers *telemetry.Gauge
	mShipped   *telemetry.Counter
	mDegraded  *telemetry.Counter
	mAckWait   *telemetry.Histogram
}

func newReplHub(reg *telemetry.Registry) *replHub {
	return &replHub{
		notify:     make(chan struct{}, 1),
		acked:      make(map[string]int),
		mFollowers: reg.Gauge(MetricReplFollowers, "Connected replication followers."),
		mShipped:   reg.Counter(MetricReplShipped, "Frame records shipped to followers."),
		mDegraded:  reg.Counter(MetricReplDegraded, "AckFollower frames acked without a follower connected."),
		mAckWait:   reg.Histogram(MetricReplAckWait, "AckFollower wait latency in seconds.", telemetry.LatencyBuckets()),
	}
}

// wake nudges the shipper stream; safe from the frame hot path (one
// non-blocking channel send, coalesced).
func (h *replHub) wake() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// connect registers a new follower stream, superseding any previous one,
// and returns the stream's generation token. The ack marks reset: the
// new follower confirms durability from its own cursors forward.
func (h *replHub) connect() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gen++
	h.connected = true
	h.acked = make(map[string]int)
	h.mFollowers.Set(1)
	return h.gen
}

// disconnect retires a follower stream. Stale generations (already
// superseded) are ignored. Waiters are woken so AckFollower commits
// re-check and degrade instead of sitting out their full timeout.
func (h *replHub) disconnect(gen int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if gen != h.gen {
		return
	}
	h.connected = false
	h.mFollowers.Set(0)
	for _, w := range h.waiters {
		close(w.ch)
	}
	h.waiters = nil
}

// current reports whether gen is still the live stream.
func (h *replHub) current(gen int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return gen == h.gen
}

// ack records the follower's durable high-water mark for one session and
// releases every waiter it covers.
func (h *replHub) ack(session string, seq int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq <= h.acked[session] {
		return
	}
	h.acked[session] = seq
	kept := h.waiters[:0]
	for _, w := range h.waiters {
		if w.session == session && w.seq <= seq {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	h.waiters = kept
}

// waitAcked blocks until the follower acks session up to seq, the
// follower disconnects (degraded: local durability stands alone, nil),
// or timeout expires (error: the frame must NOT be acked). This is the
// Config.AckPolicy == AckFollower wait after a successful local commit;
// it runs on the job's own completion goroutine (Manager.complete),
// never in a quantum or on the store's flusher, and holds no lock.
func (h *replHub) waitAcked(session string, seq int, timeout time.Duration) error {
	h.mu.Lock()
	if !h.connected {
		h.mu.Unlock()
		h.mDegraded.Inc()
		return nil
	}
	if h.acked[session] >= seq {
		h.mu.Unlock()
		return nil
	}
	w := replWaiter{session: session, seq: seq, ch: make(chan struct{})}
	h.waiters = append(h.waiters, w)
	h.mu.Unlock()

	start := time.Now()
	// The commit that precedes this wait flushed the WAL; make sure the
	// shipper is awake to read the tail it is about to confirm.
	h.wake()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.ch:
		h.mAckWait.Observe(time.Since(start).Seconds())
		h.mu.Lock()
		connected := h.connected
		acked := h.acked[session] >= seq
		h.mu.Unlock()
		if !acked && !connected {
			h.mDegraded.Inc()
		}
		return nil
	case <-t.C:
		h.mu.Lock()
		kept := h.waiters[:0]
		for _, o := range h.waiters {
			if o.ch != w.ch {
				kept = append(kept, o)
			}
		}
		h.waiters = kept
		h.mu.Unlock()
		return fmt.Errorf("fleet: follower ack timeout after %v (session %s, frame %d)", timeout, session, seq)
	}
}

// handleReplicate serves POST /v1/internal/replicate: the follower's
// hello line opens the stream, ack lines follow on the same request
// body, and the response streams NDJSON ReplRecords until the follower
// drops, a newer follower supersedes this one, or the server stops.
func (m *Manager) handleReplicate(w http.ResponseWriter, r *http.Request) {
	// Full duplex before any answer: acks ride the request body while
	// records flow out, and a refusal must not wait for net/http to
	// drain a body that stays open.
	http.NewResponseController(w).EnableFullDuplex()
	if m.store == nil {
		httpError(w, http.StatusNotImplemented, ErrDurabilityDisabled)
		return
	}
	body := bufio.NewReader(r.Body)
	helloLine, err := body.ReadBytes('\n')
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: replicate hello: %w", err))
		return
	}
	var hello api.ReplHello
	if err := json.Unmarshal(helloLine, &hello); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: replicate hello: %w", err))
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)

	gen := m.repl.connect()
	defer m.repl.disconnect(gen)

	// Ack lines ride the request body for the stream's lifetime.
	go func() {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		for sc.Scan() {
			var ack api.ReplAck
			if json.Unmarshal(sc.Bytes(), &ack) == nil && ack.Session != "" {
				m.repl.ack(ack.Session, ack.Seq)
			}
		}
	}()

	enc := json.NewEncoder(w)
	// cursors tracks what this stream has shipped per session (absolute
	// frame seq; missing = nothing). Seeded from the follower's hello so
	// an already-synced follower gets the tail only.
	cursors := make(map[string]int)
	for id, seq := range hello.Cursors {
		cursors[id] = seq
	}
	var lastSessions string
	idle := time.NewTicker(250 * time.Millisecond)
	defer idle.Stop()
	lastSend := time.Now()
	for {
		if !m.repl.current(gen) || m.state.Load() != stateRunning {
			return
		}
		ids, err := m.store.Sessions()
		if err != nil {
			return
		}
		sent := false
		// A changed session listing is shipped first so the follower can
		// prune sessions deleted or migrated away on the primary.
		if key := fmt.Sprint(ids); key != lastSessions {
			if enc.Encode(api.ReplRecord{Type: "sessions", Sessions: ids}) != nil {
				return
			}
			lastSessions = key
			sent = true
		}
		for _, id := range ids {
			cur, known := cursors[id]
			if !known {
				cur = -1
			}
			batch, err := m.store.ReplicaRead(id, cur)
			if err != nil {
				// Mid-create, mid-remove, or torn view: skip this round,
				// the next wakeup sees a settled directory.
				continue
			}
			if batch.Snapshot != nil {
				if enc.Encode(api.ReplRecord{Type: "snapshot", Session: id, Seq: batch.Base, Snapshot: batch.Snapshot}) != nil {
					return
				}
				cursors[id] = batch.Base
				sent = true
			}
			for i, fr := range batch.Frames {
				if enc.Encode(api.ReplRecord{Type: "frame", Session: id, Seq: batch.FirstSeq + i, Frame: fr}) != nil {
					return
				}
				cursors[id] = batch.FirstSeq + i
				m.repl.mShipped.Inc()
				sent = true
			}
		}
		if sent {
			lastSend = time.Now()
		} else if time.Since(lastSend) >= 250*time.Millisecond {
			// Heartbeat: the follower's promotion timer keys off stream
			// records, so an idle primary must still say it is alive.
			if enc.Encode(api.ReplRecord{Type: "ping"}) != nil {
				return
			}
			lastSend = time.Now()
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-m.repl.notify:
		case <-idle.C:
		case <-r.Context().Done():
			return
		}
	}
}
