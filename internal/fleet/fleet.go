// Package fleet hosts many concurrent RoboADS detectors behind one
// session manager — the §II-A deployment where the monitor runs remotely
// from its robots, serving a whole fleet from one process. Each session
// owns a private detector pipeline; jobs (a frame or a bounded batch)
// submitted to a session are queued in a bounded per-session buffer and
// stepped in order, one job per scheduling quantum, so a noisy session
// cannot starve the rest. A quantum runs on a shard worker, or on a
// caller that waits for the reply anyway; at most Config.Workers run at
// once. A full queue rejects the frame with an explicit retry hint
// (ErrBackpressure) rather than buffering without bound; idle sessions
// are evicted; shutdown drains every accepted frame before closing a
// single detector.
//
// Determinism carries over from the engine: a session's report stream is
// bit-for-bit the stream an in-process Detector would produce for the
// same frames, regardless of how many sessions share the shard pool,
// because each session's frames are serialized and detectors share no
// state.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/store"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Metric names registered by a Manager (nil-safe: a private registry is
// created when Config.Metrics is nil, so the names only surface when the
// caller wires a shared registry, e.g. `roboads serve`).
const (
	// MetricSessionsLive gauges the number of live sessions.
	MetricSessionsLive = "roboads_fleet_sessions_live"
	// MetricQueueDepth gauges the total frames queued across sessions.
	MetricQueueDepth = "roboads_fleet_queue_depth"
	// MetricSessionsOpened counts sessions admitted: created, restored
	// or imported.
	MetricSessionsOpened = "roboads_fleet_sessions_opened_total"
	// MetricEvictions counts idle-evicted sessions.
	MetricEvictions = "roboads_fleet_evictions_total"
	// MetricRejectedFrames counts frames rejected with backpressure.
	MetricRejectedFrames = "roboads_fleet_rejected_frames_total"
	// MetricRejects is the cause-labeled reject family
	// (roboads_fleet_rejects_total{cause="..."}): queue_full counts
	// frames bounced off a full session queue (the same events as
	// MetricRejectedFrames, kept for compat), session_closed counts
	// frames aimed at a closing session, shutting_down counts frames
	// refused because the manager is draining, and session_cap counts
	// admissions (Create, Restore, ImportSession) refused at MaxSessions.
	MetricRejects = "roboads_fleet_rejects_total"
	// RejectCauseQueueFull .. RejectCauseMigrating are the cause label
	// values of MetricRejects. migrating counts frames bounced off a
	// session that is draining for live migration.
	RejectCauseQueueFull     = "queue_full"
	RejectCauseSessionClosed = "session_closed"
	RejectCauseShuttingDown  = "shutting_down"
	RejectCauseSessionCap    = "session_cap"
	RejectCauseMigrating     = "migrating"
	// MetricStreams counts /frames streams opened, by the wire their
	// replies travel on: roboads_fleet_streams_total{replies="binary"}
	// (reply records) or {replies="ndjson"}.
	MetricStreams = "roboads_fleet_streams_total"
	// MetricFrames counts frames stepped through a detector.
	MetricFrames = "roboads_fleet_frames_total"
	// MetricFrameErrors counts frames whose detector step failed.
	MetricFrameErrors = "roboads_fleet_frame_errors_total"
	// MetricStepSeconds is the per-frame detector step latency histogram.
	MetricStepSeconds = "roboads_fleet_frame_step_seconds"
	// MetricStepPanics counts session steppers that panicked; each one
	// took its session down (ErrStepPanic).
	MetricStepPanics = "roboads_fleet_step_panics_total"
	// metricQuanta counts quanta that stepped a job by who ran them:
	// {runner="caller"}, the submitter waiting for the reply, or "worker".
	metricQuanta = "roboads_fleet_quanta_total"
)

// Stepper is the per-session detector contract: exactly the stepping
// surface of *detect.Detector, abstracted so tests can inject slow or
// failing pipelines. The Manager serializes all Stepper use per session.
type Stepper interface {
	StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*detect.Report, error)
	Close()
}

// Spec describes the session a client wants.
type Spec struct {
	// Robot names the platform profile ("khepera", "tamiya").
	Robot string `json:"robot"`
	// ID optionally proposes the session identifier (the router places
	// sessions by consistent hash of the ID, so it names them up front).
	// Empty lets the manager assign "s-NNNNNN". A proposed ID that is
	// already live fails with ErrSessionLive.
	ID string `json:"id,omitempty"`
}

// SessionInfo and SessionStatus are defined in internal/api (aliased in
// wire.go): they are wire structs shared with the router and the typed
// client.

// Builder constructs the detector pipeline behind one session. The
// returned SessionInfo needs Robot/Sensors/Dt only; the manager assigns
// the ID.
type Builder func(spec Spec) (Stepper, SessionInfo, error)

// Config parameterizes a Manager. The zero value of every field has a
// usable default except Build, which is required.
type Config struct {
	// Workers is the shard worker count and the bound on quanta stepping
	// at once: a caller running its session's quantum while it waits for
	// the reply (Step) takes one of the same slots. 0 resolves to GOMAXPROCS.
	Workers int
	// QueueDepth bounds each session's frame backlog; a frame arriving
	// at a full queue is rejected with ErrBackpressure. Default 32.
	QueueDepth int
	// MaxBatch caps the frames one batch submission may carry — a batch
	// is one queue admission and one scheduling quantum, so the cap
	// bounds how long a deep batch can hold a stepping slot. Default 64.
	MaxBatch int
	// MaxSessions caps live sessions; an admission (Create, Restore,
	// ImportSession) beyond it returns ErrTooManySessions. Default 1024.
	MaxSessions int
	// IdleTimeout evicts sessions with no frame activity for this long.
	// 0 disables eviction.
	IdleTimeout time.Duration
	// RetryAfter is the hint carried by BackpressureError. Default 25ms.
	RetryAfter time.Duration
	// Build constructs each session's pipeline. Required.
	Build Builder
	// Metrics receives the fleet gauges and counters; nil uses a
	// private registry (metrics still maintained, just not exported).
	Metrics *telemetry.Registry
	// Trace, when non-nil, enables frame-lifecycle tracing: spans
	// arriving on BatchFrame.Span get queue-wait, coalesce, step, WAL,
	// and fsync laps as the frame moves through the shard pool. Nil
	// (the default) disables tracing; the frame hot path then performs
	// no span work at all — no clock reads, no allocations.
	Trace *telemetry.Tracer
	// Durability, when its Dir is set, persists every session (snapshot
	// + frame WAL) and recovers persisted sessions at startup. The zero
	// value disables persistence; the frame hot path is then untouched.
	Durability Durability
	// AckPolicy chooses the durability bar a frame must clear before its
	// reply: AckPrimary (the default) replies after the local WAL
	// fsync/commit barrier; AckFollower additionally waits for a
	// connected follower's replication ack (its own group-commit fsync),
	// so a SIGKILL of this node loses zero acked frames. Requires
	// durability; ignored without it.
	AckPolicy string
	// AckTimeout bounds the AckFollower wait; a frame whose follower ack
	// does not arrive in time is answered with an error (it is NOT
	// acked, so the at-most-acked-loss contract holds). Default 5s.
	AckTimeout time.Duration
}

// AckPolicy values.
const (
	// AckPrimary: reply after the local durability barrier.
	AckPrimary = "primary"
	// AckFollower: reply after the follower's replication ack too.
	AckFollower = "follower"
)

// Manager is the fleet session service. All methods are safe for
// concurrent use. Shutdown may be called once; every other method
// returns ErrClosed afterwards.
type Manager struct {
	cfg  Config
	runq chan *session // capacity MaxSessions; ≤1 entry per session, so sends never block
	// slots holds a token per running quantum (capacity Workers): a worker
	// blocks for one, so it gets the next one freed; a caller only tries.
	slots chan struct{}
	// quit stops the workers; runq is never closed (see schedule).
	quit chan struct{}
	wg   sync.WaitGroup

	// gate orders frame acceptance against the shutdown state flip:
	// Submit registers the frame in inflight under the read lock, and
	// Shutdown flips state under the write lock, so by the time
	// Shutdown's drain wait starts, every accepted frame is counted.
	gate     sync.RWMutex
	state    atomic.Int32
	inflight sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session
	// closing marks sessions removed from the map whose teardown (final
	// snapshot, store close) is still running; an admission of the same ID
	// waits on the entry so it never touches persisted files mid-teardown.
	closing map[string]chan struct{}
	// tombstones maps migrated-away session IDs to the base URL of the
	// node that took them; lookups answer ErrMoved with the target until
	// this node restarts.
	tombstones map[string]string
	nextID     int64

	janitorStop chan struct{}
	janitorDone chan struct{}
	now         func() time.Time

	// store is the durability layer; nil when Config.Durability is off.
	store         *store.Store
	snapshotEvery int
	// repl is the primary-side replication hub (non-nil exactly when
	// durability is on): it wakes the /v1/internal/replicate stream after
	// WAL appends and tracks follower acks for AckFollower waits.
	repl *replHub

	queued atomic.Int64

	mLive, mQueue                 *telemetry.Gauge
	mOpened, mEvicted, mRejected  *telemetry.Counter
	mFrames, mErrors, mStepPanics *telemetry.Counter
	mStepSeconds                  *telemetry.Histogram
	mRunCaller, mRunWorker        *telemetry.Counter
	// Cause-split reject counters (MetricRejects family).
	mRejQueueFull, mRejSessionClosed *telemetry.Counter
	mRejShuttingDown, mRejSessionCap *telemetry.Counter
	mRejMigrating                    *telemetry.Counter
	// Wire-split stream counters (MetricStreams family).
	mStreamsBinary, mStreamsNDJSON *telemetry.Counter
}

const (
	stateRunning int32 = iota
	stateDraining
	stateClosed
)

// NewManager starts a fleet manager: its shard workers immediately and,
// when Config.IdleTimeout or Config.Durability.Dir is set, the janitor
// (idle eviction, and checkpoints of sessions that pin old log).
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Build == nil {
		return nil, errors.New("fleet: Config.Build is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 25 * time.Millisecond
	}
	switch cfg.AckPolicy {
	case "", AckPrimary, AckFollower:
	default:
		return nil, fmt.Errorf("fleet: unknown AckPolicy %q", cfg.AckPolicy)
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Manager{
		cfg:        cfg,
		runq:       make(chan *session, cfg.MaxSessions),
		slots:      make(chan struct{}, cfg.Workers),
		quit:       make(chan struct{}),
		sessions:   make(map[string]*session),
		closing:    make(map[string]chan struct{}),
		tombstones: make(map[string]string),
		now:        time.Now,

		mLive:        reg.Gauge(MetricSessionsLive, "Live fleet sessions."),
		mQueue:       reg.Gauge(MetricQueueDepth, "Frames queued across all sessions."),
		mOpened:      reg.Counter(MetricSessionsOpened, "Sessions admitted: created, restored or imported."),
		mEvicted:     reg.Counter(MetricEvictions, "Sessions evicted for idleness."),
		mRejected:    reg.Counter(MetricRejectedFrames, "Frames rejected with backpressure."),
		mFrames:      reg.Counter(MetricFrames, "Frames stepped through a session detector."),
		mErrors:      reg.Counter(MetricFrameErrors, "Frames whose detector step returned an error."),
		mStepPanics:  reg.Counter(MetricStepPanics, "Session steppers that panicked, taking their session down."),
		mStepSeconds: reg.Histogram(MetricStepSeconds, "Per-frame detector step latency in seconds.", telemetry.LatencyBuckets()),
		mRunCaller:   reg.Counter(metricQuanta+`{runner="caller"}`, "Quanta that stepped a job, by the goroutine that ran them."),
		mRunWorker:   reg.Counter(metricQuanta+`{runner="worker"}`, "Quanta that stepped a job, by the goroutine that ran them."),

		mRejQueueFull:     reg.Counter(MetricRejects+`{cause="`+RejectCauseQueueFull+`"}`, "Rejections by cause."),
		mRejSessionClosed: reg.Counter(MetricRejects+`{cause="`+RejectCauseSessionClosed+`"}`, "Rejections by cause."),
		mRejShuttingDown:  reg.Counter(MetricRejects+`{cause="`+RejectCauseShuttingDown+`"}`, "Rejections by cause."),
		mRejSessionCap:    reg.Counter(MetricRejects+`{cause="`+RejectCauseSessionCap+`"}`, "Rejections by cause."),
		mRejMigrating:     reg.Counter(MetricRejects+`{cause="`+RejectCauseMigrating+`"}`, "Rejections by cause."),

		mStreamsBinary: reg.Counter(MetricStreams+`{replies="binary"}`, "/frames streams opened, by reply wire."),
		mStreamsNDJSON: reg.Counter(MetricStreams+`{replies="ndjson"}`, "/frames streams opened, by reply wire."),
	}
	if cfg.Durability.Dir != "" {
		m.snapshotEvery = cfg.Durability.SnapshotEvery
		if m.snapshotEvery == 0 {
			m.snapshotEvery = 256
		}
		st, err := store.Open(cfg.Durability.Dir, store.Options{
			CommitWindow: cfg.Durability.CommitWindow,
			Metrics:      reg,
		})
		if err != nil {
			return nil, err
		}
		m.store = st
		m.repl = newReplHub(reg)
		// Recover persisted sessions before any worker or client can
		// observe the manager, so recovered IDs are live from the start
		// and freshly assigned IDs never collide with them.
		if err := m.recoverSessions(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if cfg.IdleTimeout > 0 || m.store != nil {
		m.janitorStop = make(chan struct{})
		m.janitorDone = make(chan struct{})
		interval := cfg.IdleTimeout / 4
		if cfg.IdleTimeout <= 0 {
			interval = time.Second // no eviction: only the pass that bounds the log
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		go m.janitor(interval)
	}
	return m, nil
}

// Create builds a new session from spec and returns its identity.
func (m *Manager) Create(spec Spec) (SessionInfo, error) {
	return m.admit(spec.ID, func(id string) (*session, error) {
		stepper, info, err := m.cfg.Build(spec)
		if err != nil {
			return nil, err
		}
		info.ID = id
		s := &session{info: info, spec: spec, stepper: stepper, frames: make(chan frameJob, m.cfg.QueueDepth)}
		s.touch(m.now())
		if m.store != nil {
			// The initial snapshot becomes durable before the session is
			// visible: once Create returns, a crash recovers the session.
			if err := m.initDurable(s); err != nil {
				stepper.Close()
				return nil, err
			}
		}
		return s, nil
	})
}

// admit is the one way a session enters the manager: Create, Restore
// and ImportSession differ only in build. It refuses at MaxSessions
// (a session_cap reject), validates a proposed ID or allocates one when
// id is empty, refuses an ID that is live, waits out a teardown of the
// same ID that is still running (its persisted files must not be
// touched until it finishes), and reserves the ID, so that concurrent
// admissions respect the cap without serializing their builds. build
// runs outside every lock and returns an unregistered session; one
// built while Shutdown won the race is torn down here. Only a
// registered session clears the ID's migration tombstone: a refused
// admission leaves the redirect standing.
func (m *Manager) admit(id string, build func(id string) (*session, error)) (SessionInfo, error) {
	m.gate.RLock()
	running := m.state.Load() == stateRunning
	m.gate.RUnlock()
	if !running {
		return SessionInfo{}, ErrClosed
	}
	m.mu.Lock()
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.mRejSessionCap.Inc()
		return SessionInfo{}, ErrTooManySessions
	}
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("s-%06d", m.nextID)
	} else if err := validateProposedID(id); err != nil {
		m.mu.Unlock()
		return SessionInfo{}, err
	}
	if _, live := m.sessions[id]; live {
		m.mu.Unlock()
		return SessionInfo{}, fmt.Errorf("%w: %s", ErrSessionLive, id)
	}
	closing := m.closing[id]
	m.sessions[id] = nil // reserved: counts toward the cap, not yet steppable
	m.mu.Unlock()
	if closing != nil {
		<-closing
	}

	s, err := build(id)
	m.mu.Lock()
	if err == nil && m.state.Load() != stateRunning {
		// Shutdown's sweep of the session map may already have run.
		err = ErrClosed
	}
	if err != nil {
		delete(m.sessions, id)
		m.mu.Unlock()
		if s != nil {
			m.closeSession(s, false)
		}
		return SessionInfo{}, err
	}
	m.sessions[id] = s
	delete(m.tombstones, id)
	if num, ok := sessionNum(id); ok && num > m.nextID {
		m.nextID = num
	}
	m.mLive.Set(float64(len(m.sessions)))
	m.mu.Unlock()
	m.mOpened.Inc()
	return s.info, nil
}

// Info returns the identity of a live session.
func (m *Manager) Info(id string) (SessionInfo, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SessionInfo{}, err
	}
	return s.info, nil
}

// Sessions lists live sessions with their queue occupancy, sorted by ID.
func (m *Manager) Sessions() []SessionStatus {
	now := m.now()
	m.mu.Lock()
	out := make([]SessionStatus, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s == nil {
			continue
		}
		out = append(out, SessionStatus{
			SessionInfo:   s.info,
			QueueDepth:    len(s.frames),
			IdleSeconds:   now.Sub(time.Unix(0, s.lastActive.Load())).Seconds(),
			FramesApplied: int(s.applied.Load()),
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Status reports one live session's occupancy. A migrated session
// answers ErrMoved (as a *MovedError carrying the target node).
func (m *Manager) Status(id string) (SessionStatus, error) {
	s, err := m.lookup(id)
	if err != nil {
		return SessionStatus{}, err
	}
	return SessionStatus{
		SessionInfo:   s.info,
		QueueDepth:    len(s.frames),
		IdleSeconds:   m.now().Sub(time.Unix(0, s.lastActive.Load())).Seconds(),
		FramesApplied: int(s.applied.Load()),
	}, nil
}

// Ready reports whether the manager accepts work (recovery done, not
// draining). The /readyz endpoint composes this with the serve-level
// readiness gate.
func (m *Manager) Ready() bool {
	return m.state.Load() == stateRunning
}

// Submit queues one frame on a session without waiting for its report.
// On success the frame is accepted: it will be stepped (or, if the
// session or manager closes first, answered with ErrClosed) and the
// returned Pending resolves exactly once. On failure the frame was not
// accepted; ErrBackpressure means the queue was full and the caller
// should retry after the hinted delay.
func (m *Manager) Submit(id string, u mat.Vec, readings map[string]mat.Vec) (*Pending, error) {
	b, err := m.SubmitBatch(id, []BatchFrame{{U: u, Readings: readings}})
	if err != nil {
		return nil, err
	}
	return &Pending{b: b}, nil
}

// SubmitBatch queues up to Config.MaxBatch frames on a session as one
// unit: one queue admission, one scheduling quantum, one reply. The
// frames step strictly in order and each gets its own FrameResult, so
// the report stream is bit-for-bit what len(frames) sequential Submit
// calls would produce. Acceptance is all-or-nothing: on any error
// (including ErrBackpressure for a full queue) no frame of the batch
// was accepted. With durability enabled, the batch is acknowledged only
// after the group fsync covering every appended frame completes. Its
// quantum runs on a shard worker: this caller never promised to wait.
func (m *Manager) SubmitBatch(id string, frames []BatchFrame) (*PendingBatch, error) {
	s, b, err := m.accept(id, frames)
	if err == nil {
		m.schedule(s, false)
	}
	return b, err
}

// accept admits one batch to its session's queue, or refuses all of it.
// The caller schedules the session.
func (m *Manager) accept(id string, frames []BatchFrame) (*session, *PendingBatch, error) {
	if len(frames) == 0 {
		return nil, nil, errors.New("fleet: empty batch")
	}
	if len(frames) > m.cfg.MaxBatch {
		return nil, nil, fmt.Errorf("fleet: batch of %d frames exceeds MaxBatch %d", len(frames), m.cfg.MaxBatch)
	}
	m.gate.RLock()
	if m.state.Load() != stateRunning {
		m.gate.RUnlock()
		m.mRejShuttingDown.Add(int64(len(frames)))
		return nil, nil, ErrClosed
	}
	s, err := m.lookup(id)
	if err != nil {
		m.gate.RUnlock()
		return nil, nil, err
	}
	job := frameJob{frames: frames, reply: make(chan []FrameResult, 1)}
	m.inflight.Add(1)
	m.gate.RUnlock()

	if err := s.push(job, m.cfg.RetryAfter); err != nil {
		m.inflight.Done()
		if errors.Is(err, ErrBackpressure) {
			m.mRejected.Add(int64(len(frames)))
			m.mRejQueueFull.Add(int64(len(frames)))
		} else if errors.Is(err, ErrClosed) {
			m.mRejSessionClosed.Add(int64(len(frames)))
		} else if errors.Is(err, ErrMigrating) {
			m.mRejMigrating.Add(int64(len(frames)))
		}
		return nil, nil, err
	}
	if m.cfg.Trace != nil {
		// The admit lap closes here — it absorbs submit-path work and,
		// on the streaming path, any backpressure-retry wait the caller
		// spent between decode and this successful push.
		for i := range frames {
			frames[i].Span.Lap(telemetry.StageAdmit)
		}
	}
	s.touch(m.now())
	m.mQueue.Set(float64(m.queued.Add(int64(len(frames)))))
	return s, &PendingBatch{reply: job.reply}, nil
}

// Step submits one frame and waits for its report, stepping it itself if
// it can (submitWait). A ctx expiry abandons the wait only, and cannot cut
// short a quantum Step runs: the frame was accepted and still steps (the
// session stays consistent); its report is discarded.
func (m *Manager) Step(ctx context.Context, id string, u mat.Vec, readings map[string]mat.Vec) (*detect.Report, error) {
	res, err := m.submitWait(ctx, id, []BatchFrame{{U: u, Readings: readings}}, false)
	if err != nil {
		return nil, err
	}
	return res[0].Report, res[0].Err
}

// submitWait is SubmitBatch plus the wait, for every caller that blocks
// on its reply anyway (Step, /step, /frames, a follower's apply): such a
// caller may run the quantum itself (schedule). With retry, backpressure
// is waited out with the hinted delay on one reused timer — /frames
// promises in-order per-frame replies, and a follower must not drop
// frames. Any other rejection returns at once with the frames' spans
// dropped, since nothing was accepted; a ctx expiry leaves them unfinished.
func (m *Manager) submitWait(ctx context.Context, id string, frames []BatchFrame, retry bool) ([]FrameResult, error) {
	var timer *time.Timer
	for {
		s, b, err := m.accept(id, frames)
		if err == nil {
			m.schedule(s, true)
			return b.Wait(ctx)
		}
		var bp *BackpressureError
		if !retry || !errors.As(err, &bp) {
			for i := range frames {
				frames[i].Span.Drop()
			}
			return nil, err
		}
		if timer == nil {
			timer = time.NewTimer(bp.RetryAfter)
		} else {
			timer.Reset(bp.RetryAfter)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}

// Close tears one session down. Frames already queued are answered with
// ErrClosed; the job a quantum is currently stepping completes first.
// Explicit deletion discards persisted state too: the client said the
// session is finished, so nothing remains to restore.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil || !m.retire(s, diskRemove, "") {
		return fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	return nil
}

// diskFate is what retire does with a retired session's persisted state.
type diskFate int

const (
	diskKeep    diskFate = iota // left as it is
	diskPersist                 // a final snapshot written
	diskRemove                  // deleted
)

// retire is the one way a session leaves the manager: Close removes its
// state, idle eviction persists it, a panicked stepper keeps it, and the
// Migrate cutover removes it and sets the tombstone to movedTo under the
// same lock as the unlist, so a lookup finds the session or the
// redirect, never neither. It unlists s — or does nothing and returns
// false if s is no longer the session listed under its ID — and holds
// the ID's closing latch, which an admission of the same ID waits on,
// until closeSession and the disk work are done.
func (m *Manager) retire(s *session, disk diskFate, movedTo string) bool {
	id := s.info.ID
	m.mu.Lock()
	if m.sessions[id] != s {
		m.mu.Unlock()
		return false
	}
	delete(m.sessions, id)
	if movedTo != "" {
		m.tombstones[id] = movedTo
	}
	ch := m.markClosing(id)
	m.mLive.Set(float64(len(m.sessions)))
	m.mu.Unlock()
	m.closeSession(s, disk == diskPersist)
	if disk == diskRemove && m.store != nil {
		m.store.Remove(id)
	}
	m.doneClosing(id, ch)
	return true
}

// markClosing registers an in-flight teardown for id. Caller holds m.mu.
func (m *Manager) markClosing(id string) chan struct{} {
	ch := make(chan struct{})
	m.closing[id] = ch
	return ch
}

// doneClosing publishes that id's teardown finished.
func (m *Manager) doneClosing(id string, ch chan struct{}) {
	m.mu.Lock()
	delete(m.closing, id)
	m.mu.Unlock()
	close(ch)
}

// Shutdown drains and stops the manager: new sessions and frames are
// rejected with ErrClosed immediately, every already-accepted frame is
// stepped and answered, then all session detectors and shard workers are
// closed. If ctx expires before the drain completes, remaining queued
// frames are answered with ErrClosed instead of being stepped and
// ctx.Err() is returned. Calling Shutdown more than once returns
// ErrClosed.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.gate.Lock()
	flipped := m.state.CompareAndSwap(stateRunning, stateDraining)
	m.gate.Unlock()
	if !flipped {
		return ErrClosed
	}
	if m.janitorStop != nil {
		close(m.janitorStop)
		<-m.janitorDone
	}

	var drainErr error
	drained := make(chan struct{})
	go func() { m.inflight.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}

	m.mu.Lock()
	victims := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			victims = append(victims, s)
		}
	}
	m.sessions = make(map[string]*session)
	m.mu.Unlock()
	for _, s := range victims {
		m.closeSession(s, true)
	}
	// Now finite even on a timed-out drain: queued frames were answered
	// by closeSession, and each running quantum finishes at most one step.
	m.inflight.Wait()
	m.state.Store(stateClosed)
	close(m.quit)
	m.wg.Wait()
	m.mLive.Set(0)
	return drainErr
}

func (m *Manager) lookup(id string) (*session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	target, moved := m.tombstones[id]
	m.mu.Unlock()
	if s == nil {
		if moved {
			return nil, &MovedError{SessionID: id, Target: target}
		}
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	return s, nil
}

// validateProposedID gates client-proposed session IDs to names that
// are safe as state-directory entries and unambiguous in URLs.
func validateProposedID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("fleet: invalid session id %q", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("fleet: invalid session id %q", id)
		}
	}
	if id[0] == '.' {
		return fmt.Errorf("fleet: invalid session id %q", id)
	}
	return nil
}

// schedule gives a session its next quantum unless one is queued or
// running; the CAS keeps runq (capacity MaxSessions) at ≤1 entry per
// session, so sends never block. A waiting caller runs the quantum itself
// when a slot is free, sparing a hand-off to a worker and back. runq is
// never closed: the quantum that answered Shutdown's last job may still be
// rescheduling its session; after quit the entry is dropped, with nothing
// left to step.
func (m *Manager) schedule(s *session, waiting bool) {
	if !s.scheduled.CompareAndSwap(false, true) {
		return
	}
	if waiting {
		select {
		case m.slots <- struct{}{}:
			m.serve(s, m.mRunCaller)
			<-m.slots
			return
		default:
		}
	}
	select {
	case m.runq <- s:
	case <-m.quit:
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case s := <-m.runq:
			m.slots <- struct{}{}
			m.serve(s, m.mRunWorker)
			<-m.slots
		case <-m.quit:
			return
		}
	}
}

// serve is one scheduling quantum, run by a worker or a waiting caller
// holding the session's run token and a slot: it steps at most one
// queued job — a single frame or one bounded batch, so a deep-backlog
// session cannot starve the others — then reschedules the session if its
// queue is still non-empty. The Store(false)-then-recheck order closes
// the missed-wakeup race with a concurrent submit: any push that misses
// this recheck sees scheduled == false and wins the CAS itself.
func (m *Manager) serve(s *session, quanta *telemetry.Counter) {
	if job, ok := m.pop(s); ok {
		quanta.Inc()
		m.process(s, job)
	}
	s.scheduled.Store(false)
	if len(s.frames) > 0 {
		m.schedule(s, false)
	}
}

// pop dequeues the session's next job without blocking, keeping the
// queue-depth gauge in step.
func (m *Manager) pop(s *session) (frameJob, bool) {
	select {
	case job := <-s.frames:
		m.mQueue.Set(float64(m.queued.Add(-int64(len(job.frames)))))
		if m.cfg.Trace != nil {
			for i := range job.frames {
				job.frames[i].Span.Lap(telemetry.StageQueueWait)
			}
		}
		return job, true
	default:
		return frameJob{}, false
	}
}

// process steps one job's frames, in order, through the session
// detector. The steps run under the session's step mutex, which
// Close/Shutdown also take before closing the detector, so a stepper is
// never closed mid-step. Each frame gets its own result (a failed frame
// does not fail its batch neighbors — exactly the sequential-submission
// semantics); the stepped-and-appended job then goes to complete, the
// one tail that makes it durable and answers it. A stepper that panics
// takes down its own session, not the process: see stepFrames.
func (m *Manager) process(s *session, job frameJob) {
	results := make([]FrameResult, len(job.frames))
	appended := 0
	panicked := false
	s.stepMu.Lock()
	if s.isClosed() {
		failAll(results, fmt.Errorf("%w: session %s", ErrClosed, s.info.ID))
	} else {
		panicked = m.stepFrames(s, job.frames, results, &appended)
	}
	m.complete(s, job, results, appended)
	s.stepMu.Unlock()
	if panicked {
		// The detector may have been left mid-step, so it is not
		// snapshotted: a durable session's last snapshot and log hold
		// every frame it acknowledged, and a restore rebuilds it from them.
		m.retire(s, diskKeep, "")
	}
}

// stepFrames steps frames into results and reports whether the stepper
// panicked. The frames before the panicking one keep their results —
// appended, they complete and are answered as usual — while the
// panicking frame and every later one are answered with ErrStepPanic.
func (m *Manager) stepFrames(s *session, frames []BatchFrame, results []FrameResult, appended *int) (panicked bool) {
	i := 0
	defer func() {
		if v := recover(); v != nil {
			m.mStepPanics.Inc()
			slog.Error("fleet: session stepper panicked", "session", s.info.ID, "panic", v, "stack", string(debug.Stack()))
			failAll(results[i:], fmt.Errorf("%w: session %s: %v", ErrStepPanic, s.info.ID, v))
			panicked = true
		}
	}()
	for ; i < len(frames); i++ {
		fr := frames[i]
		// A frame deep in the job waited for its predecessors since the
		// queue-wait lap; that batch-position wait is the coalesce stage.
		fr.Span.Lap(telemetry.StageCoalesce)
		start := time.Now()
		rep, err := s.stepper.StepContext(context.Background(), fr.U, fr.Readings)
		fr.Span.Lap(telemetry.StageStep)
		results[i] = m.record(s, fr, rep, err, appended)
		m.mStepSeconds.Observe(time.Since(start).Seconds())
	}
	return false
}

// record books one stepped frame: counters, and for a durable session
// the WAL append that must precede any success reply. The caller holds
// s.stepMu and has lapped the frame's step stage.
func (m *Manager) record(s *session, fr BatchFrame, rep *detect.Report, err error, appended *int) FrameResult {
	m.mFrames.Inc()
	if err == nil && s.ds != nil {
		// Reply-after-fsync ordering: the frame is logged here, and
		// complete enlists the job for the group sync that makes it durable
		// before the client hears success, so a replied frame survives any
		// crash.
		if derr := m.logFrame(s, fr, rep); derr != nil {
			rep, err = nil, derr
		} else {
			*appended++
			fr.Span.Lap(telemetry.StageWALAppend)
		}
	}
	if err != nil {
		m.mErrors.Inc()
	} else {
		s.applied.Add(1)
	}
	return FrameResult{Report: rep, Err: err}
}

// complete is the tail every job takes after its frames were stepped
// and appended: checkpoint cadence → commit → follower ack → reply. The
// caller runs the quantum (a worker, or a caller in submitWait) and holds
// s.stepMu, and complete never blocks it on the disk: a durable job is
// enlisted with the store's flusher — which, after the one sync covering
// the job's last append, laps the fsync stage and sends the reply — and
// the quantum ends, releasing stepMu and its slot for the next runnable
// session, this session's next job included. A volatile session
// (s.ds == nil) is answered right here, in the quantum.
//
// The ack point is the completion callback: nothing before it tells the
// client anything, so replied ⇒ durable holds, and the store runs one
// session's completions in enlistment order, so replies keep submission
// order even while a later job steps during an earlier job's sync.
//
// Under AckFollower the wait for the follower's ack must not sit on the
// flusher, where one slow follower would hold up every session's next
// sync: the completion hands the job to a goroutine of its own, and the
// session's ackTail chain keeps those goroutines answering in order.
func (m *Manager) complete(s *session, job frameJob, results []FrameResult, appended int) {
	if s.ds == nil {
		m.answer(s, job, results)
		return
	}
	if appended > 0 && m.snapshotEvery > 0 && s.ds.SinceSnapshot() >= m.snapshotEvery {
		// Checkpoint cadence, in the quantum because it needs the detector
		// under stepMu. It waits for nothing: the snapshot is itself a
		// durable copy of every applied frame, and commits this session
		// still has enlisted complete against the log on their own. A
		// failed checkpoint only postpones compaction; it does not fail the
		// batch.
		m.persistSnapshot(s)
	}
	followerAck := m.cfg.AckPolicy == AckFollower && m.repl != nil
	var prev, next chan struct{}
	if followerAck {
		prev, next = s.ackTail, make(chan struct{})
		s.ackTail = next
	}
	seq := s.ds.Applied() // the job's last appended frame
	s.ds.CommitAsync(appended, func(err error) {
		if err != nil {
			// The group sync failed: durability of every frame in the
			// job is unknown, and a success reply would break the
			// replied ⇒ durable contract.
			err = fmt.Errorf("fleet: commit frames: %w", err)
		} else if appended > 0 && m.cfg.Trace != nil {
			// Durability-wait attribution: time between a frame's WAL
			// append and the sync covering it — batch mates stepped
			// after it, the flusher's grouping delay, the sync itself.
			for i := range job.frames {
				if results[i].Err == nil {
					job.frames[i].Span.Lap(telemetry.StageFsync)
				}
			}
		}
		if !followerAck {
			m.finish(s, job, results, err)
			return
		}
		go func() {
			if err == nil && appended > 0 {
				// If the follower never confirms its own fsync of these
				// frames, a success reply would overstate durability —
				// fail them like a commit error.
				err = m.repl.waitAcked(s.info.ID, seq, m.cfg.AckTimeout)
			}
			if prev != nil {
				<-prev // the session's previous job has been answered
			}
			m.finish(s, job, results, err)
			close(next)
		}()
	})
}

// finish answers a durable job once its commit completed: err, when set,
// replaces the result of every frame that had stepped cleanly.
func (m *Manager) finish(s *session, job frameJob, results []FrameResult, err error) {
	if err != nil {
		for i := range results {
			if results[i].Err == nil {
				results[i] = FrameResult{Err: err}
			}
		}
	}
	m.answer(s, job, results)
}

// answer sends a job's reply. The session stops counting the job as
// outstanding first, so a caller holding its reply can never find the
// session still busy with it (eviction and migration key off that).
func (m *Manager) answer(s *session, job frameJob, results []FrameResult) {
	s.touch(m.now())
	s.outstanding.Add(-1)
	job.reply <- results
	m.inflight.Done()
}

func failAll(results []FrameResult, err error) {
	for i := range results {
		results[i].Err = err
	}
}

// closeSession marks the session closed (rejecting new pushes), answers
// every queued frame with ErrClosed, and closes the detector once any
// in-flight step (or in-flight Checkpoint — both hold stepMu) finishes.
// With persist, a final snapshot is written first so eviction and
// shutdown leave the session restorable at its exact frame boundary.
// Jobs already enlisted with the flusher are still synced and answered:
// the flusher holds a log position, nothing of the session.
func (m *Manager) closeSession(s *session, persist bool) {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	for drained := false; !drained; {
		select {
		case job := <-s.frames:
			m.mQueue.Set(float64(m.queued.Add(-int64(len(job.frames)))))
			results := make([]FrameResult, len(job.frames))
			failAll(results, fmt.Errorf("%w: session %s", ErrClosed, s.info.ID))
			m.answer(s, job, results)
		default:
			drained = true
		}
	}
	s.stepMu.Lock()
	if s.ds != nil {
		if persist && s.ds.SinceSnapshot() > 0 {
			// Best-effort: the WAL already makes every frame durable,
			// so a failed final snapshot only means recovery replays a
			// longer tail.
			m.persistSnapshot(s)
		}
		s.ds.Close()
		s.ds = nil
	}
	s.stepper.Close()
	s.stepMu.Unlock()
}

func (m *Manager) janitor(interval time.Duration) {
	defer close(m.janitorDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			if m.cfg.IdleTimeout > 0 {
				m.evictIdle()
			}
			m.checkpointLagging()
		}
	}
}

// checkpointLagging keeps the shared log bounded: a live session whose
// oldest record since its snapshot lies more than two segments behind the
// log's head pins every segment from there on, so it is checkpointed —
// which it would not be on its own, being idle or slow. (An evicted
// session ends on a snapshot and pins nothing.)
func (m *Manager) checkpointLagging() {
	if m.store == nil {
		return
	}
	for _, id := range m.store.Lagging() {
		s, err := m.lookup(id)
		if err != nil {
			continue
		}
		s.stepMu.Lock()
		if !s.isClosed() && s.ds != nil {
			m.persistSnapshot(s)
		}
		s.stepMu.Unlock()
	}
}

// evictIdle retires the sessions whose last activity predates
// IdleTimeout, keeping their persisted state: clients see
// ErrSessionNotFound, and Restore revives a session from its final
// snapshot. Sessions with an unanswered job — queued, mid-step, or
// enlisted and awaiting its sync — and sessions draining for migration
// are never evicted.
func (m *Manager) evictIdle() {
	cutoff := m.now().Add(-m.cfg.IdleTimeout).UnixNano()
	m.mu.Lock()
	listed := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			listed = append(listed, s)
		}
	}
	m.mu.Unlock()
	for _, s := range listed {
		if s.lastActive.Load() <= cutoff && s.outstanding.Load() == 0 && !s.migrating.Load() &&
			m.retire(s, diskPersist, "") {
			m.mEvicted.Inc()
		}
	}
}

// BatchFrame is one frame of a batch submission: the control input and
// the sensor readings for a single detector step.
type BatchFrame struct {
	U        mat.Vec
	Readings map[string]mat.Vec
	// Span, when frame tracing is on, carries the frame's lifecycle
	// record; the shard pool laps queue-wait, coalesce, step, WAL, and
	// fsync stages on it. Nil (the default, and always when
	// Config.Trace is nil) traces nothing. The submitter retains
	// ownership: the fleet never finishes or drops a span.
	Span *telemetry.Span
}

// FrameResult is the outcome of one frame of a batch: a report or an
// error, exactly what the matching sequential Step call would return.
type FrameResult struct {
	Report *detect.Report
	Err    error
}

// Pending is an accepted frame's pending report.
type Pending struct {
	b *PendingBatch
}

// Wait blocks until the frame's report is ready or ctx expires. The
// frame steps either way; expiry only abandons the wait.
func (p *Pending) Wait(ctx context.Context) (*detect.Report, error) {
	res, err := p.b.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res[0].Report, res[0].Err
}

// PendingBatch is an accepted batch's pending results.
type PendingBatch struct {
	reply chan []FrameResult
}

// Wait blocks until the batch's results are ready or ctx expires. The
// results slice has one entry per submitted frame, in submission order.
// The frames step either way; expiry only abandons the wait.
func (b *PendingBatch) Wait(ctx context.Context) ([]FrameResult, error) {
	select {
	case res := <-b.reply:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type frameJob struct {
	frames []BatchFrame
	reply  chan []FrameResult // buffered (cap 1): the reply never blocks on an abandoned waiter
}

// session is one hosted detector. closeMu orders frame pushes against
// the closed flag; stepMu serializes detector use (one quantum at a
// time, and never concurrently with Stepper.Close).
type session struct {
	info      SessionInfo
	spec      Spec // the build spec, recorded for snapshot identity
	stepper   Stepper
	ds        *store.SessionStore // nil when durability is off; guarded by stepMu
	frames    chan frameJob
	scheduled atomic.Bool // holds the session's one run-queue token
	// outstanding counts accepted jobs not yet answered — queued,
	// mid-step, or enlisted with the store's flusher. It drops just
	// before the reply is sent, so it is what "busy" means to eviction
	// and migration.
	outstanding atomic.Int32
	// ackTail is closed once the session's latest AckFollower job has
	// been answered; the next one waits on it. Guarded by stepMu.
	ackTail    chan struct{}
	lastActive atomic.Int64 // UnixNano of last accepted or finished frame
	// applied counts frames folded into the detector state — the index
	// the next frame continues from. It equals ds.Applied() for durable
	// sessions and is what migration exports at.
	applied atomic.Int64
	// migrating rejects new pushes (ErrMigrating) while the session
	// drains for live migration; cleared if the migration aborts.
	migrating atomic.Bool
	closeMu   sync.RWMutex
	closed    bool
	stepMu    sync.Mutex

	// walFrame is logFrame's reused log record, pointed at each logged
	// frame's inputs only while it is encoded. Guarded by stepMu.
	walFrame trace.Frame
}

func (s *session) isClosed() bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.closed
}

func (s *session) touch(t time.Time) { s.lastActive.Store(t.UnixNano()) }

func (s *session) push(job frameJob, retryAfter time.Duration) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return fmt.Errorf("%w: session %s", ErrClosed, s.info.ID)
	}
	if s.migrating.Load() {
		return fmt.Errorf("%w: session %s", ErrMigrating, s.info.ID)
	}
	s.outstanding.Add(1)
	select {
	case s.frames <- job:
		return nil
	default:
		s.outstanding.Add(-1)
		return &BackpressureError{SessionID: s.info.ID, RetryAfter: retryAfter}
	}
}
