package roboads

import (
	"roboads/internal/fleet"
	"roboads/internal/store"
)

// Fleet session service (DESIGN.md §10): host many concurrent detectors
// behind one streaming ingest surface. Sessions are created from a
// FleetSpec, fed frames through Submit/Step, and closed explicitly or
// evicted after idling; a bounded worker pool shards the sessions and
// per-session queues apply explicit backpressure. Manager.Handler
// exposes the same surface over HTTP (`roboads serve`).
type (
	// Fleet is the session manager.
	Fleet = fleet.Manager
	// FleetConfig sizes the worker pool, queues, session cap, and idle
	// eviction, and wires the telemetry registry.
	FleetConfig = fleet.Config
	// FleetSpec describes the session to create (robot profile, ID).
	FleetSpec = fleet.Spec
	// FleetBuilder turns a spec into a hosted detector.
	FleetBuilder = fleet.Builder
	// FleetStepper is the hosted-detector interface a builder returns.
	FleetStepper = fleet.Stepper
	// FleetPending is an accepted frame's future report.
	FleetPending = fleet.Pending
	// SessionInfo identifies a session (ID, robot, sensor inventory, dt).
	SessionInfo = fleet.SessionInfo
	// SessionStatus is SessionInfo plus live queue depth and idle time.
	SessionStatus = fleet.SessionStatus
	// WireReport is the frame-report wire format; JSON float64 round-trips
	// exactly, so wire equality is bit-for-bit report equality.
	WireReport = fleet.WireReport
	// ReplyLine is one NDJSON reply on the streaming frames endpoint.
	ReplyLine = fleet.ReplyLine
	// SessionRequest is the POST /v1/sessions body.
	SessionRequest = fleet.CreateRequest
	// BackpressureError carries the retry-after hint of a rejected frame;
	// match it with errors.As after errors.Is(err, ErrBackpressure).
	BackpressureError = fleet.BackpressureError
	// FleetDurability enables checkpoint/WAL persistence for hosted
	// sessions (FleetConfig.Durability; DESIGN.md §11): every accepted
	// frame is WAL-logged before its reply, snapshots compact the log on a
	// cadence, and a restarted manager recovers each session bit-for-bit.
	FleetDurability = fleet.Durability
	// FleetStateStepper is the stepper durability requires: a Stepper
	// whose complete cross-iteration state exports and imports.
	FleetStateStepper = fleet.StateStepper
	// CheckpointInfo reports a forced checkpoint (frames applied,
	// snapshot bytes).
	CheckpointInfo = fleet.CheckpointInfo
)

// Fleet constructors.
var (
	// NewFleet starts a session manager; Shutdown drains it.
	NewFleet = fleet.NewManager
	// FleetProfileBuilder builds sessions from named robot profiles under
	// a caller-supplied configuration.
	FleetProfileBuilder = fleet.ProfileBuilder
	// DefaultFleetBuilder is FleetProfileBuilder under the paper defaults.
	DefaultFleetBuilder = fleet.DefaultBuilder
	// NewWireReport converts a detector report to the wire format.
	NewWireReport = fleet.NewWireReport
)

// Typed error sentinels of the fleet surface. All are stable under
// errors.Is through arbitrary wrapping:
//
//   - ErrSessionNotFound: the session ID does not exist (never created,
//     already closed, or evicted). HTTP: 404.
//   - ErrBackpressure: the session's frame queue is full; the frame was
//     NOT accepted and may be retried. errors.As against a
//     *BackpressureError yields the RetryAfter hint. HTTP: 429.
//   - ErrClosed: the frame was accepted but the session (or the whole
//     manager) closed before it was stepped, or the manager is draining
//     and no longer accepts work. HTTP: 410.
//   - ErrTooManySessions: the MaxSessions cap is reached. HTTP: 503.
//   - ErrDurabilityDisabled: a checkpoint/restore was requested but the
//     manager has no state directory configured. HTTP: 501.
//   - ErrSessionLive: a restore named a session that is already running.
//     HTTP: 409.
var (
	ErrSessionNotFound    = fleet.ErrSessionNotFound
	ErrBackpressure       = fleet.ErrBackpressure
	ErrClosed             = fleet.ErrClosed
	ErrTooManySessions    = fleet.ErrTooManySessions
	ErrDurabilityDisabled = fleet.ErrDurabilityDisabled
	ErrSessionLive        = fleet.ErrSessionLive
)

// Fleet metric names registered on the telemetry registry passed in
// FleetConfig.Metrics (gauges and counters on /metrics).
const (
	MetricFleetSessionsLive   = fleet.MetricSessionsLive
	MetricFleetQueueDepth     = fleet.MetricQueueDepth
	MetricFleetSessionsOpened = fleet.MetricSessionsOpened
	MetricFleetEvictions      = fleet.MetricEvictions
	MetricFleetRejectedFrames = fleet.MetricRejectedFrames
	MetricFleetFrames         = fleet.MetricFrames
	MetricFleetFrameErrors    = fleet.MetricFrameErrors
	MetricFleetStepSeconds    = fleet.MetricStepSeconds
)

// Durability metric names registered by the session store when
// FleetConfig.Durability is enabled (DESIGN.md §11).
const (
	MetricStoreSnapshotBytes     = store.MetricSnapshotBytes
	MetricStoreSnapshotSeconds   = store.MetricSnapshotSeconds
	MetricStoreWALAppends        = store.MetricWALAppends
	MetricStoreWALFsyncs         = store.MetricWALFsyncs
	MetricStoreRecoveredSessions = store.MetricRecoveredSessions
	MetricStoreRecoveredFrames   = store.MetricRecoveredFrames
)
