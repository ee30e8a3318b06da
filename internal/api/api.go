// Package api holds the /v1 wire contract of the fleet session
// service: every request and response struct, the streaming reply line,
// the replication records, and the machine-readable error envelope.
// The fleet HTTP layer, the router, and the typed Go client all speak
// exactly these types — a golden-file test pins their JSON rendering so
// version skew between router, node, and client breaks loudly in CI
// rather than at proxy time.
//
// Floats cross the wire through encoding/json, whose shortest-exact
// rendering round-trips every float64 bit-for-bit, so two wire values
// are equal if and only if the underlying quantities agree exactly. The
// one binary rendering, the /frames reply record (replyrecord.go), ships
// the IEEE-754 bits and is pinned by golden bytes of its own.
package api

import "roboads/internal/trace"

// Version is the wire contract version, served as the "v1" path prefix.
// The versioning policy is append-only: new optional JSON fields do not
// bump it; removed or re-interpreted fields do.
const Version = 1

// ContentTypeBinaryFrames selects the binary frame wire on
// POST /v1/sessions/{id}/frames: the request body is a stream of
// trace binary frame records (no stream prologue, no header record —
// exactly the record envelope trace.ReadFrameRecord consumes). Any
// other Content-Type means trace.Frame NDJSON. Replies are ReplyLine
// NDJSON unless the request also asks for reply records: see
// ContentTypeBinaryReplies.
const ContentTypeBinaryFrames = "application/x-roboads-frames"

// ContentTypeNDJSON is the NDJSON content type of frame and reply
// streams.
const ContentTypeNDJSON = "application/x-ndjson"

// WireReport is the serialized form of one frame's detector report — the
// decision-relevant subset of detect.Report, flat and JSON-stable.
type WireReport struct {
	// K is the control iteration index.
	K int `json:"k"`
	// Mode is the selected hypothesis mode's name.
	Mode string `json:"mode"`
	// Condition is the confirmed misbehavior condition, e.g. "S{ips}/A0".
	Condition string `json:"condition"`
	// SensorStat/SensorThreshold are the aggregate sensor test statistic
	// and its chi-square threshold; SensorAlarm is the window-confirmed
	// alarm.
	SensorStat      float64 `json:"sensorStat"`
	SensorThreshold float64 `json:"sensorThreshold"`
	SensorAlarm     bool    `json:"sensorAlarm,omitempty"`
	// ActuatorStat/ActuatorThreshold/ActuatorAlarm are the actuator-side
	// counterparts.
	ActuatorStat      float64 `json:"actuatorStat"`
	ActuatorThreshold float64 `json:"actuatorThreshold"`
	ActuatorAlarm     bool    `json:"actuatorAlarm,omitempty"`
	// X is the fused state estimate x̂_{k|k}.
	X []float64 `json:"x"`
	// Weights are the normalized mode weights μ_k.
	Weights []float64 `json:"weights"`
	// Da is the actuator anomaly estimate; omitted when the actuator
	// anomaly was unobservable this iteration (DaValid false).
	Da      []float64 `json:"da,omitempty"`
	DaValid bool      `json:"daValid,omitempty"`
}

// CreateRequest is the body of POST /v1/sessions.
type CreateRequest struct {
	// Robot names the platform profile to host.
	Robot string `json:"robot"`
	// ID optionally proposes the session identifier instead of letting
	// the node assign one. The router places sessions by consistent hash
	// of the ID, so it generates the ID first and proposes it — then the
	// owner of an ID is a pure function of the node list. A proposed ID
	// that is already live answers ErrSessionLive (409).
	ID string `json:"id,omitempty"`
	// Restore, when set, revives the named persisted session (e.g. one
	// that was idle-evicted) under its original ID instead of creating
	// a new one; Robot is then ignored — the session's recorded profile
	// wins. Requires a durable node.
	Restore string `json:"restore,omitempty"`
}

// SessionInfo identifies a live session. Robot, Sensors, and Dt mirror
// the trace.Header fields (same JSON names), so a session advertises the
// exact wire contract a recorded trace carries.
type SessionInfo struct {
	// ID is the session identifier.
	ID string `json:"id"`
	// Robot names the hosted platform profile.
	Robot string `json:"robot"`
	// Sensors lists the expected sensing workflow names per frame.
	Sensors []string `json:"sensors"`
	// Dt is the control period in seconds.
	Dt float64 `json:"dtSeconds"`
}

// SessionStatus is SessionInfo plus live occupancy, as reported by
// GET /v1/sessions and GET /v1/sessions/{id}.
type SessionStatus struct {
	SessionInfo
	// QueueDepth is the session's current frame backlog.
	QueueDepth int `json:"queueDepth"`
	// IdleSeconds is the time since the session last accepted or
	// finished a frame.
	IdleSeconds float64 `json:"idleSeconds"`
	// FramesApplied is the number of frames folded into the detector
	// state — the index the next frame continues from.
	FramesApplied int `json:"framesApplied"`
	// Node is the base URL of the node hosting the session. Nodes leave
	// it empty; the router fills it in when merging per-node listings.
	Node string `json:"node,omitempty"`
}

// CheckpointInfo describes one completed checkpoint, returned by
// POST /v1/sessions/{id}/checkpoint.
type CheckpointInfo struct {
	// SessionID is the checkpointed session.
	SessionID string `json:"sessionId"`
	// FramesApplied is the absolute frame count folded into the
	// snapshot — the point recovery resumes from with an empty WAL.
	FramesApplied int `json:"framesApplied"`
	// SnapshotBytes is the encoded snapshot size on disk.
	SnapshotBytes int `json:"snapshotBytes"`
}

// ReplyLine is one reply streamed back per submitted frame — an NDJSON
// line or a reply record (ContentTypeBinaryReplies) — and the body of a
// single-frame /step response. Exactly one of Report and Error is set.
type ReplyLine struct {
	// K is, next to a Report, the detector's iteration index (Report.K):
	// how many frames the session's detector had stepped before this
	// one, which falls behind the frames' own K once a frame has been
	// refused. Next to an Error it echoes the refused frame's K (the
	// first frame's, for an error that fails a whole batch).
	K int `json:"k"`
	// Report is the frame's detector report.
	Report *WireReport `json:"report,omitempty"`
	// Error describes why the frame produced no report.
	Error string `json:"error,omitempty"`
	// Code is the machine-readable error code of Error (the same
	// vocabulary as the Error envelope); empty on success.
	Code string `json:"code,omitempty"`
	// Closed marks errors that end the session (closed, evicted, moved,
	// or unknown); the client must stop streaming.
	Closed bool `json:"closed,omitempty"`
	// RetryAfterMs is the backpressure retry hint of a rejected frame
	// (single-frame /step only; the streaming endpoint retries
	// server-side).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// MigrateRequest is the body of POST /v1/sessions/{id}/migrate.
type MigrateRequest struct {
	// Target is the base URL of the node to move the session to, e.g.
	// "http://127.0.0.1:8081".
	Target string `json:"target"`
}

// MigrateResponse reports a completed live migration.
type MigrateResponse struct {
	// SessionID is the migrated session.
	SessionID string `json:"sessionId"`
	// Target is the node now hosting it.
	Target string `json:"target"`
	// FramesApplied is the frame count at the migration boundary; the
	// target resumes from exactly here, bit-for-bit.
	FramesApplied int `json:"framesApplied"`
}

// ImportRequest is the body of POST /v1/internal/sessions/import — the
// receiving half of a live migration. Snapshot is a complete store
// snapshot envelope (identity + state + FramesApplied); Frames is the
// WAL tail to replay on top of it. The session ID travels inside the
// snapshot.
type ImportRequest struct {
	// Snapshot is the versioned CRC-checked snapshot envelope
	// (base64-encoded by encoding/json).
	Snapshot []byte `json:"snapshot"`
	// Frames is the WAL tail: the frames applied after the snapshot, in
	// order, continuing at the snapshot's FramesApplied+1.
	Frames []*trace.Frame `json:"frames,omitempty"`
}

// Replication wire (POST /v1/internal/replicate): the follower opens a
// full-duplex request whose body starts with one ReplHello line and
// continues with ReplAck lines; the primary streams ReplRecord NDJSON
// back until the connection dies or a newer follower replaces this one.

// ReplHello is the first request-body line of a replication stream: the
// follower's durable cursor per session. A session absent from the map
// means the follower holds nothing for it and needs a snapshot.
type ReplHello struct {
	Cursors map[string]int `json:"cursors"`
}

// ReplRecord is one NDJSON line of the primary's replication stream.
type ReplRecord struct {
	// Type is "snapshot", "frame", "sessions", or "ping".
	Type string `json:"type"`
	// Session is the session the record belongs to (snapshot, frame).
	Session string `json:"session,omitempty"`
	// Seq is the absolute applied-frame index the record brings the
	// follower to: the snapshot's FramesApplied, or the frame's WAL
	// sequence number.
	Seq int `json:"seq,omitempty"`
	// Snapshot is the full snapshot envelope (type "snapshot").
	Snapshot []byte `json:"snapshot,omitempty"`
	// Frame is one WAL frame (type "frame").
	Frame *trace.Frame `json:"frame,omitempty"`
	// Sessions is the primary's full live-session list (type
	// "sessions"); the follower drops local sessions not in it.
	Sessions []string `json:"sessions,omitempty"`
}

// ReplAck is one request-body line after the hello: the follower has
// made session durable through seq on its own storage.
type ReplAck struct {
	Session string `json:"session"`
	Seq     int    `json:"seq"`
}
