// Package store is the durability layer of the fleet session service: a
// versioned snapshot codec plus ONE append-only log of accepted frames
// shared by every session of a Store. Recovery loads a session's newest
// valid snapshot and replays its later log records through a freshly
// built detector, after which the next frame produces exactly the report
// the uninterrupted process would have — bit for bit.
//
// On-disk layout:
//
//	<dir>/log-<lsn, 16 hex digits>   log segment whose first byte is at <lsn>
//	<dir>/<session>/snapshot-<k>     snapshot after k applied frames
//
// The log is one byte stream cut into segments. A byte's position in the
// stream is its LSN, and a record — CRC-checked, carrying session ID,
// sequence number and frame (log.go) — is named by the LSN of its first
// byte. A job's records go down in one write under the store mutex, and
// one fsync of the head segment makes every session's records up to it
// durable, which is what group commit (committer.go) amortizes.
//
// A snapshot stores the LSN the log had reached when it was taken
// (Snapshot.LogLSN): only its session's records at or after that LSN,
// numbered on from FramesApplied+1, count. So nothing ever rewrites the
// log — older records, records of a removed or re-imported session and
// records of a session that never got a snapshot are simply ignored —
// and since a snapshot is written to a temporary file and renamed, a
// crash mid-write leaves the previous one intact.
//
// A segment that reaches a fixed size is synced and its successor
// started, so only the last segment can end in a torn record; a segment
// is deleted once no session has a record since its snapshot in or before
// it. An in-memory index per session (positions of its records since the
// snapshot), built by one scan at Open and extended by every append,
// serves Recover, ReplicaRead and migration without re-reading the log.
//
// The first torn or corrupt record ends the WHOLE log: Open truncates
// there and every session keeps what it has before that point. That is
// safe because a frame is acknowledged only after an fsync that covered
// its record, and a crash tears only bytes no sync covered: everything
// acknowledged lies below the last successful sync, hence below the tear.
// A FAILED fsync is another matter — the kernel may have dropped the
// dirty pages — so after one the store refuses appends and commits
// (ErrLogFailed) until reopened. And a bad record in a segment that is
// not the last cannot be a torn write: Open reports it (MetricLogCorrupt,
// error log), ends the log there too, and sets the later segments aside
// rather than skip over the damage.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"roboads/internal/detect"
)

// SnapshotVersion is the current snapshot codec version. Decoders
// refuse other versions with ErrSnapshotVersion rather than guessing:
// the payload schema may have changed incompatibly. The versioning
// policy is append-only — new optional JSON fields do not bump the
// version; removed or re-interpreted fields do.
const SnapshotVersion = 1

// snapshotMagic brands a snapshot file so arbitrary files (and traces)
// are rejected immediately.
var snapshotMagic = [6]byte{'R', 'B', 'S', 'N', 'A', 'P'}

// envelope layout: magic[6] | version uint16 | payloadLen uint32 |
// payload | crc32(payload) uint32, all little-endian.
const envelopeHeaderLen = 6 + 2 + 4
const envelopeTrailerLen = 4

// maxSnapshotPayload bounds a decoded payload allocation so a corrupt
// or hostile length field cannot OOM the process. Real snapshots are a
// few kilobytes.
const maxSnapshotPayload = 64 << 20

// Snapshot codec errors.
var (
	// ErrSnapshotCorrupt indicates a snapshot whose envelope is
	// malformed, truncated, or fails its checksum.
	ErrSnapshotCorrupt = errors.New("store: corrupt snapshot")
	// ErrSnapshotVersion indicates a snapshot recorded under a
	// different codec version.
	ErrSnapshotVersion = errors.New("store: unsupported snapshot version")
)

// Snapshot is one serialized detector checkpoint: the session identity
// needed to rebuild the detector plus the complete pipeline state.
type Snapshot struct {
	// SessionID is the fleet session identifier.
	SessionID string `json:"sessionId"`
	// Robot names the platform profile the session hosts.
	Robot string `json:"robot"`
	// Sensors and Dt mirror the session's wire contract; recovery
	// validates them against the freshly built detector's profile.
	Sensors []string `json:"sensors"`
	Dt      float64  `json:"dtSeconds"`
	// FramesApplied counts the frames folded into State — the session's
	// log records after this snapshot continue at FramesApplied+1.
	FramesApplied int `json:"framesApplied"`
	// State is the detector's exported pipeline state.
	State *detect.State `json:"state"`
	// LogLSN is the position the store's log had reached when the
	// snapshot was taken: only the session's records at or after it
	// count. Set by the store (Materialize re-stamps a shipped snapshot
	// with the receiver's); 0 in snapshots that predate the shared log.
	LogLSN int64 `json:"logLsn,omitempty"`
}

// EncodeSnapshot serializes a snapshot into the versioned CRC-checked
// envelope. The payload is JSON: encoding/json renders float64 with
// shortest-exact precision, so every filter quantity round-trips
// bit-for-bit.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	if snap == nil || snap.State == nil {
		return nil, errors.New("store: nil snapshot")
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("store: encode snapshot: %w", err)
	}
	out := make([]byte, envelopeHeaderLen+len(payload)+envelopeTrailerLen)
	copy(out, snapshotMagic[:])
	binary.LittleEndian.PutUint16(out[6:], SnapshotVersion)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(payload)))
	copy(out[envelopeHeaderLen:], payload)
	crc := crc32.ChecksumIEEE(payload)
	binary.LittleEndian.PutUint32(out[envelopeHeaderLen+len(payload):], crc)
	return out, nil
}

// DecodeSnapshot parses and validates a snapshot envelope. Truncated,
// bit-flipped, or foreign inputs return ErrSnapshotCorrupt (or
// ErrSnapshotVersion for a valid envelope of another version); no input
// panics.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < envelopeHeaderLen+envelopeTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes (want at least %d)", ErrSnapshotCorrupt, len(data), envelopeHeaderLen+envelopeTrailerLen)
	}
	if [6]byte(data[:6]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	version := binary.LittleEndian.Uint16(data[6:])
	if version != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrSnapshotVersion, version, SnapshotVersion)
	}
	payloadLen := binary.LittleEndian.Uint32(data[8:])
	if payloadLen > maxSnapshotPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrSnapshotCorrupt, payloadLen)
	}
	if len(data) != envelopeHeaderLen+int(payloadLen)+envelopeTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes (header says %d payload)", ErrSnapshotCorrupt, len(data), payloadLen)
	}
	payload := data[envelopeHeaderLen : envelopeHeaderLen+int(payloadLen)]
	want := binary.LittleEndian.Uint32(data[envelopeHeaderLen+int(payloadLen):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum %08x (want %08x)", ErrSnapshotCorrupt, got, want)
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrSnapshotCorrupt, err)
	}
	if snap.State == nil || snap.State.Engine == nil || snap.State.Decider == nil {
		return nil, fmt.Errorf("%w: incomplete state", ErrSnapshotCorrupt)
	}
	if snap.FramesApplied < 0 {
		return nil, fmt.Errorf("%w: negative frame count", ErrSnapshotCorrupt)
	}
	return &snap, nil
}
