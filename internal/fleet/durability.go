package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/store"
	"roboads/internal/trace"
)

// Durability configures the optional persistence layer of a Manager.
// When Dir is set, every session checkpoints its detector state to
// <Dir>/<session>/ and each accepted frame is appended to the one log
// under <Dir> that all sessions share, so a crash or redeploy loses
// nothing: NewManager recovers persisted sessions (newest snapshot +
// replay of the session's log records since) under their original IDs, and the
// recovered report stream is bit-for-bit the stream the uninterrupted
// process would have produced.
type Durability struct {
	// Dir is the state root; empty disables durability entirely (the
	// hot path then carries no persistence work at all).
	Dir string
	// SnapshotEvery is the automatic checkpoint cadence in frames: a
	// session with this many frames logged since its snapshot is
	// snapshotted again, which releases those records. 0 defaults to 256;
	// negative disables automatic checkpoints (Checkpoint still works, and
	// the janitor still checkpoints a session that pins old log).
	SnapshotEvery int
	// CommitWindow paces cross-session group commit
	// (store.Options.CommitWindow): each quantum enlists its stepped job
	// with the store's flusher and move on, and the job is acknowledged by
	// the flusher after a sync of the shared log that covers it — one fsync
	// for every session enlisted. The value is a pace per session (its jobs
	// are completed at most once per window), not a delay and not a
	// store-wide limit: an idle session's job is synced at once. 0 = no
	// pace: flush when the flusher is free.
	CommitWindow time.Duration
}

// StateStepper is the stepper extension durability requires: a session
// can only be persisted if its pipeline state can be exported and
// re-imported. *detect.Detector implements it; Create returns an error
// for a durable manager whose Builder yields a bare Stepper.
type StateStepper interface {
	Stepper
	ExportState() *detect.State
	ImportState(*detect.State) error
}

// Checkpoint forces a snapshot of one live session right now, releasing
// its log records. It runs under the session's step lock: the snapshot captures
// a frame boundary, never a mid-step state, and the session cannot be
// evicted or closed while the serialization is in progress.
func (m *Manager) Checkpoint(id string) (CheckpointInfo, error) {
	if m.store == nil {
		return CheckpointInfo{}, ErrDurabilityDisabled
	}
	s, err := m.lookup(id)
	if err != nil {
		return CheckpointInfo{}, err
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if s.isClosed() || s.ds == nil {
		return CheckpointInfo{}, fmt.Errorf("%w: session %s", ErrClosed, id)
	}
	n, err := m.persistSnapshot(s)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{SessionID: id, FramesApplied: s.ds.Applied(), SnapshotBytes: n}, nil
}

// Restore revives a persisted session — typically one that was idle-
// evicted, whose on-disk state eviction deliberately keeps — under its
// original ID. The detector is rebuilt from the session's profile, the
// newest snapshot imported, and the WAL tail replayed, so the next
// frame continues the report stream exactly where it left off.
func (m *Manager) Restore(id string) (SessionInfo, error) {
	if m.store == nil {
		return SessionInfo{}, ErrDurabilityDisabled
	}
	return m.admit(id, func(id string) (*session, error) {
		s, _, err := m.rebuildSession(id)
		if errors.Is(err, store.ErrNoSnapshot) || errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: no persisted state for %s", ErrSessionNotFound, id)
		}
		return s, err
	})
}

// initDurable makes a freshly built session durable before it becomes
// visible: its store directory is created and an initial snapshot made
// stable, so from the instant Create returns, a crash recovers the
// session. Called from Create with the session not yet shared.
func (m *Manager) initDurable(s *session) error {
	ds, err := m.store.Create(s.info.ID)
	if err != nil {
		return err
	}
	s.ds = ds
	if _, err := m.persistSnapshot(s); err != nil {
		ds.Close()
		m.store.Remove(s.info.ID)
		return err
	}
	return nil
}

// persistSnapshot checkpoints s. The caller holds s.stepMu. It waits on
// nothing but its own file syncs: commits the session still has enlisted
// complete on their own (store.SessionStore.WriteSnapshot).
func (m *Manager) persistSnapshot(s *session) (int, error) {
	ss, ok := s.stepper.(StateStepper)
	if !ok {
		return 0, fmt.Errorf("fleet: session %s stepper %T cannot export state", s.info.ID, s.stepper)
	}
	snap := &store.Snapshot{Robot: s.info.Robot, Sensors: s.info.Sensors, Dt: s.info.Dt, State: ss.ExportState()}
	return s.ds.WriteSnapshot(snap)
}

// logFrame write-ahead-logs one successfully stepped frame. The caller
// holds s.stepMu; the record is written with the rest of its job by
// SessionStore.CommitAsync, and the reply is sent only from that call's
// completion, so a replied frame is on stable storage. An append error is
// surfaced to the client in place of the report: the frame was applied in
// memory but its durability is unknown, and claiming success would break
// the recovery contract.
func (m *Manager) logFrame(s *session, fr BatchFrame, rep *detect.Report) error {
	// The record is encoded into the store's buffer by Append, so one
	// trace.Frame per session serves every frame: its map keeps its
	// capacity across clears and the frame allocates nothing.
	f := &s.walFrame
	if f.Readings == nil {
		f.Readings = make(map[string][]float64, len(fr.Readings))
	}
	f.K, f.U = rep.Decision.Iteration, fr.U
	for name, z := range fr.Readings {
		f.Readings[name] = z
	}
	err := s.ds.Append(f)
	f.U = nil
	clear(f.Readings)
	if err != nil {
		return fmt.Errorf("fleet: persist frame: %w", err)
	}
	return nil
}

// rebuildSession reconstructs one persisted session: newest snapshot,
// detector rebuilt from the recorded profile, state imported, its log
// records since replayed. The returned session is not yet registered. The second
// return is the number of frames replayed.
func (m *Manager) rebuildSession(id string) (*session, int, error) {
	ds, snap, frames, err := m.store.Recover(id)
	if err != nil {
		return nil, 0, err
	}
	s, err := m.buildFromState(id, snap, frames)
	if err != nil {
		ds.Close()
		return nil, 0, err
	}
	s.ds = ds
	return s, len(frames), nil
}

// buildFromState rebuilds a detector session from a decoded snapshot
// plus a frame tail: build from the recorded profile, cross-check
// identity, import the state, replay the tail. Shared by disk recovery
// (rebuildSession) and migration import on a non-durable node. The
// returned session has no SessionStore attached and is not registered.
func (m *Manager) buildFromState(id string, snap *store.Snapshot, frames []*trace.Frame) (*session, error) {
	fail := func(err error) (*session, error) {
		return nil, fmt.Errorf("fleet: restore session %s: %w", id, err)
	}
	spec := Spec{Robot: snap.Robot}
	stepper, info, err := m.cfg.Build(spec)
	if err != nil {
		return fail(err)
	}
	ss, ok := stepper.(StateStepper)
	if !ok {
		stepper.Close()
		return fail(fmt.Errorf("builder returned %T, which cannot import state", stepper))
	}
	if err := validateIdentity(info, snap); err != nil {
		stepper.Close()
		return fail(err)
	}
	if err := ss.ImportState(snap.State); err != nil {
		stepper.Close()
		return fail(err)
	}
	for i, fr := range frames {
		if _, err := stepper.StepContext(context.Background(), mat.Vec(fr.U), frameReadings(fr)); err != nil {
			stepper.Close()
			return fail(fmt.Errorf("replay WAL frame %d/%d: %w", i+1, len(frames), err))
		}
	}
	info.ID = id
	s := &session{info: info, spec: spec, stepper: stepper, frames: make(chan frameJob, m.cfg.QueueDepth)}
	s.applied.Store(int64(snap.FramesApplied + len(frames)))
	s.touch(m.now())
	return s, nil
}

// validateIdentity cross-checks the freshly built detector's wire
// contract against the snapshot's recorded one. A disagreement means
// the binary's profile diverged from the one that wrote the state;
// importing would silently change what the session computes.
func validateIdentity(info SessionInfo, snap *store.Snapshot) error {
	if info.Robot != snap.Robot {
		return fmt.Errorf("profile robot %q, snapshot %q", info.Robot, snap.Robot)
	}
	if info.Dt != snap.Dt {
		return fmt.Errorf("profile dt %v, snapshot %v", info.Dt, snap.Dt)
	}
	if len(info.Sensors) != len(snap.Sensors) {
		return fmt.Errorf("profile has %d sensors, snapshot %d", len(info.Sensors), len(snap.Sensors))
	}
	for i := range info.Sensors {
		if info.Sensors[i] != snap.Sensors[i] {
			return fmt.Errorf("sensor %d is %q, snapshot %q", i, info.Sensors[i], snap.Sensors[i])
		}
	}
	return nil
}

// recoverSessions loads every persisted session at startup. A directory
// without a valid snapshot is the artifact of a crash mid-Create — the
// session was never durable — and is silently removed. Any other
// failure aborts the manager: durable state that exists but cannot be
// restored is an operator problem, not something to drop silently.
// Called from NewManager before the shard workers start.
func (m *Manager) recoverSessions() error {
	ids, err := m.store.Sessions()
	if err != nil {
		return err
	}
	var recovered []*session
	abort := func(err error) error {
		for _, s := range recovered {
			s.ds.Close()
			s.stepper.Close()
			delete(m.sessions, s.info.ID)
		}
		return err
	}
	replayed := 0
	for _, id := range ids {
		s, n, err := m.rebuildSession(id)
		if errors.Is(err, store.ErrNoSnapshot) {
			m.store.Remove(id)
			continue
		}
		if err != nil {
			return abort(err)
		}
		m.sessions[id] = s
		recovered = append(recovered, s)
		replayed += n
		if num, ok := sessionNum(id); ok && num > m.nextID {
			m.nextID = num
		}
	}
	m.store.SetRecovered(len(recovered))
	m.store.CountReplayed(replayed)
	m.mLive.Set(float64(len(recovered)))
	return nil
}

// sessionNum parses the numeric suffix of a manager-assigned session ID
// so recovery can continue the ID sequence without collisions.
func sessionNum(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
