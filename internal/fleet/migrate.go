package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/store"
	"roboads/internal/trace"
)

// Live session migration: Migrate drains one session, exports its exact
// durable state (the raw on-disk snapshot plus the WAL tail, so the
// target recovers it bit-for-bit through the ordinary recovery path),
// ships it to the target node's import endpoint, and leaves a tombstone
// redirect behind. ImportSession is the receiving side.

// Migrate moves a live session to the node at target (a base URL). The
// session stops accepting frames (ErrMigrating) while it drains; on
// success it is gone from this node and lookups answer ErrMoved with the
// target until this process restarts. On any failure before cutover the
// session resumes serving locally, unharmed.
func (m *Manager) Migrate(ctx context.Context, id, target string) (api.MigrateResponse, error) {
	none := api.MigrateResponse{}
	s, err := m.lookup(id)
	if err != nil {
		return none, err
	}
	if !s.migrating.CompareAndSwap(false, true) {
		return none, fmt.Errorf("%w: session %s", ErrMigrating, id)
	}
	abort := func(err error) (api.MigrateResponse, error) {
		s.migrating.Store(false)
		return none, err
	}

	// Drain: new pushes are already rejected; wait until every accepted
	// job has been answered — which, for a durable session, is after the
	// sync covering it, so the export below reads only settled state.
	for {
		if s.isClosed() {
			return abort(fmt.Errorf("%w: session %s", ErrClosed, id))
		}
		if s.outstanding.Load() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return abort(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}

	// stepMu held from export through ship: nothing can advance the
	// session state behind the copy (Checkpoint, eviction, and close all
	// take it too).
	s.stepMu.Lock()
	if s.isClosed() {
		s.stepMu.Unlock()
		return abort(fmt.Errorf("%w: session %s", ErrClosed, id))
	}
	snapshot, frames, applied, err := m.exportSession(s)
	if err != nil {
		s.stepMu.Unlock()
		return abort(fmt.Errorf("fleet: export session %s: %w", id, err))
	}
	if _, err := client.New(target).Import(ctx, snapshot, frames); err != nil {
		s.stepMu.Unlock()
		return abort(fmt.Errorf("fleet: import on %s: %w", target, err))
	}
	s.stepMu.Unlock()

	// Cutover: the target owns the session now. Local state is torn down
	// without a final persist (the authoritative copy just shipped) and
	// removed from disk; the tombstone redirects stragglers.
	m.retire(s, diskRemove, target)
	return api.MigrateResponse{SessionID: id, Target: target, FramesApplied: applied}, nil
}

// exportSession captures a drained session's complete state. Durable
// sessions export their raw on-disk snapshot and actual WAL tail — the
// bytes the target materializes verbatim, so its recovery is bit-for-bit
// this node's. Non-durable sessions export a fresh snapshot of the live
// detector state. The caller holds s.stepMu.
func (m *Manager) exportSession(s *session) (snapshot []byte, frames []*trace.Frame, applied int, err error) {
	id := s.info.ID
	if s.ds != nil {
		batch, err := m.store.ReplicaRead(id, -1)
		if err != nil {
			return nil, nil, 0, err
		}
		return batch.Snapshot, batch.Frames, s.ds.Applied(), nil
	}
	ss, ok := s.stepper.(StateStepper)
	if !ok {
		return nil, nil, 0, fmt.Errorf("stepper %T cannot export state", s.stepper)
	}
	snap := &store.Snapshot{
		SessionID:     id,
		Robot:         s.info.Robot,
		Sensors:       s.info.Sensors,
		Dt:            s.info.Dt,
		FramesApplied: int(s.applied.Load()),
		State:         ss.ExportState(),
	}
	raw, err := store.EncodeSnapshot(snap)
	if err != nil {
		return nil, nil, 0, err
	}
	return raw, nil, snap.FramesApplied, nil
}

// ImportSession installs a shipped session under its recorded ID. On a
// durable node the snapshot and frames are materialized on disk first
// and the session rebuilt through the ordinary recovery path, so the
// import is durable (and bit-for-bit) before it returns; a non-durable
// node rebuilds the detector in memory. A live ID collides with
// ErrSessionLive.
func (m *Manager) ImportSession(snapshot []byte, frames []*trace.Frame) (SessionInfo, error) {
	snap, err := store.DecodeSnapshot(snapshot)
	if err == nil && snap.SessionID == "" {
		err = errors.New("snapshot names no session")
	}
	if err != nil {
		return SessionInfo{}, fmt.Errorf("fleet: import: %w", err)
	}
	return m.admit(snap.SessionID, func(id string) (*session, error) {
		if m.store == nil {
			return m.buildFromState(id, snap, frames)
		}
		var s *session
		err := m.store.Materialize(id, snapshot, frames)
		if err == nil {
			if s, _, err = m.rebuildSession(id); err != nil {
				m.store.Remove(id)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: import session %s: %w", id, err)
		}
		return s, nil
	})
}
