package store

import (
	"fmt"
	"os"
	"path/filepath"

	"roboads/internal/trace"
)

// Replication and migration support: reading a session's durable state
// for shipping (ReplicaRead) and writing shipped state back to disk as
// if it had always lived here (Materialize). Both speak the existing
// snapshot/WAL file formats, so a materialized session recovers through
// the ordinary Recover path bit-for-bit.

// ReplicaBatch is what a cursor-positioned reader needs to catch up on
// one session.
type ReplicaBatch struct {
	// Snapshot is the raw snapshot envelope to install first; nil when
	// the reader's cursor already extends the current segment and the
	// frames alone suffice.
	Snapshot []byte
	// Base is the snapshot's FramesApplied (meaningful when Snapshot is
	// non-nil).
	Base int
	// Frames are the WAL frames to apply after the snapshot (or after
	// the cursor), in order.
	Frames []*trace.Frame
	// FirstSeq is the absolute sequence number of Frames[0]; frame i
	// has sequence FirstSeq+i.
	FirstSeq int
}

// ReplicaRead reads what a reader whose durable state ends at cursor
// (its FramesApplied; negative for "nothing") needs to catch up on the
// session: nothing but newer WAL frames when the cursor lies inside the
// current snapshot generation, or the full snapshot plus its WAL when
// the cursor is behind the snapshot, ahead of the durable tail
// (diverged), or empty.
//
// The read is lock-free against the writer: the snapshot is immutable
// once renamed into place, and the WAL file only grows within a
// generation, so a concurrent append can at worst leave a torn final
// record, which the sequential decoder already treats as end-of-stream.
// A rotation between the snapshot read and the WAL read yields a
// shorter (or missing) WAL view for the old generation — also safe, the
// next round catches up on the new one.
func (st *Store) ReplicaRead(id string, cursor int) (*ReplicaBatch, error) {
	dir, err := st.sessionDir(id)
	if err != nil {
		return nil, err
	}
	raw, snap, k, err := st.loadNewestSnapshotRaw(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, walName(k)))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: replica read %s: %w", id, err)
	}
	frames, _, _ := decodeWALStream(data, snap.FramesApplied+1)
	if cursor >= k && cursor <= k+len(frames) {
		return &ReplicaBatch{Frames: frames[cursor-k:], FirstSeq: cursor + 1}, nil
	}
	return &ReplicaBatch{Snapshot: raw, Base: k, Frames: frames, FirstSeq: k + 1}, nil
}

// loadNewestSnapshotRaw is loadNewestSnapshot returning the raw envelope
// bytes too, for shipping without a re-encode (the CRC travels with it).
func (st *Store) loadNewestSnapshotRaw(dir string) ([]byte, *Snapshot, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: read session dir: %w", err)
	}
	var lastErr error = ErrNoSnapshot
	best := -1
	for _, e := range entries {
		if k, ok := snapshotIndex(e.Name()); ok && k > best {
			best = k
		}
	}
	for k := best; k >= 0; k-- {
		data, err := os.ReadFile(filepath.Join(dir, snapshotName(k)))
		if err != nil {
			if !os.IsNotExist(err) {
				lastErr = err
			}
			continue
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			lastErr = err
			continue
		}
		if snap.FramesApplied != k {
			lastErr = fmt.Errorf("%w: snapshot-%d declares %d frames", ErrSnapshotCorrupt, k, snap.FramesApplied)
			continue
		}
		return data, snap, k, nil
	}
	return nil, nil, 0, fmt.Errorf("store: %s: %w", dir, lastErr)
}

// Materialize installs a shipped session state on disk: the snapshot
// envelope is validated and written as snapshot-<k>, the frame tail as
// binary WAL records continuing at k+1, everything fsynced — replacing
// whatever the directory previously held. Afterwards the ordinary
// Recover path rebuilds the session bit-for-bit identical to the
// source. The session must not be live locally.
func (st *Store) Materialize(id string, snapshot []byte, frames []*trace.Frame) error {
	snap, err := DecodeSnapshot(snapshot)
	if err != nil {
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	if snap.SessionID != id {
		return fmt.Errorf("store: materialize %s: snapshot names session %q", id, snap.SessionID)
	}
	dir, err := st.sessionDir(id)
	if err != nil {
		return err
	}
	// Replace, never merge: stale local state (an old copy of a session
	// bouncing back, a diverged follower) must not survive alongside the
	// authoritative shipped state.
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	k := snap.FramesApplied
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(snapshot); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotName(k))); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	// The WAL tail, one binary record per frame, then a single fsync:
	// Materialize is off the hot path, durability before return is the
	// whole point.
	w, err := st.openWAL(filepath.Join(dir, walName(k)), os.O_TRUNC, k, -1)
	if err != nil {
		return err
	}
	for _, fr := range frames {
		if _, _, err := w.append(fr); err != nil {
			w.close()
			return fmt.Errorf("store: materialize %s: %w", id, err)
		}
	}
	if err := w.sync(); err != nil {
		w.close()
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	if err := w.close(); err != nil {
		return fmt.Errorf("store: materialize %s: %w", id, err)
	}
	syncDir(dir)
	syncDir(st.dir)
	return nil
}
