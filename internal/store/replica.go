package store

import (
	"fmt"
	"os"
	"path/filepath"

	"roboads/internal/trace"
)

// Replication and migration support: reading a session's durable state
// for shipping (ReplicaRead) and writing shipped state back to disk as
// if it had always lived here (Materialize), so a materialized session
// recovers through the ordinary Recover path bit-for-bit.

// ReplicaBatch is what a cursor-positioned reader needs to catch up on
// one session.
type ReplicaBatch struct {
	// Snapshot is the raw snapshot envelope to install first; nil when
	// the reader's cursor lies within the current snapshot generation and
	// the frames alone suffice. Base is its FramesApplied.
	Snapshot []byte
	Base     int
	// Frames are the logged frames to apply after the snapshot (or the
	// cursor), in order; frame i has sequence number FirstSeq+i.
	Frames   []*trace.Frame
	FirstSeq int
}

// ReplicaRead reads what a reader whose durable state ends at cursor
// (its FramesApplied; negative for "nothing") needs to catch up on the
// session: nothing but newer frames when the cursor lies inside the
// current snapshot generation, or the full snapshot plus its frames when
// the cursor is behind the snapshot, ahead of the logged tail (diverged),
// or empty.
//
// It reads through the session's index — the positions of exactly the
// records asked for — so a poll that finds nothing new touches no file,
// and holds the store mutex only to copy them. A checkpoint in between
// can take the snapshot file or a log segment away; that surfaces as an
// error, and the next round sees the new generation.
func (st *Store) ReplicaRead(id string, cursor int) (*ReplicaBatch, error) {
	dir, err := st.sessionDir(id)
	if err != nil {
		return nil, err
	}
	e, base, _, recs := st.tail(id)
	if e == nil {
		return nil, fmt.Errorf("store: replica read %s: %w", id, ErrNoSnapshot)
	}
	batch := &ReplicaBatch{FirstSeq: cursor + 1}
	if cursor < base || cursor > base+len(recs) {
		if batch.Snapshot, err = os.ReadFile(filepath.Join(dir, snapshotName(base))); err != nil {
			return nil, fmt.Errorf("store: replica read %s: %w", id, err)
		}
		batch.Base, batch.FirstSeq, cursor = base, base+1, base
	}
	batch.Frames, err = st.readRecords(id, cursor+1, recs[cursor-base:])
	return batch, err
}

// Materialize installs a shipped session state: whatever the store held
// under id is dropped, the frame tail is appended to the log as records
// k+1, … and synced, and then the snapshot — stamped with the position of
// those records in THIS store's log — is published as snapshot-<k>. The
// ordinary Recover path then rebuilds the session bit-for-bit identical
// to the source. The session must not be live locally.
func (st *Store) Materialize(id string, snapshot []byte, frames []*trace.Frame) error {
	fail := func(err error) error { return fmt.Errorf("store: materialize %s: %w", id, err) }
	snap, err := DecodeSnapshot(snapshot)
	if err != nil {
		return fail(err)
	}
	if snap.SessionID != id {
		return fmt.Errorf("store: materialize %s: snapshot names session %q", id, snap.SessionID)
	}
	dir, err := st.sessionDir(id)
	if err != nil {
		return err
	}
	// Replace, never merge: stale local state (a session bouncing back, a
	// diverged follower) must stop counting — its snapshot durably gone —
	// before records of the same ID land in the log, or a crash in between
	// could splice the two histories.
	if err := st.Remove(id); err != nil {
		return fail(err)
	}
	syncDir(st.dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	k := snap.FramesApplied
	var buf []byte
	for i, fr := range frames {
		if buf, err = appendRecord(buf, id, k+1+i, fr); err != nil {
			return fail(err)
		}
	}
	var e sessionLog
	end, err := st.appendLog(buf, &e)
	if err == nil {
		// Materialize is off the hot path; durability before return is the
		// whole point.
		_, err = st.syncLog(end)
	}
	if err != nil {
		return fail(err)
	}
	snap.LogLSN = end - int64(len(buf))
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return fail(err)
	}
	if err := writeSnapshotFile(dir, k, data); err != nil {
		return fail(err)
	}
	syncDir(st.dir)
	st.setSnapshot(id, k, snap.LogLSN, e.recs)
	return nil
}
