package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Metric names registered by a Store (nil-safe: a private registry is
// used when Options.Metrics is nil).
const (
	// MetricSnapshotBytes is the encoded-snapshot size histogram.
	MetricSnapshotBytes = "roboads_store_snapshot_bytes"
	// MetricSnapshotSeconds is the snapshot write latency histogram
	// (export + encode + durable write + compaction).
	MetricSnapshotSeconds = "roboads_store_snapshot_seconds"
	// MetricWALAppends counts WAL records appended.
	MetricWALAppends = "roboads_store_wal_appends_total"
	// MetricWALFsyncs counts WAL fsync calls.
	MetricWALFsyncs = "roboads_store_wal_fsync_total"
	// MetricRecoveredSessions gauges the sessions restored from disk by
	// the most recent startup recovery.
	MetricRecoveredSessions = "roboads_store_recovered_sessions"
	// MetricRecoveredFrames counts WAL frames replayed during recovery.
	MetricRecoveredFrames = "roboads_store_recovered_frames_total"
	// MetricWALOversize counts WAL records recovered intact despite
	// exceeding the legacy recovery scanner's 4MiB line cap — frames
	// older versions would have silently discarded as a torn tail.
	MetricWALOversize = "roboads_store_wal_oversize_total"
	// MetricCommitBatchFrames is the group-commit batch size histogram:
	// WAL appends amortized by each group fsync.
	MetricCommitBatchFrames = "roboads_store_commit_batch_frames"
	// MetricCommitSeconds is the group-commit latency histogram: time
	// from a batch opening to its fsync completing — the durability
	// delay a committed frame's reply waited out.
	MetricCommitSeconds = "roboads_store_commit_seconds"
	// MetricCommitBatchSessions is the files-per-flush histogram: distinct
	// WAL segments one group flush synced.
	MetricCommitBatchSessions = "roboads_store_commit_batch_sessions"
	// MetricCommitEnlistedWait is the per-enlistment wait histogram: time
	// from one CommitAsync enlisting to the sync that covers it finishing.
	MetricCommitEnlistedWait = "roboads_store_commit_enlisted_wait_seconds"
)

// ErrNoSnapshot reports a session directory holding no decodable
// snapshot — either a session that crashed before its first checkpoint
// became durable, or a directory this store does not own.
var ErrNoSnapshot = errors.New("store: no valid snapshot")

// Options parameterizes a Store. The zero value of every field has a
// usable default.
type Options struct {
	// FsyncEvery is the WAL durability knob: 1 (and 0, the default)
	// fsyncs every appended frame — a frame acknowledged to the client
	// is on stable storage; n > 1 batches n appends per fsync, trading
	// the tail of a crash for throughput; negative never fsyncs and
	// leaves durability to the OS page cache (benchmarks, tests).
	FsyncEvery int
	// CommitWindow, when positive, enables cross-session group commit:
	// appends skip their inline fsync and SessionStore.CommitAsync (or
	// its blocking form, Commit) enlists them in a fleet-wide batch whose
	// one flush syncs every dirty session. The value is the flusher's
	// pace, not a delay every commit sleeps out: it syncs at most four
	// files per window and any one session's file once per window, so an
	// idle store syncs a lone commit at once and a busy one serves a
	// steady rate, whatever the device does that minute. Reply-after-fsync semantics are preserved as long as
	// callers reply only from the completion. A positive CommitWindow
	// supersedes FsyncEvery.
	CommitWindow time.Duration
	// Metrics receives the store histograms and counters; nil uses a
	// private registry.
	Metrics *telemetry.Registry
}

// Store is the on-disk root of the durability layer: one subdirectory
// per session, each holding a snapshot and its WAL segment. Store
// methods are safe for concurrent use across sessions; a single
// SessionStore is serialized by its owning session.
type Store struct {
	dir  string
	opts Options

	// committer is the group-commit coordinator; nil unless
	// Options.CommitWindow is positive.
	committer *committer
	// fsync is the one seam every WAL sync goes through — inline,
	// forced, and the group flush — so tests can inject device errors
	// and delays. Always (*os.File).Sync outside tests.
	fsync func(*os.File) error

	mSnapBytes     *telemetry.Histogram
	mSnapSeconds   *telemetry.Histogram
	mAppends       *telemetry.Counter
	mFsyncs        *telemetry.Counter
	mRecovered     *telemetry.Gauge
	mReplayed      *telemetry.Counter
	mOversize      *telemetry.Counter
	mCommitFrames  *telemetry.Histogram
	mCommitSeconds *telemetry.Histogram
	// Group-flush shape: files per flush and per-enlistment wait.
	mCommitSessions *telemetry.Histogram
	mEnlistedWait   *telemetry.Histogram
}

// Open prepares dir as a durability root, creating it if needed.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if opts.FsyncEvery == 0 {
		opts.FsyncEvery = 1
	}
	if opts.CommitWindow > 0 {
		// Group commit owns durability: appends never fsync inline, the
		// committer's window flush covers every dirty session at once.
		opts.FsyncEvery = -1
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	st := &Store{
		dir:            dir,
		opts:           opts,
		fsync:          (*os.File).Sync,
		mSnapBytes:     reg.Histogram(MetricSnapshotBytes, "Encoded snapshot size in bytes.", byteBuckets()),
		mSnapSeconds:   reg.Histogram(MetricSnapshotSeconds, "Snapshot write latency in seconds.", telemetry.LatencyBuckets()),
		mAppends:       reg.Counter(MetricWALAppends, "WAL records appended."),
		mFsyncs:        reg.Counter(MetricWALFsyncs, "WAL fsync calls."),
		mRecovered:     reg.Gauge(MetricRecoveredSessions, "Sessions restored by the last startup recovery."),
		mReplayed:      reg.Counter(MetricRecoveredFrames, "WAL frames replayed during recovery."),
		mOversize:      reg.Counter(MetricWALOversize, "WAL records recovered despite exceeding the legacy 4MiB line cap."),
		mCommitFrames:  reg.Histogram(MetricCommitBatchFrames, "WAL appends amortized per group-commit fsync.", batchBuckets()),
		mCommitSeconds: reg.Histogram(MetricCommitSeconds, "Group-commit latency in seconds.", telemetry.LatencyBuckets()),

		mCommitSessions: reg.Histogram(MetricCommitBatchSessions, "WAL files synced per group-commit flush.", batchBuckets()),
		mEnlistedWait:   reg.Histogram(MetricCommitEnlistedWait, "Wait from enlisting a commit to its covering sync, in seconds.", telemetry.LatencyBuckets()),
	}
	if opts.CommitWindow > 0 {
		st.committer = newCommitter(st, opts.CommitWindow)
	}
	return st, nil
}

// Dir returns the store root.
func (st *Store) Dir() string { return st.dir }

// SetFsyncForTest replaces the store's sync seam so a test outside
// this package can inject device errors and delays. Call it before any
// traffic.
func (st *Store) SetFsyncForTest(fsync func(*os.File) error) { st.fsync = fsync }

// SetRecovered publishes the recovery gauge; the fleet manager calls it
// once startup recovery completes.
func (st *Store) SetRecovered(sessions int) { st.mRecovered.Set(float64(sessions)) }

// CountReplayed adds to the recovery frame-replay counter.
func (st *Store) CountReplayed(frames int) { st.mReplayed.Add(int64(frames)) }

// Sessions lists the session IDs with a directory under the root,
// sorted lexically. Presence does not imply recoverability — Recover
// reports ErrNoSnapshot for directories without a durable checkpoint.
func (st *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list sessions: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes a session's persisted state entirely (explicit session
// deletion — eviction keeps state so the session can be restored).
func (st *Store) Remove(id string) error {
	dir, err := st.sessionDir(id)
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// Create opens the durability state for a brand-new session. The
// session is not durable until its first WriteSnapshot succeeds:
// recovery treats a directory without a valid snapshot as a session
// whose creation never completed.
func (st *Store) Create(id string) (*SessionStore, error) {
	dir, err := st.sessionDir(id)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create session %s: %w", id, err)
	}
	return &SessionStore{st: st, id: id, dir: dir}, nil
}

// Recover loads a persisted session: the newest decodable snapshot plus
// the valid prefix of its WAL segment. A torn or corrupt WAL tail — the
// normal artifact of a crash mid-append — is physically truncated so
// subsequent appends extend the valid prefix. The returned SessionStore
// continues the recovered WAL segment.
func (st *Store) Recover(id string) (*SessionStore, *Snapshot, []*trace.Frame, error) {
	dir, err := st.sessionDir(id)
	if err != nil {
		return nil, nil, nil, err
	}
	snap, snapIdx, err := st.loadNewestSnapshot(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	walPath := filepath.Join(dir, walName(snapIdx))
	frames, validBytes, oversize, err := recoverWALFile(walPath, snap.FramesApplied+1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: recover session %s: %w", id, err)
	}
	st.mOversize.Add(int64(oversize))
	if validBytes >= 0 {
		if err := os.Truncate(walPath, validBytes); err != nil {
			return nil, nil, nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
	}
	applied := snap.FramesApplied + len(frames)
	w, err := st.openWAL(walPath, os.O_APPEND, applied, st.opts.FsyncEvery)
	if err != nil {
		return nil, nil, nil, err
	}
	s := &SessionStore{st: st, id: id, dir: dir, wal: w, base: snap.FramesApplied, applied: applied}
	return s, snap, frames, nil
}

// loadNewestSnapshot decodes the highest-indexed valid snapshot in dir,
// falling back to older ones when the newest is corrupt (a crash can
// tear at most the file being written, which the atomic rename already
// excludes, but defense in depth costs one readdir).
func (st *Store) loadNewestSnapshot(dir string) (*Snapshot, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: read session dir: %w", err)
	}
	var indices []int
	for _, e := range entries {
		if k, ok := snapshotIndex(e.Name()); ok {
			indices = append(indices, k)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(indices)))
	var lastErr error = ErrNoSnapshot
	for _, k := range indices {
		data, err := os.ReadFile(filepath.Join(dir, snapshotName(k)))
		if err != nil {
			lastErr = err
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
		return snap, k, nil
	}
	return nil, 0, fmt.Errorf("store: %s: %w", dir, lastErr)
}

func (st *Store) sessionDir(id string) (string, error) {
	if id == "" || id != filepath.Base(id) || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("store: invalid session id %q", id)
	}
	return filepath.Join(st.dir, id), nil
}

// recoverWALFile reads the valid record prefix of the segment at path,
// accepting JSON, binary, and mixed segments. validBytes is the byte
// length of that prefix when a torn tail must be truncated away, or -1
// when the file is already clean (including when it does not exist
// yet). oversize counts recovered records over the legacy scanner cap.
func recoverWALFile(path string, firstSeq int) (frames []*trace.Frame, validBytes int64, oversize int, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, -1, 0, nil
	}
	if err != nil {
		return nil, -1, 0, err
	}
	frames, valid, oversize := decodeWALStream(data, firstSeq)
	if valid == len(data) {
		return frames, -1, oversize, nil
	}
	return frames, int64(valid), oversize, nil
}

// SessionStore is one session's durability state: the current WAL
// segment plus snapshot rotation. Methods are not safe for concurrent
// use — the fleet session serializes them behind its step lock.
type SessionStore struct {
	st      *Store
	id      string
	dir     string
	wal     *walWriter
	base    int // FramesApplied of the current snapshot
	applied int // absolute index of the last appended frame
	// enlisted counts CommitAsync enlistments not yet synced and
	// completed; guarded by the committer's mutex, not by the owner.
	enlisted int
	// syncDue is the earliest time the flusher syncs this session's WAL
	// again (one sync per commit window); the flusher's own.
	syncDue time.Time
}

// Applied returns the absolute index of the last durable-or-appended
// frame (snapshot base plus WAL records).
func (s *SessionStore) Applied() int { return s.applied }

// SinceSnapshot returns the number of frames appended since the current
// snapshot — the WAL length recovery would have to replay. Callers use
// it to pace automatic checkpoints.
func (s *SessionStore) SinceSnapshot() int { return s.applied - s.base }

// Append logs one accepted frame, fsyncing per the store policy. It
// must follow a successful WriteSnapshot (the segment is created by
// snapshot rotation).
func (s *SessionStore) Append(frame *trace.Frame) error {
	if s.wal == nil {
		return errors.New("store: session has no WAL segment (write a snapshot first)")
	}
	seq, synced, err := s.wal.append(frame)
	if err != nil {
		return err
	}
	s.applied = seq
	s.st.mAppends.Inc()
	if synced {
		s.st.mFsyncs.Inc()
	}
	return nil
}

// LastSyncNanos returns the wall time of the inline fsync carried by
// the most recent Append, or 0 when that append synced nothing (fsync
// batching, group commit, or durability off). Frame tracing uses it to
// split fsync cost out of the WAL-append stage; like every SessionStore
// method it is serialized by the owning session's step lock.
func (s *SessionStore) LastSyncNanos() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.syncNanos
}

// WriteSnapshot persists a checkpoint of the session at its current
// applied-frame count and rotates the WAL: the snapshot is written to a
// temporary file, fsynced, atomically renamed to snapshot-<k>, the
// directory entry fsynced, a fresh wal-<k>.ndjson started, and only
// then are older snapshot/WAL pairs removed — so every instant of the
// sequence leaves at least one recoverable (snapshot, WAL) pair on
// disk. snap.FramesApplied is set by the store; the caller fills the
// identity and state fields. Returns the encoded snapshot size.
func (s *SessionStore) WriteSnapshot(snap *Snapshot) (int, error) {
	start := time.Now()
	snap.SessionID = s.id
	snap.FramesApplied = s.applied
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return 0, err
	}
	k := s.applied
	tmp, err := os.CreateTemp(s.dir, ".snapshot-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, snapshotName(k))); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("store: publish snapshot: %w", err)
	}
	syncDir(s.dir)

	// Rotate: further appends land in the segment paired with this
	// snapshot. Recreate (truncate) rather than append — two snapshots
	// at the same k (e.g. checkpoint with no frames in between) restart
	// the same segment, and its records are re-derived from the newer
	// snapshot anyway.
	if s.wal != nil {
		// The flusher may still hold this handle for an enlisted commit.
		s.drain()
		s.wal.close()
	}
	w, err := s.st.openWAL(filepath.Join(s.dir, walName(k)), os.O_TRUNC, k, s.st.opts.FsyncEvery)
	if err != nil {
		return 0, err
	}
	s.wal = w
	s.base = k
	s.compact(k)

	s.st.mSnapBytes.Observe(float64(len(data)))
	s.st.mSnapSeconds.Observe(time.Since(start).Seconds())
	return len(data), nil
}

// compact removes snapshot/WAL files of generations other than keep.
func (s *SessionStore) compact(keep int) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return // compaction is advisory; recovery tolerates leftovers
	}
	for _, e := range entries {
		name := e.Name()
		if k, ok := snapshotIndex(name); ok && k != keep {
			os.Remove(filepath.Join(s.dir, name))
		}
		if k, ok := walIndex(name); ok && k != keep {
			os.Remove(filepath.Join(s.dir, name))
		}
		if strings.HasPrefix(name, ".snapshot-") && strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// CommitAsync makes every frame appended so far durable under the
// store's commit policy and then calls done — exactly once, with the
// sync's error if it failed — without blocking the caller. With group
// commit enabled (Options.CommitWindow > 0) it enlists done with the
// store's flusher, which calls it after the one flush whose sync covers
// this session's segment; completions of one session run in CommitAsync
// order, so the caller preserves replied ⇒ durable and per-session reply
// order by replying only from done. Without group commit appends already
// synced inline per FsyncEvery and done runs before CommitAsync returns.
// frames is the number of appends this commit covers (batch-size
// histogram); a commit covering none is enlisted like any other, so it
// still completes behind the session's earlier ones.
//
// Invariant (shared with the committer's flush): Append, CommitAsync,
// WriteSnapshot and Close are serialized by the owning session's step
// lock, and the caller may go on appending while an enlistment is
// outstanding. The flusher touches nothing of the session but the
// *os.File captured at enlist time, and only to Sync it — safe beside a
// concurrent Write, and a Sync that runs late merely covers more.
// Whatever retires that handle (WriteSnapshot's rotation, Close) first
// waits until every outstanding enlistment has been synced and
// completed, so a captured handle is never closed, and a segment never
// rotated away, under the flusher. done therefore must not wait on
// anything the session's owner holds while calling those two.
func (s *SessionStore) CommitAsync(frames int, done func(error)) {
	c := s.st.committer
	if c == nil || s.wal == nil {
		done(nil)
		return
	}
	c.enlist(s, frames, done)
}

// Commit is CommitAsync plus the wait: it returns once every frame
// appended so far is durable under the store's commit policy.
func (s *SessionStore) Commit(frames int) error {
	if s.st.committer == nil || s.wal == nil || frames <= 0 {
		return nil
	}
	errc := make(chan error, 1)
	s.CommitAsync(frames, func(err error) { errc <- err })
	return <-errc
}

// drain waits until the flusher has synced and completed every
// outstanding enlistment of this session, after which it holds none of
// its file handles.
func (s *SessionStore) drain() {
	if s.st.committer != nil {
		s.st.committer.drain(s)
	}
}

// Sync forces the WAL to stable storage regardless of policy.
func (s *SessionStore) Sync() error {
	if s.wal == nil {
		return nil
	}
	s.st.mFsyncs.Inc()
	return s.wal.sync()
}

// Close releases the WAL file handle once outstanding enlistments have
// been synced. It does not itself sync: callers that need durability
// checkpoint or Sync first.
func (s *SessionStore) Close() error {
	if s.wal == nil {
		return nil
	}
	s.drain()
	err := s.wal.close()
	s.wal = nil
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func snapshotName(k int) string { return "snapshot-" + strconv.Itoa(k) }
func walName(k int) string      { return "wal-" + strconv.Itoa(k) + ".ndjson" }

func snapshotIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "snapshot-")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}

func walIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".ndjson")
	if !ok {
		return 0, false
	}
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}

// byteBuckets spans 256 B .. 16 MiB exponentially for the snapshot
// size histogram.
func byteBuckets() []float64 {
	out := make([]float64, 0, 17)
	for b := 256.0; b <= 16*1024*1024; b *= 2 {
		out = append(out, b)
	}
	return out
}

// batchBuckets spans 1 .. 4096 frames exponentially for the
// group-commit batch size histogram.
func batchBuckets() []float64 {
	out := make([]float64, 0, 13)
	for b := 1.0; b <= 4096; b *= 2 {
		out = append(out, b)
	}
	return out
}
