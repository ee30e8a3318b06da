package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Metric names registered by a Store (nil-safe: a private registry is
// used when Options.Metrics is nil).
const (
	// MetricSnapshotBytes is the encoded-snapshot size histogram.
	MetricSnapshotBytes = "roboads_store_snapshot_bytes"
	// MetricSnapshotSeconds is the snapshot write latency histogram.
	MetricSnapshotSeconds = "roboads_store_snapshot_seconds"
	// MetricWALAppends counts log records appended.
	MetricWALAppends = "roboads_store_wal_appends_total"
	// MetricWALFsyncs counts fsync calls on the log.
	MetricWALFsyncs = "roboads_store_wal_fsync_total"
	// MetricRecoveredSessions gauges the sessions the last startup restored.
	MetricRecoveredSessions = "roboads_store_recovered_sessions"
	// MetricRecoveredFrames counts log frames replayed during recovery.
	MetricRecoveredFrames = "roboads_store_recovered_frames_total"
	// MetricLogCorrupt counts opens that found a bad record in a segment
	// other than the last: not a torn write. The log ends there regardless.
	MetricLogCorrupt = "roboads_store_log_corrupt_total"
	// MetricCommitBatchFrames is the appends-per-group-flush histogram.
	MetricCommitBatchFrames = "roboads_store_commit_batch_frames"
	// MetricCommitSeconds is the group-commit latency histogram: time
	// from a flush's oldest commit enlisting to its sync completing.
	MetricCommitSeconds = "roboads_store_commit_seconds"
	// MetricCommitBatchSessions is the sessions-per-group-flush histogram.
	MetricCommitBatchSessions = "roboads_store_commit_batch_sessions"
	// MetricCommitEnlistedWait is the histogram of the time from one
	// CommitAsync enlisting to the sync that covers it finishing.
	MetricCommitEnlistedWait = "roboads_store_commit_enlisted_wait_seconds"
)

// ErrNoSnapshot reports a session directory holding no decodable
// snapshot — either a session that crashed before its first checkpoint
// became durable, or a directory this store does not own.
var ErrNoSnapshot = errors.New("store: no valid snapshot")

// Options parameterizes a Store. The zero value of every field has a
// usable default.
type Options struct {
	// CommitWindow paces group commit, the one way appended frames become
	// durable: SessionStore.CommitAsync (or its blocking form, Commit)
	// enlists them with the store's flusher, whose one fsync of the shared
	// log covers every session enlisted. The value is a pace per session,
	// not a delay and not a store-wide limit: one session's commits are
	// completed at most once per window, so an idle session is synced at
	// once and one streaming without pause gets a steady rate; the store
	// only keeps two flush starts a quarter window apart (committer.go).
	// 0 = no pace: flush when the flusher is free.
	CommitWindow time.Duration
	// Metrics receives the store histograms and counters; nil uses a
	// private registry.
	Metrics *telemetry.Registry
}

// Store is the on-disk root of the durability layer: the shared log plus
// one subdirectory of snapshots per session. Its methods are safe for
// concurrent use; a SessionStore is serialized by its owning session. One
// Store at a time may have a directory open.
type Store struct {
	dir string

	// committer is the group-commit coordinator.
	committer *committer
	// fsync is the one seam every sync of the log goes through, so tests
	// can inject device errors and delays; (*os.File).Sync outside tests.
	fsync func(*os.File) error
	// segmentSize is the const of that name, lowered by tests.
	segmentSize int64
	// failure holds the sticky ErrLogFailed once a log write or sync failed.
	failure atomic.Pointer[error]

	// syncMu serializes syncs of the log and segment rotation — at most one
	// sync is in flight — and guards synced. Taken before mu.
	syncMu sync.Mutex
	synced int64 // the log is durable below this LSN
	// mu guards the append cursor, the segment list and the session index.
	mu       sync.Mutex
	segs     []segment // ascending; the last is the head, the only one appended to
	cursor   int64     // LSN of the next byte appended
	sessions map[string]*sessionLog

	mSnapBytes, mSnapSeconds                                      *telemetry.Histogram
	mCommitFrames, mCommitSeconds, mCommitSessions, mEnlistedWait *telemetry.Histogram
	mAppends, mFsyncs, mReplayed, mCorrupt                        *telemetry.Counter
	mRecovered                                                    *telemetry.Gauge
}

// Open prepares dir as a durability root, creating it if needed, and
// reads what it holds (openLog).
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	st := &Store{
		dir:             dir,
		fsync:           (*os.File).Sync,
		segmentSize:     segmentSize,
		sessions:        make(map[string]*sessionLog),
		mSnapBytes:      reg.Histogram(MetricSnapshotBytes, "Encoded snapshot size in bytes.", pow2Buckets(256, 16<<20)),
		mSnapSeconds:    reg.Histogram(MetricSnapshotSeconds, "Snapshot write latency in seconds.", telemetry.LatencyBuckets()),
		mAppends:        reg.Counter(MetricWALAppends, "Log records appended."),
		mFsyncs:         reg.Counter(MetricWALFsyncs, "Log fsync calls."),
		mRecovered:      reg.Gauge(MetricRecoveredSessions, "Sessions restored by the last startup recovery."),
		mReplayed:       reg.Counter(MetricRecoveredFrames, "Log frames replayed during recovery."),
		mCorrupt:        reg.Counter(MetricLogCorrupt, "Opens that found a corrupt record before the log's last segment."),
		mCommitFrames:   reg.Histogram(MetricCommitBatchFrames, "Appends completed per group-commit flush.", pow2Buckets(1, 4096)),
		mCommitSeconds:  reg.Histogram(MetricCommitSeconds, "Group-commit latency in seconds.", telemetry.LatencyBuckets()),
		mCommitSessions: reg.Histogram(MetricCommitBatchSessions, "Sessions completed per group-commit flush.", pow2Buckets(1, 4096)),
		mEnlistedWait:   reg.Histogram(MetricCommitEnlistedWait, "Wait from enlisting a commit to its covering sync, in seconds.", telemetry.LatencyBuckets()),
	}
	if err := st.openLog(); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	st.committer = &committer{st: st, window: opts.CommitWindow, wake: make(chan struct{}, 1)}
	return st, nil
}

// SetFsyncForTest replaces the store's sync seam so a test outside
// this package can inject device errors and delays. Call it before any
// traffic.
func (st *Store) SetFsyncForTest(fsync func(*os.File) error) { st.fsync = fsync }

// SetRecovered publishes the recovery gauge; the fleet manager calls it
// once startup recovery completes.
func (st *Store) SetRecovered(sessions int) { st.mRecovered.Set(float64(sessions)) }

// CountReplayed adds to the recovery frame-replay counter.
func (st *Store) CountReplayed(frames int) { st.mReplayed.Add(int64(frames)) }

// Sessions lists the session IDs with a directory under the root, sorted
// lexically (as ReadDir does). Presence does not imply recoverability —
// Recover reports ErrNoSnapshot for a directory without a checkpoint.
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
	return out, nil
}

// Remove deletes a session's persisted state entirely (explicit session
// deletion — eviction keeps state so the session can be restored). The
// log is not rewritten: records of a session without a snapshot are
// ignored.
func (st *Store) Remove(id string) error {
	dir, err := st.sessionDir(id)
	if err != nil {
		return err
	}
	err = os.RemoveAll(dir)
	st.mu.Lock()
	delete(st.sessions, id)
	st.gc()
	st.mu.Unlock()
	return err
}

// Create opens the durability state for a brand-new session. It is not
// durable until its first WriteSnapshot succeeds: recovery treats a
// directory without a valid snapshot as a creation that never completed.
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

// Recover loads a persisted session: its newest decodable snapshot plus
// the session's records since, read through the index Open built. The
// returned SessionStore continues the session's sequence.
func (st *Store) Recover(id string) (*SessionStore, *Snapshot, []*trace.Frame, error) {
	dir, err := st.sessionDir(id)
	if err != nil {
		return nil, nil, nil, err
	}
	_, snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	e, base, lsn, recs := st.tail(id)
	if e == nil || base != snap.FramesApplied || lsn != snap.LogLSN {
		return nil, nil, nil, fmt.Errorf("store: recover session %s: its snapshot changed on disk behind this store; reopen the store", id)
	}
	frames, err := st.readRecords(id, base+1, recs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: recover session %s: %w", id, err)
	}
	return &SessionStore{st: st, id: id, dir: dir, log: e, applied: base + len(frames)}, snap, frames, nil
}

// loadSnapshot returns the newest decodable snapshot in dir — raw
// envelope and decoding — trying the indices present, newest first: a
// corrupt newest snapshot falls back a generation (the atomic rename
// already excludes a torn one, but defense in depth costs one readdir).
func loadSnapshot(dir string) ([]byte, *Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: read session dir: %w", err)
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
		var snap *Snapshot
		if err == nil {
			snap, err = DecodeSnapshot(data)
		}
		if err == nil && snap.FramesApplied != k {
			err = fmt.Errorf("%w: snapshot-%d declares %d frames", ErrSnapshotCorrupt, k, snap.FramesApplied)
		}
		if err == nil {
			return data, snap, nil
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("store: %s: %w", dir, lastErr)
}

// writeSnapshotFile makes data durable as dir/snapshot-<k> — temporary
// file, fsync, atomic rename, directory fsync — and then removes the
// snapshots of other generations (advisory: recovery tolerates leftovers).
func writeSnapshotFile(dir string, k int, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: snapshot temp file: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, snapshotName(k)))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	syncDir(dir)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		if j, ok := snapshotIndex(name); ok && j != k || strings.HasPrefix(name, ".snapshot-") && strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

func (st *Store) sessionDir(id string) (string, error) {
	if id == "" || id != filepath.Base(id) || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("store: invalid session id %q", id)
	}
	return filepath.Join(st.dir, id), nil
}

// SessionStore is one session's durability state: its place in the
// shared log plus snapshot rotation. Methods are not safe for concurrent
// use — the fleet session serializes them behind its step lock.
type SessionStore struct {
	st  *Store
	id  string
	dir string
	// log is the session's index entry; nil until the first snapshot and
	// after Close.
	log     *sessionLog
	applied int // absolute index of the last appended frame
	// buf holds encoded records not yet written: a job's records wait here
	// and CommitAsync writes them in one go.
	buf []byte
	end int64 // LSN just past the last record this SessionStore wrote
	// syncDue is the earliest time the flusher completes this session's
	// commits again, and pass the flush that last did; the flusher's own.
	syncDue time.Time
	pass    uint64
}

// Applied returns the absolute index of the last durable-or-appended
// frame (snapshot base plus log records).
func (s *SessionStore) Applied() int { return s.applied }

// SinceSnapshot returns the number of frames appended since the current
// snapshot — what recovery would replay; it paces automatic checkpoints.
func (s *SessionStore) SinceSnapshot() int {
	if s.log == nil {
		return 0
	}
	return s.applied - s.log.base
}

// Append logs one accepted frame: its record is only encoded, and goes
// down with the rest of its job in the one write CommitAsync makes. It
// must follow a WriteSnapshot.
func (s *SessionStore) Append(frame *trace.Frame) error {
	if s.log == nil {
		return errors.New("store: session has no snapshot yet (write one first)")
	}
	if err := s.st.failed(); err != nil {
		return err
	}
	buf, err := appendRecord(s.buf, s.id, s.applied+1, frame)
	if err != nil {
		return err
	}
	s.buf = buf
	s.applied++
	s.st.mAppends.Inc()
	return nil
}

// write appends the buffered records to the log.
func (s *SessionStore) write() (err error) {
	if len(s.buf) > 0 {
		s.end, err = s.st.appendLog(s.buf, s.log)
		s.buf = s.buf[:0]
	}
	return err
}

// WriteSnapshot persists a checkpoint of the session at its current
// applied-frame count: the snapshot, stamped with the log's position, is
// made durable as snapshot-<k> (writeSnapshotFile) and only then are
// older snapshots removed and the session's earlier records released —
// so every instant leaves one recoverable snapshot with its records on
// disk. It waits on nothing: commits still enlisted with the flusher
// complete on their own. The store sets snap.SessionID, FramesApplied
// and LogLSN; the caller fills the rest. Returns the encoded size.
func (s *SessionStore) WriteSnapshot(snap *Snapshot) (int, error) {
	start := time.Now()
	if err := s.write(); err != nil {
		return 0, err
	}
	st, k := s.st, s.applied
	st.mu.Lock()
	lsn := st.cursor // every record of this session so far lies below it
	st.mu.Unlock()
	snap.SessionID, snap.FramesApplied, snap.LogLSN = s.id, k, lsn
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return 0, err
	}
	if err := writeSnapshotFile(s.dir, k, data); err != nil {
		return 0, err
	}
	s.log = st.setSnapshot(s.id, k, lsn, nil)

	st.mSnapBytes.Observe(float64(len(data)))
	st.mSnapSeconds.Observe(time.Since(start).Seconds())
	return len(data), nil
}

// CommitAsync makes every frame appended so far durable and then calls
// done — exactly once, with the error if the log failed — without
// blocking the caller on the disk: it writes the job's buffered records
// and enlists done with the store's flusher, which calls it after a sync
// that covered them. One session's completions run in CommitAsync order,
// so the caller preserves replied ⇒ durable and reply order by replying
// only from done. frames is the number of appends covered (batch-size
// histogram); a commit covering none is enlisted like any other, so it
// completes behind the session's earlier ones. The owner may go on
// appending — or snapshot, or close — meanwhile: the flusher holds only a
// log position. done runs on the flusher and must not block.
func (s *SessionStore) CommitAsync(frames int, done func(error)) {
	// A failed write is sticky in the store; the flusher reports it to
	// this commit and every later one, in order.
	s.write()
	s.st.committer.enlist(s, frames, done)
}

// Commit is CommitAsync plus the wait: it returns once every frame
// appended so far is durable.
func (s *SessionStore) Commit(frames int) error {
	errc := make(chan error, 1)
	s.CommitAsync(frames, func(err error) { errc <- err })
	return <-errc
}

// Close ends the session's use of the store, writing any records still
// buffered. It does not sync: callers that need durability checkpoint or
// Commit first. Commits still enlisted complete on their own.
func (s *SessionStore) Close() error {
	err := s.write()
	s.log = nil
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

func snapshotIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "snapshot-")
	k, err := strconv.Atoi(rest)
	return k, ok && err == nil && k >= 0
}

// pow2Buckets spans lo .. hi exponentially: 256 B .. 16 MiB for the
// snapshot size histogram, 1 .. 4096 for the group-commit batch sizes.
func pow2Buckets(lo, hi float64) []float64 {
	var out []float64
	for b := lo; b <= hi; b *= 2 {
		out = append(out, b)
	}
	return out
}
