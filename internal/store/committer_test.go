package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"roboads/internal/telemetry"
)

// openSession creates a session with an initial snapshot so appends work.
func openSession(t *testing.T, st *Store, id string, frames int) *SessionStore {
	t.Helper()
	ss, err := st.Create(id)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(frames)
	snap.SessionID = id
	if _, err := ss.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	return ss
}

// groupStore opens a group-commit store.
func groupStore(t *testing.T) (*Store, *telemetry.Registry) {
	t.Helper()
	return pacedStore(t, time.Millisecond)
}

// pacedStore opens a group-commit store with the given commit window.
func pacedStore(t *testing.T, window time.Duration) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	st, err := Open(t.TempDir(), Options{CommitWindow: window, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return st, reg
}

// enlistFrames appends n frames to ss and enlists them; the returned
// channel yields the completion's error.
func enlistFrames(t *testing.T, ss *SessionStore, n int) <-chan error {
	t.Helper()
	for k := 0; k < n; k++ {
		if err := ss.Append(testFrame(ss.Applied())); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	ss.CommitAsync(n, func(err error) { done <- err })
	return done
}

func waitDone(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("commit never completed")
		return nil
	}
}

// holdSyncs makes every sync of st announce itself on entered and then
// wait for one token on release, so a test can keep a flush in flight
// while more commits enlist behind it.
func holdSyncs(st *Store) (entered, release chan struct{}) {
	entered, release = make(chan struct{}, 64), make(chan struct{}, 64)
	st.fsync = func(f *os.File) error {
		entered <- struct{}{}
		<-release
		return f.Sync()
	}
	return entered, release
}

// TestGroupCommitLoneCommitFlushesAtOnce: on an idle store a commit is
// synced immediately — the window is a pace under load, not a delay every
// commit sleeps out — and CommitAsync itself never blocks.
func TestGroupCommitLoneCommitFlushesAtOnce(t *testing.T) {
	st, reg := pacedStore(t, time.Minute) // a window slept out would time the test out
	ss := openSession(t, st, "s-0", 0)
	before := counterValue(t, reg, MetricWALFsyncs)
	if err := waitDone(t, enlistFrames(t, ss, 3)); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, MetricWALFsyncs) - before; got != 1 {
		t.Fatalf("%d fsyncs for one commit, want 1", got)
	}
	// The blocking form rides the same path.
	if err := ss.Append(testFrame(3)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Commit(1); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		MetricCommitBatchFrames: 2, MetricCommitSeconds: 2,
		MetricCommitBatchSessions: 2, MetricCommitEnlistedWait: 2,
	} {
		if got := histogramCount(t, reg, name); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}

// TestGroupCommitGroupsBehindRunningSync pins where grouping comes from:
// whatever enlists while one flush is syncing is covered by the next
// flush together — one sync per dirty file, every completion released —
// up to syncFanout files a flush.
func TestGroupCommitGroupsBehindRunningSync(t *testing.T) {
	st, reg := groupStore(t)
	entered, release := holdSyncs(st)
	const sessions = syncFanout // the waiting batch is one flush: syncFanout files
	stores := make([]*SessionStore, sessions)
	for i := range stores {
		stores[i] = openSession(t, st, fmt.Sprintf("s-%d", i), 0)
	}
	first := enlistFrames(t, stores[0], 2)
	<-entered // flush 1 is in its sync
	var dones []<-chan error
	for _, ss := range stores[1:] {
		dones = append(dones, enlistFrames(t, ss, 4))
	}
	// A second commit of the session being synced joins the group too.
	dones = append(dones, enlistFrames(t, stores[0], 1))
	select {
	case <-dones[0]:
		t.Fatal("a commit completed while the only flusher was held in another sync")
	case <-time.After(5 * time.Millisecond):
	}
	for i := 0; i < 1+sessions; i++ {
		release <- struct{}{}
	}
	if err := waitDone(t, first); err != nil {
		t.Fatal(err)
	}
	for _, done := range dones {
		if err := waitDone(t, done); err != nil {
			t.Fatal(err)
		}
	}
	if got := histogramCount(t, reg, MetricCommitBatchSessions); got != 2 {
		t.Fatalf("%d flushes, want 2 (the lone commit, then everyone behind it)", got)
	}
	if got := counterValue(t, reg, MetricWALFsyncs); got != 1+sessions {
		t.Fatalf("%d fsyncs, want %d (one per dirty file per flush)", got, 1+sessions)
	}
	// And the frames are genuinely durable: recover each session.
	for i, want := range []int{3, 4, 4, 4} {
		_, snap, frames, err := st.Recover(fmt.Sprintf("s-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if snap.FramesApplied+len(frames) != want {
			t.Fatalf("session %d recovered %d+%d frames, want %d", i, snap.FramesApplied, len(frames), want)
		}
	}
}

// TestGroupCommitPace pins the two rates the window sets, by their lower
// bounds only (a loaded machine may be slower, never faster): one
// session's commits, each enlisted when the last completed, are synced
// once per window, and the store syncs syncFanout files per window once
// it has used what an idle flusher keeps.
func TestGroupCommitPace(t *testing.T) {
	const window = 20 * time.Millisecond
	st, reg := pacedStore(t, window)
	st.fsync = func(*os.File) error { return nil } // the pace, not the device, is under test

	// The session's pace keeps one window, so the first two go at once.
	lone := openSession(t, st, "s-lone", 0)
	start := time.Now()
	const commits = 6
	for n := 0; n < commits; n++ {
		if err := waitDone(t, enlistFrames(t, lone, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got, min := time.Since(start), (commits-2)*window; got < min {
		t.Errorf("%d lockstep commits of one session took %v, want >= %v (one sync per window)", commits, got, min)
	}
	if got := counterValue(t, reg, MetricWALFsyncs); got != commits {
		t.Errorf("%d fsyncs for %d lockstep commits", got, commits)
	}

	// A burst of paceCarry+3 windows' worth of files, one per session so
	// that no session's own pace binds: the last flush has at most
	// syncFanout of them, and what went before it is two windows more
	// than the flusher can have kept.
	burst := make([]*SessionStore, (paceCarry+3)*syncFanout)
	for i := range burst {
		burst[i] = openSession(t, st, fmt.Sprintf("s-%d", i), 0)
	}
	start = time.Now()
	var dones []<-chan error
	for _, ss := range burst {
		dones = append(dones, enlistFrames(t, ss, 2))
	}
	for _, done := range dones {
		if err := waitDone(t, done); err != nil {
			t.Fatal(err)
		}
	}
	if got, min := time.Since(start), 2*window; got < min {
		t.Errorf("a burst of %d files took %v, want >= %v (%d files per window after the first %d)",
			len(burst), got, min, syncFanout, paceCarry*syncFanout)
	}
}

// TestGroupCommitSyncFailureFailsWholeBatch injects a device error into
// one file's sync: every job the flush covered must complete with the
// error, and none with success.
func TestGroupCommitSyncFailureFailsWholeBatch(t *testing.T) {
	st, _ := groupStore(t)
	const sessions = syncFanout // one flush
	stores := make([]*SessionStore, sessions)
	for i := range stores {
		stores[i] = openSession(t, st, fmt.Sprintf("s-%d", i), 0)
	}
	lead := openSession(t, st, "s-lead", 0)
	bad := stores[2].wal.f
	boom := errors.New("injected: device error")
	entered, release := make(chan struct{}), make(chan struct{})
	st.fsync = func(f *os.File) error {
		switch f {
		case lead.wal.f: // holds the flusher while the batch under test forms
			entered <- struct{}{}
			<-release
		case bad:
			return boom
		}
		return f.Sync()
	}
	first := enlistFrames(t, lead, 1)
	<-entered
	var dones []<-chan error
	for _, ss := range stores {
		dones = append(dones, enlistFrames(t, ss, 2))
	}
	close(release)
	if err := waitDone(t, first); err != nil {
		t.Fatalf("the flush before the failing one: %v", err)
	}
	for i, done := range dones {
		if err := waitDone(t, done); !errors.Is(err, boom) {
			t.Errorf("job %d completed with %v, want the injected error", i, err)
		}
	}
	// The next batch is independent of the failed one.
	st.fsync = (*os.File).Sync
	if err := waitDone(t, enlistFrames(t, stores[0], 1)); err != nil {
		t.Fatalf("commit after a failed batch: %v", err)
	}
}

// TestGroupCommitDrainBeforeRotateAndClose pins the handle-lifetime
// invariant: WriteSnapshot's rotation and Close wait until the flusher
// has synced the session's outstanding enlistments, so the captured
// handle is never closed under it (the job would fail with a closed-file
// error) and no enlisted append is rotated away un-synced. It also pins
// that a commit enlisted right after a rotation — its segment empty, the
// snapshot holding every frame — syncs nothing.
func TestGroupCommitDrainBeforeRotateAndClose(t *testing.T) {
	st, reg := groupStore(t)
	synced := make(chan string, 16)
	st.fsync = func(f *os.File) error {
		time.Sleep(5 * time.Millisecond) // widen the race the drain closes
		err := f.Sync()
		synced <- filepath.Base(f.Name())
		return err
	}
	ss := openSession(t, st, "s-0", 0)

	done := enlistFrames(t, ss, 3)
	snap := testSnapshot(0)
	snap.SessionID = "s-0"
	if _, err := ss.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit pending across a rotation failed: %v", err)
		}
	default:
		t.Fatal("WriteSnapshot rotated the segment before the enlisted commit was synced")
	}
	if got := <-synced; got != walName(0) {
		t.Fatalf("flusher synced %s, want the segment captured at enlist time (%s)", got, walName(0))
	}

	before := counterValue(t, reg, MetricWALFsyncs)
	if err := waitDone(t, enlistFrames(t, ss, 0)); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, MetricWALFsyncs) - before; got != 0 {
		t.Fatalf("%d fsyncs of a segment emptied by the snapshot, want 0", got)
	}

	done = enlistFrames(t, ss, 2)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit pending across Close failed: %v", err)
		}
	default:
		t.Fatal("Close released the handle before the enlisted commit was synced")
	}
	_, rsnap, frames, err := st.Recover("s-0")
	if err != nil {
		t.Fatal(err)
	}
	if rsnap.FramesApplied != 3 || len(frames) != 2 {
		t.Fatalf("recovered %d+%d frames, want 3+2", rsnap.FramesApplied, len(frames))
	}
}

// TestGroupCommitCompletionOrder is the store half of the history
// checker: 16 sessions enlist commits of random sizes back to back
// without waiting, and every session's completions must run exactly once
// each, in enlistment order — even a commit covering no frames stays
// behind its predecessors. Run under -race.
func TestGroupCommitCompletionOrder(t *testing.T) {
	st, _ := groupStore(t)
	st.fsync = func(f *os.File) error { return nil } // order, not durability, is under test
	const sessions, commits = 16, 60
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		ss := openSession(t, st, fmt.Sprintf("s-%d", i), 0)
		wg.Add(1)
		go func(i int, ss *SessionStore) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			var mu sync.Mutex
			var order []int
			var pending sync.WaitGroup
			for n := 0; n < commits; n++ {
				frames := rng.Intn(5) // 0 = a job whose every frame failed
				for k := 0; k < frames; k++ {
					if err := ss.Append(testFrame(ss.Applied())); err != nil {
						t.Error(err)
						return
					}
				}
				pending.Add(1)
				n := n
				ss.CommitAsync(frames, func(err error) {
					mu.Lock()
					order = append(order, n)
					mu.Unlock()
					pending.Done()
				})
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}
			pending.Wait()
			if len(order) != commits {
				t.Errorf("session %d: %d completions for %d commits", i, len(order), commits)
				return
			}
			for n, got := range order {
				if got != n {
					t.Errorf("session %d: completion %d ran in position %d", i, got, n)
					return
				}
			}
		}(i, ss)
	}
	wg.Wait()
}

// TestCommitNoopWithoutWindow pins that Commit is free when group
// commit is disabled: inline fsyncs already made the appends durable,
// and CommitAsync completes before it returns.
func TestCommitNoopWithoutWindow(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := openSession(t, st, "s-0", 0)
	if err := ss.Append(testFrame(0)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Commit(1); err != nil {
		t.Fatal(err)
	}
	called := false
	ss.CommitAsync(1, func(err error) { called = err == nil })
	if !called {
		t.Fatal("CommitAsync without group commit did not complete inline")
	}
}

// TestRecoverOversizeWALRecord is the regression test for the silent
// recovery data-loss bug: a legitimately huge acked frame (a dense
// lidar scan far past the old 4MiB scanner line cap) must recover
// intact — not vanish as a phantom torn tail — and be counted in the
// oversize metric.
func TestRecoverOversizeWALRecord(t *testing.T) {
	reg := telemetry.NewRegistry()
	st, err := Open(t.TempDir(), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ss := openSession(t, st, "s-0", 0)

	big := testFrame(0)
	big.Readings["lidar"] = make([]float64, 700_000) // ~5.6MB encoded
	for i := range big.Readings["lidar"] {
		big.Readings["lidar"][i] = float64(i) * 0.001
	}
	if err := ss.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := ss.Append(testFrame(1)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	_, snap, frames, err := st.Recover("s-0")
	if err != nil {
		t.Fatal(err)
	}
	if snap.FramesApplied != 0 || len(frames) != 2 {
		t.Fatalf("recovered %d+%d frames, want 0+2", snap.FramesApplied, len(frames))
	}
	if !reflect.DeepEqual(frames[0], big) {
		t.Fatalf("oversized frame did not survive recovery intact")
	}
	if got := counterValue(t, reg, MetricWALOversize); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricWALOversize, got)
	}
}

// TestRecoverMixedFormatSegment builds the segment an in-place upgrade
// leaves behind — a JSON prefix written by the old version continued
// with binary records by the new one — and requires recovery to replay
// the whole thing, including truncating a torn binary tail.
func TestRecoverMixedFormatSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := openSession(t, st, "s-0", 0)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the old version: overwrite the rotated segment with JSON
	// records 1..3.
	walPath := filepath.Join(dir, "s-0", walName(0))
	var seg bytes.Buffer
	for seq := 1; seq <= 3; seq++ {
		line, err := EncodeWALRecord(seq, testFrame(seq-1))
		if err != nil {
			t.Fatal(err)
		}
		seg.Write(line)
	}
	if err := os.WriteFile(walPath, seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The new version recovers the JSON prefix and continues in binary.
	ss2, snap, frames, err := st.Recover("s-0")
	if err != nil {
		t.Fatal(err)
	}
	if snap.FramesApplied != 0 || len(frames) != 3 {
		t.Fatalf("recovered %d+%d frames, want 0+3", snap.FramesApplied, len(frames))
	}
	for seq := 4; seq <= 6; seq++ {
		if err := ss2.Append(testFrame(seq - 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover the mixed segment whole...
	ss3, _, frames, err := st.Recover("s-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 6 {
		t.Fatalf("mixed segment recovered %d frames, want 6", len(frames))
	}
	for i, fr := range frames {
		if !reflect.DeepEqual(fr, testFrame(i)) {
			t.Fatalf("frame %d changed across mixed recovery: %+v", i, fr)
		}
	}
	ss3.Close()

	// ...and with a torn binary tail, recover the clean prefix.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	ss4, _, frames, err := st.Recover("s-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("torn mixed segment recovered %d frames, want 5", len(frames))
	}
	ss4.Close()
}

// TestWALRecordBinaryRoundTrip mirrors TestWALRecordRoundTrip for the
// binary record format, including bit-flip detection.
func TestWALRecordBinaryRoundTrip(t *testing.T) {
	rec, err := AppendWALRecordBinary(nil, 3, testFrame(2))
	if err != nil {
		t.Fatal(err)
	}
	seq, frame, n, err := decodeWALRecordBinary(rec)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || n != len(rec) || frame.K != 2 || frame.U[0] != 0.2 || frame.Readings["gps"][1] != 2.5 {
		t.Fatalf("round trip changed record: seq=%d n=%d frame=%+v", seq, n, frame)
	}
	if _, err := AppendWALRecordBinary(nil, 0, testFrame(0)); err == nil {
		t.Fatal("sequence 0 accepted")
	}
	if _, err := AppendWALRecordBinary(nil, 1, nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x08
		if s, _, _, err := decodeWALRecordBinary(mut); err == nil && mut[0] == walBinaryMarker && s == seq {
			// A flip in the length prefix can shift framing; only an
			// undetected same-seq decode is a real miss.
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func counterValue(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	return reg.CounterValue(name)
}

func histogramCount(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	return reg.HistogramCount(name)
}

// TestWALAppendEncodeAllocs pins the single-encode fix on the durable
// hot path: one WAL record encodes into a reused buffer in a single
// pass — no marshal-then-remarshal, no per-append payload copies. The
// one tolerated allocation is the sorted reading-name slice that keeps
// the encoding deterministic.
func TestWALAppendEncodeAllocs(t *testing.T) {
	frame := testFrame(7)
	buf, err := AppendWALRecordBinary(nil, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendWALRecordBinary(buf[:0], 2, frame)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WAL append encodes with %.0f allocs, want <= 1", allocs)
	}
}
