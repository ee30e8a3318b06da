package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/telemetry"
	"roboads/internal/trace"
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
	entered, release = make(chan struct{}, 64), make(chan struct{})
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
// flush together — ONE sync of the shared log, however many sessions,
// every completion released.
func TestGroupCommitGroupsBehindRunningSync(t *testing.T) {
	st, reg := groupStore(t)
	entered, release := holdSyncs(st)
	const sessions = 4
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
	release <- struct{}{}
	release <- struct{}{}
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
	if got := counterValue(t, reg, MetricWALFsyncs); got != 2 {
		t.Fatalf("%d fsyncs, want 2 (one per flush, whatever it covers)", got)
	}
	// And the frames are genuinely durable: recover each session.
	if st, _ = reopen(t, st); st == nil {
		return
	}
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

// reopen opens a second store on st's directory, as a restart would.
func reopen(t *testing.T, st *Store) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	st2, err := Open(st.dir, Options{CommitWindow: st.committer.window, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return st2, reg
}

// TestGroupCommitPace pins the rate the window sets, by its lower bound
// only (a loaded machine may be slower, never faster): one session's
// commits, each enlisted when the last completed, are synced once per
// window. Nothing rations the store as a whole: a burst from many
// sessions, none of which was served in the last window, costs a few
// flushes a quarter window apart, not a window per four of them.
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

	// 64 sessions, two commits each back to back: under the per-file pace
	// of 4 files per window that the per-session WAL files needed, the
	// second round alone took 16 windows.
	burst := make([]*SessionStore, 64)
	for i := range burst {
		burst[i] = openSession(t, st, fmt.Sprintf("s-%d", i), 0)
	}
	start = time.Now()
	for round := 0; round < 2; round++ {
		var dones []<-chan error
		for _, ss := range burst {
			dones = append(dones, enlistFrames(t, ss, 2))
		}
		for _, done := range dones {
			if err := waitDone(t, done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, max := time.Since(start), 8*window; got > max {
		t.Errorf("two rounds of %d idle sessions took %v, want < %v: something paces the store as a whole", len(burst), got, max)
	}
}

// TestSleepUntil pins the pace's wait on both of its paths, the runtime
// timer and the fine steps: it never ends before its deadline unless woken,
// and a wake ends it at once. How close to the deadline it ends depends on
// the machine and is not asserted.
func TestSleepUntil(t *testing.T) {
	for _, d := range []time.Duration{0, 100 * time.Microsecond, coarseSlack / 2, 3 * coarseSlack} {
		deadline := time.Now().Add(d)
		sleepUntil(deadline, nil)
		if early := time.Until(deadline); early > 0 {
			t.Errorf("sleepUntil(now+%v) returned %v early", d, early)
		}
	}
	for _, d := range []time.Duration{coarseSlack / 2, time.Minute} {
		wake := make(chan struct{}, 1)
		wake <- struct{}{}
		start := time.Now()
		sleepUntil(start.Add(d), wake)
		if got := time.Since(start); d == time.Minute && got > d/2 {
			t.Errorf("a woken sleepUntil(now+%v) took %v", d, got)
		}
		if len(wake) != 0 {
			t.Errorf("sleepUntil(now+%v) left the wake unread", d)
		}
	}
}

// TestGroupCommitSyncFailureFailsWholeBatch injects one device error
// into the log's sync: every job the flush covered must complete with
// the error, none with success — and the failure is STICKY. On Linux a
// failed fsync marks the dirty pages clean, so the next one succeeds over
// a hole; the store therefore refuses every later append and commit, on
// every session, until it is reopened, and a copy of the directory
// recovers no frame that was answered with success after the failure.
func TestGroupCommitSyncFailureFailsWholeBatch(t *testing.T) {
	for _, window := range []time.Duration{time.Millisecond, 0} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			st, _ := pacedStore(t, window)
			stores := make([]*SessionStore, 4)
			for i := range stores {
				stores[i] = openSession(t, st, fmt.Sprintf("s-%d", i), 0)
			}
			if err := commitFrames(stores[0], 2); err != nil {
				t.Fatalf("commit before the failure: %v", err)
			}
			boom := errors.New("injected: device error")
			var calls atomic.Int32
			st.fsync = func(f *os.File) error {
				if calls.Add(1) == 1 {
					return boom // fail once, then "succeed" like the kernel does
				}
				return f.Sync()
			}
			if err := commitFrames(stores[1], 2); !errors.Is(err, boom) || !errors.Is(err, ErrLogFailed) {
				t.Fatalf("commit over the failing sync: %v, want the injected error wrapped in ErrLogFailed", err)
			}
			// Every later commit on every session fails, although the device
			// would now report success.
			acked := 0
			for round := 0; round < 3; round++ {
				for i, ss := range stores {
					err := commitFrames(ss, 1)
					if err == nil {
						acked++
					}
					if !errors.Is(err, ErrLogFailed) {
						t.Errorf("round %d session %d: commit after a failed sync: %v, want ErrLogFailed", round, i, err)
					}
				}
			}
			st2, err := Open(copyDir(t, st.dir), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range []int{2, 0, 0, 0} {
				_, snap, frames, err := st2.Recover(fmt.Sprintf("s-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				// Unacked frames may or may not have reached the disk; none
				// was acked after the failure, so any count ≥ the acked
				// prefix is within the contract.
				if got := snap.FramesApplied + len(frames); got < want || acked != 0 {
					t.Errorf("session %d recovered %d frames with %d acked before and %d after the failure", i, got, want, acked)
				}
			}
			// Reopening clears it.
			if err := commitFrames(openSession(t, st2, "s-new", 0), 1); err != nil {
				t.Fatalf("commit on the reopened store: %v", err)
			}
		})
	}
}

// commitFrames appends n frames to ss and commits them, whichever way the
// store is configured: the first error of either step.
func commitFrames(ss *SessionStore, n int) error {
	for k := 0; k < n; k++ {
		if err := ss.Append(testFrame(ss.Applied())); err != nil {
			return err
		}
	}
	return ss.Commit(n)
}

// TestGroupCommitPendingAcrossSnapshotAndClose: a commit still enlisted
// when its session checkpoints or closes is neither lost nor failed, and
// neither WriteSnapshot nor Close waits for it — the flusher holds only a
// log position, there is no per-session file to rotate or close under it.
func TestGroupCommitPendingAcrossSnapshotAndClose(t *testing.T) {
	st, _ := groupStore(t)
	entered, release := holdSyncs(st)
	ss := openSession(t, st, "s-0", 0)

	done := enlistFrames(t, ss, 3)
	<-entered
	snap := testSnapshot(0)
	snap.SessionID = "s-0"
	if _, err := ss.WriteSnapshot(snap); err != nil { // returns while the sync is held
		t.Fatal(err)
	}
	done2 := enlistFrames(t, ss, 2)
	if err := ss.Close(); err != nil { // likewise
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("commit completed (%v) before its sync was released", err)
	default:
	}
	close(release)
	for i, d := range []<-chan error{done, done2} {
		if err := waitDone(t, d); err != nil {
			t.Fatalf("commit %d pending across the snapshot and Close failed: %v", i, err)
		}
	}
	st, _ = reopen(t, st)
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

// TestCommitWithoutWindowWaitsForSync pins what a zero window means: no
// pace, not a second way to durability. The commit is enlisted with the
// flusher like any other — CommitAsync never completes it on the caller —
// and completes, with success, only once the sync covering it returns.
func TestCommitWithoutWindowWaitsForSync(t *testing.T) {
	st, reg := pacedStore(t, 0)
	entered, release := holdSyncs(st)
	ss := openSession(t, st, "s-0", 0)
	done := enlistFrames(t, ss, 1)
	select {
	case err := <-done:
		t.Fatalf("CommitAsync completed inline (%v)", err)
	default:
	}
	<-entered
	select {
	case err := <-done:
		t.Fatalf("commit completed (%v) while its sync was held", err)
	case <-time.After(5 * time.Millisecond):
	}
	release <- struct{}{}
	if err := waitDone(t, done); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, MetricWALFsyncs); got != 1 {
		t.Fatalf("%d fsyncs, want 1", got)
	}
}

// TestRecoverOversizeWALRecord: a legitimately huge acked frame (a dense
// lidar scan, larger than a whole log segment) must recover intact — not
// vanish as a phantom torn tail (it once did, past a 4 MiB line cap) —
// and so must the ordinary frame after it, across the rotation.
func TestRecoverOversizeWALRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := openSession(t, st, "s-0", 0)

	big := testFrame(0)
	big.Readings["lidar"] = make([]float64, 700_000) // ~5.6MB encoded
	for i := range big.Readings["lidar"] {
		big.Readings["lidar"][i] = float64(i) * 0.001
	}
	// One commit each: the oversize record fills the head segment, and the
	// next write rotates past it.
	for _, frame := range []*trace.Frame{big, testFrame(1)} {
		if err := ss.Append(frame); err != nil {
			t.Fatal(err)
		}
		if err := ss.Commit(1); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(logFiles(t, dir)); n != 2 {
		t.Fatalf("%d log segments, want 2 (the oversize record fills the first)", n)
	}

	st, _ = reopen(t, st)
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
}

// TestWALRecordBinaryRoundTrip: the one record format round-trips, and
// any flipped bit is detected.
func TestWALRecordBinaryRoundTrip(t *testing.T) {
	rec, err := appendRecord(nil, "s-000007", 3, testFrame(2))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte) (id string, seq, n int, frame *trace.Frame) {
		scanLog(data, func(_, rn int, rid []byte, rseq int, raw []byte) {
			if n == 0 {
				id, seq, n = string(rid), rseq, rn
				frame, _ = trace.DecodeFrameBinary(raw)
			}
		})
		return
	}
	id, seq, n, frame := decode(rec)
	if id != "s-000007" || seq != 3 || n != len(rec) || frame == nil || frame.K != 2 || frame.U[0] != 0.2 || frame.Readings["gps"][1] != 2.5 {
		t.Fatalf("round trip changed record: id=%s seq=%d n=%d frame=%+v", id, seq, n, frame)
	}
	if _, err := appendRecord(nil, "s", 0, testFrame(0)); err == nil {
		t.Fatal("sequence 0 accepted")
	}
	if _, err := appendRecord(nil, "s", 1, nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	if _, err := appendRecord(nil, "", 1, testFrame(0)); err == nil {
		t.Fatal("empty session id accepted")
	}
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x08
		if _, _, n, _ := decode(mut); n != 0 {
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
	buf, err := appendRecord(nil, "s-000001", 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = appendRecord(buf[:0], "s-000001", 2, frame)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WAL append encodes with %.0f allocs, want <= 1", allocs)
	}
}
