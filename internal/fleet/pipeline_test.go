package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/mat"
	"roboads/internal/store"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// Tests of the asynchronous commit pipeline: shard workers enlist a
// stepped job with the store's flusher and move on, and the flusher
// answers it (DESIGN.md §11).

func batchOf(frames []trace.Frame) []BatchFrame {
	out := make([]BatchFrame, len(frames))
	for i := range frames {
		out[i] = BatchFrame{U: mat.Vec(frames[i].U), Readings: frameReadings(&frames[i])}
	}
	return out
}

// holdSyncs makes every WAL sync of m announce itself on entered and
// then wait for one token on release (closing release lets all through),
// so a test can keep a job enlisted but not yet durable. The n-th sync
// (1-based) returns fail(n) in place of syncing when fail is non-nil and
// returns an error.
func holdSyncs(m *Manager, fail func(n int) error) (entered, release chan struct{}) {
	entered, release = make(chan struct{}, 64), make(chan struct{})
	var calls atomic.Int32
	m.store.SetFsyncForTest(func(f *os.File) error {
		n := int(calls.Add(1))
		entered <- struct{}{}
		<-release
		if fail != nil {
			if err := fail(n); err != nil {
				return err
			}
		}
		return f.Sync()
	})
	return entered, release
}

// pendingCommit sets up the state the drain-point tests need: a session
// whose three-frame job has been stepped, appended and enlisted, and
// whose covering sync is held in the flusher until release is closed.
func pendingCommit(t *testing.T, dir string) (m *Manager, a SessionInfo, pa *PendingBatch, release chan struct{}) {
	t.Helper()
	m, err := NewManager(Config{
		Workers: 2, Build: DefaultBuilder(),
		Durability: Durability{Dir: dir, CommitWindow: 2 * time.Millisecond, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdSyncs(m, nil)
	a = mustCreate(t, m, Spec{Robot: "khepera"})
	if pa, err = m.SubmitBatch(a.ID, batchOf(kheperaFrames(t, 31, 3))); err != nil {
		t.Fatal(err)
	}
	<-entered
	return m, a, pa, release
}

// stillBlocked fails the test if done yields within a grace period.
func stillBlocked[T any](t *testing.T, done <-chan T, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatal(what)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestShutdownAnswersPendingCommit: Shutdown with a job enlisted and its
// sync still in flight waits for it, and the job is answered with success
// before a single session is closed.
func TestShutdownAnswersPendingCommit(t *testing.T) {
	dir := t.TempDir()
	m, a, pa, release := pendingCommit(t, dir)
	done := make(chan error, 1)
	go func() { done <- m.Shutdown(context.Background()) }()
	stillBlocked(t, done, "Shutdown returned with an accepted job not yet durable")
	stillBlocked(t, pa.reply, "job answered before its sync finished")
	close(release)

	results, err := pa.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("frame %d of the pending job: %v", i, res.Err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	m2, err := NewManager(Config{Workers: 1, Build: DefaultBuilder(), Durability: Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st, err := m2.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesApplied != 3 {
		t.Errorf("recovered %d frames, want 3", st.FramesApplied)
	}
}

// TestCheckpointDuringPendingCommit: a Checkpoint that lands while a job
// is enlisted but not yet synced neither waits for the flusher — there is
// no per-session file to rotate away under it — nor disturbs the job: the
// job is answered with success once its sync is through, and a copy of
// the state directory taken right then (a crash) recovers every
// acknowledged frame.
func TestCheckpointDuringPendingCommit(t *testing.T) {
	dir := t.TempDir()
	m, a, pa, release := pendingCommit(t, dir)
	defer m.Shutdown(context.Background())

	ci, err := m.Checkpoint(a.ID) // returns with the sync still held
	if err != nil {
		t.Fatal(err)
	}
	if ci.FramesApplied != 3 {
		t.Fatalf("checkpoint at %d frames, want 3", ci.FramesApplied)
	}
	stillBlocked(t, pa.reply, "job answered before its sync finished")
	close(release)
	results, err := pa.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("frame %d of the job pending across the checkpoint: %v", i, res.Err)
		}
	}

	crashed := t.TempDir()
	if err := copyTree(dir, crashed); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Config{Workers: 1, Build: DefaultBuilder(), Durability: Durability{Dir: crashed}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st, err := m2.Status(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesApplied != 3 {
		t.Fatalf("recovered %d frames of 3 acknowledged", st.FramesApplied)
	}
}

// TestWorkerStepsPastAHeldSync: at the default commit window a durable
// job is acknowledged by the store's flusher, never on the shard worker.
// With one worker and session A's sync held, session B's frame is still
// stepped; neither is answered until the sync is released, then both
// are, in order, and a copy of the directory recovers both frames.
func TestWorkerStepsPastAHeldSync(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 1, Build: DefaultBuilder(), Metrics: reg,
		Durability: Durability{Dir: dir, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	entered, release := holdSyncs(m, nil)
	frames := kheperaFrames(t, 36, 1)
	a := mustCreate(t, m, Spec{Robot: "khepera"})
	b := mustCreate(t, m, Spec{Robot: "khepera"})
	pa, err := m.SubmitBatch(a.ID, batchOf(frames))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // A's sync is in flight and held
	pb, err := m.SubmitBatch(b.ID, batchOf(frames))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); reg.CounterValue(MetricFrames) < 2; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			close(release) // let Shutdown drain
			t.Fatal("the only worker never stepped B's frame while A's sync was held")
		}
	}
	stillBlocked(t, pa.reply, "A answered while its sync was held")
	stillBlocked(t, pb.reply, "B answered before a sync covering it ran")
	close(release)

	rb := <-pb.reply
	var ra []FrameResult
	select {
	case ra = <-pa.reply:
	default:
		t.Fatal("B answered before A")
	}
	if ra[0].Err != nil || rb[0].Err != nil {
		t.Fatalf("after the release: A %v, B %v", ra[0].Err, rb[0].Err)
	}
	crashed := t.TempDir()
	if err := copyTree(dir, crashed); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Config{Workers: 1, Build: DefaultBuilder(), Durability: Durability{Dir: crashed}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	for _, id := range []string{a.ID, b.ID} {
		st, err := m2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.FramesApplied != 1 {
			t.Errorf("session %s recovered %d frames of 1 acknowledged", id, st.FramesApplied)
		}
	}
}

// TestSyncFailureFailsEveryCoveredJob is the fleet half of the fault
// seam: when a group sync fails, every frame of every job the flush
// covered is answered with the error — none with a report — the jobs
// stop counting as outstanding, and Shutdown still drains.
func TestSyncFailureFailsEveryCoveredJob(t *testing.T) {
	m, err := NewManager(Config{
		Workers: 2, Build: DefaultBuilder(),
		Durability: Durability{Dir: t.TempDir(), CommitWindow: 2 * time.Millisecond, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected: device error")
	// Sync 1 (the lead job's) is held and succeeds; every sync of the
	// flush that forms behind it fails.
	entered, release := holdSyncs(m, func(n int) error {
		if n > 1 {
			return boom
		}
		return nil
	})
	frames := kheperaFrames(t, 33, 6)
	lead := mustCreate(t, m, Spec{Robot: "khepera"})
	pl, err := m.SubmitBatch(lead.ID, batchOf(frames[:1]))
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	var ids []string
	var covered []*PendingBatch
	for i := 0; i < 3; i++ {
		ids = append(ids, mustCreate(t, m, Spec{Robot: "khepera"}).ID)
	}
	for _, id := range append(ids, ids[0]) { // ids[0] has two jobs in the flush
		next := 0
		if len(covered) == len(ids) {
			next = 3
		}
		p, err := m.SubmitBatch(id, batchOf(frames[next:next+3]))
		if err != nil {
			t.Fatal(err)
		}
		covered = append(covered, p)
	}
	// Every covered job must be enlisted before the held flush ends: the
	// worker hands back a session's run-queue token after enlisting.
	for _, id := range ids {
		s, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		for len(s.frames) > 0 || s.scheduled.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(release)

	results, err := pl.Wait(context.Background())
	if err != nil || results[0].Err != nil {
		t.Fatalf("job of the flush before the failing one: %v / %v", err, results[0].Err)
	}
	for j, p := range covered {
		results, err := p.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if !errors.Is(res.Err, boom) || res.Report != nil {
				t.Errorf("job %d frame %d answered (%v, report %v), want the injected error and no report", j, i, res.Err, res.Report != nil)
			}
		}
	}
	for _, id := range append(ids, lead.ID) {
		s, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.outstanding.Load(); n != 0 {
			t.Errorf("session %s still counts %d jobs outstanding", id, n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after a failed flush: %v", err)
	}
}

// TestLogFailureIsSticky: one failed fsync of the log — after which the
// device reports success again, as Linux does once it has dropped the
// dirty pages — must fail every later job of every session until the
// store is reopened: none may be answered with success over the hole. A
// copy of the directory then recovers no frame that was acknowledged
// after the failure, and every frame acknowledged before it.
func TestLogFailureIsSticky(t *testing.T) {
	for _, window := range []time.Duration{2 * time.Millisecond, 0} {
		t.Run(fmt.Sprintf("commit-window=%v", window), func(t *testing.T) {
			dir := t.TempDir()
			m, err := NewManager(Config{
				Workers: 2, Build: DefaultBuilder(),
				Durability: Durability{Dir: dir, CommitWindow: window, SnapshotEvery: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown(context.Background())
			boom := errors.New("injected: device error")
			var healthy atomic.Bool
			var failures atomic.Int32
			healthy.Store(true)
			m.store.SetFsyncForTest(func(f *os.File) error {
				if !healthy.Swap(true) {
					failures.Add(1)
					return boom // once; the next sync "succeeds"
				}
				return f.Sync()
			})
			frames := kheperaFrames(t, 35, 12)
			var ids []string
			for i := 0; i < 3; i++ {
				ids = append(ids, mustCreate(t, m, Spec{Robot: "khepera"}).ID)
			}
			step := func(id string, from, n int) (acked int, err error) {
				p, serr := m.SubmitBatch(id, batchOf(frames[from:from+n]))
				if serr != nil {
					t.Fatal(serr)
				}
				results, werr := p.Wait(context.Background())
				if werr != nil {
					t.Fatal(werr)
				}
				for _, res := range results {
					if res.Err == nil {
						acked++
					} else {
						err = res.Err
					}
				}
				return acked, err
			}
			for _, id := range ids {
				if n, err := step(id, 0, 3); n != 3 {
					t.Fatalf("before the failure: %d of 3 frames acknowledged (%v)", n, err)
				}
			}
			healthy.Store(false)
			if n, err := step(ids[0], 3, 3); n == 3 || !errors.Is(err, boom) {
				t.Fatalf("job over the failing sync: %d frames acknowledged, error %v", n, err)
			}
			if failures.Load() != 1 {
				t.Fatalf("%d syncs failed, want exactly 1", failures.Load())
			}
			for round := 0; round < 2; round++ {
				for _, id := range ids[1:] {
					n, err := step(id, 3+3*round, 3)
					if n != 0 || !errors.Is(err, store.ErrLogFailed) {
						t.Errorf("session %s after the failure: %d frames acknowledged, error %v (want none, ErrLogFailed)", id, n, err)
					}
					if code := replyCode(err); code != "internal" {
						t.Errorf("reply code %q for a log failure, want internal", code)
					}
				}
			}

			crashed := t.TempDir()
			if err := copyTree(dir, crashed); err != nil {
				t.Fatal(err)
			}
			m2, err := NewManager(Config{Workers: 1, Build: DefaultBuilder(), Durability: Durability{Dir: crashed}})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Shutdown(context.Background())
			for _, id := range ids {
				st, err := m2.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				// Unacknowledged frames may have reached the disk; none past
				// the third was ever acknowledged.
				if st.FramesApplied < 3 {
					t.Errorf("session %s recovered %d frames of 3 acknowledged before the failure", id, st.FramesApplied)
				}
			}
			// The reopened store takes frames again.
			if _, err := m2.Step(context.Background(), ids[1], mat.Vec(frames[0].U), frameReadings(&frames[0])); err != nil && errors.Is(err, store.ErrLogFailed) {
				t.Fatalf("reopened store still refuses: %v", err)
			}
		})
	}
}

// TestSlowFollowerAckDelaysOnlyItsSession: under -ack-policy=follower
// with group commit, a session whose follower ack is late keeps its own
// replies waiting — in order — while every other session's jobs go on
// being synced and answered: the wait is not on the flusher.
func TestSlowFollowerAckDelaysOnlyItsSession(t *testing.T) {
	m, err := NewManager(Config{
		Workers: 2, Build: DefaultBuilder(), AckPolicy: AckFollower, AckTimeout: time.Minute,
		Durability: Durability{Dir: t.TempDir(), CommitWindow: 2 * time.Millisecond, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	gen := m.repl.connect()
	defer m.repl.disconnect(gen) // releases any waiter a failed run leaves behind

	frames := kheperaFrames(t, 34, 8)
	slow := mustCreate(t, m, Spec{Robot: "khepera"})
	fast := mustCreate(t, m, Spec{Robot: "khepera"})
	m.repl.ack(fast.ID, len(frames)) // fast's follower is ahead of everything it will send

	first, err := m.SubmitBatch(slow.ID, batchOf(frames[:2]))
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.SubmitBatch(slow.ID, batchOf(frames[2:4]))
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := m.Step(ctx, fast.ID, mat.Vec(frames[i].U), frameReadings(&frames[i]))
		cancel()
		if err != nil {
			t.Fatalf("frame %d of the other session, behind a slow follower ack: %v", i, err)
		}
	}
	stillBlocked(t, first.reply, "job answered without its follower ack")

	m.repl.ack(slow.ID, 4)
	results, err := second.Wait(context.Background())
	if err != nil || results[1].Err != nil {
		t.Fatalf("second job: %v / %v", err, results[1].Err)
	}
	select {
	case results := <-first.reply:
		if results[1].Err != nil {
			t.Fatal(results[1].Err)
		}
	default:
		t.Fatal("second job answered before the first")
	}
}

// TestEvictionRacesLastReply is the regression test for the tier-1 flake
// in TestFleetEvictionPersistsAndRestores: a caller that holds its reply
// evicts immediately, and the session must never still look busy —
// whichever goroutine sent the reply (the worker inline, or the store's
// flusher) and however late the worker gets to hand back its run-queue
// token.
func TestEvictionRacesLastReply(t *testing.T) {
	frames := kheperaFrames(t, 32, 1)
	for _, tc := range []struct {
		name string
		dur  func(dir string) Durability
	}{
		{"volatile", func(string) Durability { return Durability{} }},
		// Named when the default window synced inline on the worker; it is
		// the default window through the flusher now.
		{"inline-fsync", func(dir string) Durability { return Durability{Dir: dir} }},
		{"group-commit", func(dir string) Durability { return Durability{Dir: dir, CommitWindow: 2 * time.Millisecond} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewManager(Config{
				Workers: 2, IdleTimeout: time.Hour, Build: DefaultBuilder(),
				Durability: tc.dur(t.TempDir()),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown(context.Background())
			var clock atomic.Int64
			clock.Store(time.Now().UnixNano())
			m.now = func() time.Time { return time.Unix(0, clock.Load()) }

			for i := 0; i < 40; i++ {
				info := mustCreate(t, m, Spec{Robot: "khepera"})
				if _, err := m.Step(context.Background(), info.ID, mat.Vec(frames[0].U), frameReadings(&frames[0])); err != nil {
					t.Fatal(err)
				}
				clock.Add(int64(2 * time.Hour))
				m.evictIdle()
				if _, err := m.Info(info.ID); !errors.Is(err, ErrSessionNotFound) {
					t.Fatalf("round %d: answered session survived eviction (Info = %v)", i, err)
				}
			}
		})
	}
}

// copyTree copies a state directory the way a crash would freeze it: no
// coordination with the writers; files that vanish mid-copy are skipped.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// TestPipelineHistory is the mini history checker. 16 durable sessions
// stream jobs of random sizes, several in flight each, through two
// workers and the flusher; mid-stream the state directory is copied
// without any Shutdown. Checked per session: replies arrive in
// submission order, every report is bit for bit the uninterrupted
// detector's, and the copy recovers acked ≤ recovered ≤ sent and then
// continues the reference stream exactly. Run under -race.
func TestPipelineHistory(t *testing.T) {
	// The subtest keeps the name it had when frame coalescing was a
	// Config option; the uncoalesced pipeline it ran is the only one left.
	t.Run("fleet-batch=0", pipelineHistory)
}

func pipelineHistory(t *testing.T) {
	const (
		sessions  = 16
		perStream = 96
		resume    = 8
		inFlight  = 4
	)
	build := DefaultBuilder()
	seeds := []int64{41, 42, 43, 44}
	frameSets := make([][]trace.Frame, len(seeds))
	want := make([][]WireReport, len(seeds))
	for i, seed := range seeds {
		frameSets[i] = kheperaFrames(t, seed, perStream+resume)
		want[i] = localReports(t, build, Spec{Robot: "khepera"}, frameSets[i])
	}
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 2, QueueDepth: 2 * inFlight, Build: build, Metrics: reg,
		// No automatic checkpoints: a copy taken across a rotation is a
		// state no crash produces (files of two generations, each partial).
		Durability: Durability{Dir: dir, CommitWindow: 2 * time.Millisecond, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())

	ids := make([]string, sessions)
	sent := make([]atomic.Int64, sessions)
	acked := make([]atomic.Int64, sessions)
	for i := range ids {
		ids[i] = mustCreate(t, m, Spec{Robot: "khepera"}).ID
	}
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			frames, ref := frameSets[i%len(seeds)][:perStream], want[i%len(seeds)]
			type flight struct {
				p     *PendingBatch
				first int
			}
			var flights []flight
			// settle receives the newest job's reply, then requires every
			// older one to be there already: replies in submission order.
			settle := func() bool {
				last := flights[len(flights)-1]
				all := make([][]FrameResult, len(flights))
				all[len(all)-1] = <-last.p.reply
				for j, fl := range flights[:len(flights)-1] {
					select {
					case all[j] = <-fl.p.reply:
					default:
						t.Errorf("session %s: job at frame %d answered before the job at frame %d", ids[i], last.first, fl.first)
						return false
					}
				}
				for j, fl := range flights {
					for k, res := range all[j] {
						if res.Err != nil {
							t.Errorf("session %s frame %d: %v", ids[i], fl.first+k, res.Err)
							return false
						}
						if !reflect.DeepEqual(NewWireReport(res.Report), ref[fl.first+k]) {
							t.Errorf("session %s frame %d: report differs from the uninterrupted detector", ids[i], fl.first+k)
							return false
						}
					}
					acked[i].Add(int64(len(all[j])))
				}
				flights = flights[:0]
				return true
			}
			for next := 0; next < len(frames); {
				n := min(1+rng.Intn(6), len(frames)-next)
				sent[i].Add(int64(n))
				p, err := m.SubmitBatch(ids[i], batchOf(frames[next:next+n]))
				if err != nil {
					t.Errorf("session %s: submit: %v", ids[i], err)
					return
				}
				flights = append(flights, flight{p, next})
				next += n
				if len(flights) == inFlight || next == len(frames) || rng.Intn(3) == 0 {
					if !settle() {
						return
					}
				}
			}
		}(i)
	}

	// The crash: copy the directory once the streams are well under way.
	total := func(xs []atomic.Int64) (n int64) {
		for i := range xs {
			n += xs[i].Load()
		}
		return n
	}
	for total(acked) < sessions*perStream/3 && !t.Failed() {
		time.Sleep(200 * time.Microsecond)
	}
	ackedBefore := make([]int64, sessions)
	for i := range acked {
		ackedBefore[i] = acked[i].Load()
	}
	crashed := t.TempDir()
	if err := copyTree(dir, crashed); err != nil {
		t.Fatal(err)
	}
	sentAfter := make([]int64, sessions)
	for i := range sent {
		sentAfter[i] = sent[i].Load()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reg.HistogramCount(store.MetricCommitBatchSessions) == 0 {
		t.Error("no group flush observed: the sessions never went through the flusher")
	}

	m2, err := NewManager(Config{Workers: 2, Build: build, Durability: Durability{Dir: crashed}})
	if err != nil {
		t.Fatalf("recovering the mid-stream copy: %v", err)
	}
	defer m2.Shutdown(context.Background())
	for i, id := range ids {
		st, err := m2.Status(id)
		if err != nil {
			t.Fatalf("session %s after recovery: %v", id, err)
		}
		rec := int64(st.FramesApplied)
		if rec < ackedBefore[i] || rec > sentAfter[i] {
			t.Fatalf("session %s: recovered %d frames with %d acked before and %d sent after the copy (want acked <= recovered <= sent)",
				id, rec, ackedBefore[i], sentAfter[i])
		}
		set := i % len(seeds)
		got := stepAll(t, m2, id, frameSets[set][rec:rec+resume])
		if !reflect.DeepEqual(got, want[set][rec:rec+resume]) {
			t.Fatalf("session %s: reports after recovery at frame %d differ from the uninterrupted detector", id, rec)
		}
	}
}
