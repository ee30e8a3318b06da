package store

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// syncFanout is the most files one flush covers, all synced at once.
// Concurrent syncs let the filesystem fold them into fewer journal
// commits (16 files on the reference box: 2.4 ms one after another,
// 1.6 ms at 4 or at 16 in flight), and each blocked fsync pins an OS
// thread, so the smallest width that gets the gain. It is also the unit
// of the flusher's pace: syncFanout files per commit window.
const syncFanout = 4

// paceCarry is how many windows of unused pace the flusher keeps, so that
// the pace holds on average and not only from one flush to the next: a
// fleet that falls behind for tens of milliseconds — a round in which
// every session checkpoints, a garbage collection in its client — is
// synced at the device's speed until it has caught up, and one that comes
// back with its next round a few milliseconds after the last finds its
// first files synced at once, with only the round's tail waiting.
const paceCarry = 16

// committer is the cross-session group-commit pipeline stage: sessions
// append without syncing and enlist a completion callback; one flusher
// goroutine takes whatever has enlisted, syncs every distinct WAL file
// it covers, runs the callbacks in enlistment order, and goes again.
// Nothing blocks the enlisting goroutine, so a shard worker moves on to
// its next session while the sync is in flight.
//
// The flusher is paced by the commit window, in two ways: it syncs at
// most syncFanout files per window, and any one session's file at most
// once per window. Both count from when a sync was due, not from when it
// ran, the sync itself runs inside that time, and pace left unused is
// kept for a while (a window per session, paceCarry windows store-wide).
// An idle store therefore flushes what enlists at once, while sustained
// load is served at a rate the window sets — one sync per window for a
// lone session, syncFanout files per window for a fleet — and not at
// whatever the device and the scheduler give at that moment, which on
// shared hardware swings by half from one minute to the next.
//
// The flusher is started on demand and exits when nothing is enlisted,
// so an idle store runs nothing and a Store needs no Close.
type committer struct {
	st     *Store
	window time.Duration
	// due is the earliest start of the next flush under the store-wide
	// pace; SessionStore.syncDue is the same per session. Only the flusher
	// touches either, and the hand-over from one flusher goroutine to the
	// next goes through mu.
	due time.Time

	mu sync.Mutex
	// settled is broadcast when a flush has synced and completed its
	// batch; drain waits on it.
	settled *sync.Cond
	// open is the batch collecting enlistments, in enlistment order.
	open []enlistment
	// flushing is set while the flusher goroutine exists; it is the only
	// goroutine that detaches batches, which keeps flushes — and with
	// them every session's callbacks — in enlistment order.
	flushing bool
}

// enlistment is one CommitAsync call awaiting the sync that covers it.
type enlistment struct {
	ss *SessionStore
	// f is the segment handle captured at enlist time; nil when the
	// segment held nothing to sync (a snapshot just made every applied
	// frame durable) and the enlistment only keeps its place in line.
	f      *os.File
	frames int
	at     time.Time
	done   func(error)
}

func newCommitter(st *Store, window time.Duration) *committer {
	c := &committer{st: st, window: window}
	c.settled = sync.NewCond(&c.mu)
	return c
}

// enlist adds one completion to the open batch and starts the flusher
// if none is running. The caller is the session's owner, so ss.wal is
// stable.
func (c *committer) enlist(ss *SessionStore, frames int, done func(error)) {
	e := enlistment{ss: ss, frames: frames, at: time.Now(), done: done}
	if ss.applied > ss.base {
		e.f = ss.wal.f
	}
	c.mu.Lock()
	c.open = append(c.open, e)
	ss.enlisted++
	if !c.flushing {
		c.flushing = true
		go c.run()
	}
	c.mu.Unlock()
}

// run is the flusher: it flushes batch after batch until a flush ends
// with nothing enlisted, then exits. A batch is the longest run of
// enlistments, oldest first, that covers at most syncFanout files — one
// window of the store's pace, so that whoever enlists next waits a window
// at most and not for a whole fleet's worth — and its flush starts once
// the store's pace and that of every session in it allow.
func (c *committer) run() {
	for {
		c.mu.Lock()
		if len(c.open) == 0 {
			c.open = nil
			c.flushing = false
			c.mu.Unlock()
			return
		}
		due := c.due
		var files [syncFanout]*os.File
		var owners [syncFanout]*SessionStore
		n, k := 0, 0
		for ; n < len(c.open); n++ {
			e := c.open[n]
			if e.f == nil || slices.Contains(files[:k], e.f) {
				continue
			}
			if k == syncFanout {
				break
			}
			files[k], owners[k], k = e.f, e.ss, k+1
			if e.ss.syncDue.After(due) {
				due = e.ss.syncDue
			}
		}
		if wait := time.Until(due); wait > 0 {
			c.mu.Unlock()
			time.Sleep(wait) // what enlists meanwhile may join this flush
			continue
		}
		batch := c.open[:n:n]
		c.open = c.open[n:]
		c.mu.Unlock()
		c.flush(batch, files[:k], owners[:k])
	}
}

// advance moves a pace's due time on by step. It counts from when the
// sync was due, not from now: a timer that fires late (a millisecond, on
// a kernel with a coarse tick) must not slow the pace. A pace that was
// idle keeps at most carry of what it did not use.
func advance(due, now time.Time, step, carry time.Duration) time.Time {
	if idle := now.Add(-carry); due.Before(idle) {
		due = idle
	}
	return due.Add(step)
}

// flush syncs files, the distinct segments batch covers (owners are their
// sessions), completes the enlistments in order, then releases drain
// waiters. One failed sync fails the whole batch: the files share a
// device and a journal, and a reply that claims durability must not rest
// on guessing which of them the error hit.
func (c *committer) flush(batch []enlistment, files []*os.File, owners []*SessionStore) {
	now := time.Now()
	for _, ss := range owners {
		ss.syncDue = advance(ss.syncDue, now, c.window, c.window)
	}
	c.due = advance(c.due, now, time.Duration(len(files))*c.window/syncFanout, paceCarry*c.window)
	frames := 0
	for _, e := range batch {
		frames += e.frames
	}

	// All of the flush's files are synced at once, the first on this
	// goroutine.
	var (
		errOnce sync.Once
		err     error
		wg      sync.WaitGroup
	)
	syncOne := func(f *os.File) {
		if serr := c.st.fsync(f); serr != nil {
			errOnce.Do(func() { err = fmt.Errorf("store: fsync WAL: %w", serr) })
		}
	}
	for _, f := range files[min(1, len(files)):] {
		wg.Add(1)
		go func() { defer wg.Done(); syncOne(f) }()
	}
	if len(files) > 0 {
		syncOne(files[0])
	}
	wg.Wait()
	syncedAt := time.Now()

	st := c.st
	st.mFsyncs.Add(int64(len(files)))
	st.mCommitFrames.Observe(float64(frames))
	st.mCommitSessions.Observe(float64(len(files)))
	st.mCommitSeconds.Observe(syncedAt.Sub(batch[0].at).Seconds())
	for _, e := range batch {
		st.mEnlistedWait.Observe(syncedAt.Sub(e.at).Seconds())
		e.done(err)
	}

	c.mu.Lock()
	for _, e := range batch {
		e.ss.enlisted--
	}
	c.settled.Broadcast()
	c.mu.Unlock()
}

// drain blocks until every enlistment of ss has been synced and
// completed. An enlistment is always in a batch that is being flushed or
// is the next the running flusher takes, so the wait is two flushes at
// most, the second after whatever the first left of its pace.
func (c *committer) drain(ss *SessionStore) {
	c.mu.Lock()
	for ss.enlisted > 0 {
		c.settled.Wait()
	}
	c.mu.Unlock()
}
