package store

import (
	"math"
	"sync"
	"time"
)

// committer is the cross-session group-commit stage, the one way a
// record becomes durable: sessions write their records without syncing
// and enlist a completion with the log position it waits for; one flusher
// goroutine syncs the log — one fsync, however many sessions — and runs,
// in enlistment order, the completions of every enlistment the sync
// passed. Nothing blocks the enlisting goroutine, and what enlists during
// one sync is covered by the next: grouping needs no timer.
//
// The pace is per session, and a zero window means none: the flusher
// flushes whenever it is free. One session's commits are completed at most
// once per commit window, counted from when the completion was due, not
// from when it ran, the sync running inside that time and at most one
// window of unused pace kept. So an idle session is synced at once, and a
// lone client streaming in lockstep gets exactly one commit per window: a
// rate the window sets, not whatever the device and the scheduler give
// that minute, which on shared hardware swings by half. The store has no
// pace in that sense — a flush is one fsync of one file whatever it
// covers — only a floor under the time between two flush starts
// (flushesPerWindow): after a stall every session is due at once, and
// without it each would be synced as it enlists, a round chopped into a
// dozen small flushes just when the machine is slowest.
//
// The flusher is started on demand and exits when nothing is enlisted,
// so an idle store runs nothing and a Store needs no Close.
type committer struct {
	st     *Store
	window time.Duration
	// due is the earliest start of the next flush (the flusher's own).
	due time.Time

	mu sync.Mutex
	// open holds the enlistments not yet completed, in enlistment order.
	open []enlistment
	// flushing is set while the flusher goroutine exists. Only it completes
	// enlistments, which keeps a session's callbacks in order; pass,
	// SessionStore.syncDue and .pass are its own, handed from one flusher
	// goroutine to the next through mu.
	flushing bool
	pass     uint64
	// wake cuts short the flusher's wait for a session's pace when another
	// session, possibly due at once, enlists.
	wake chan struct{}
	// ready is flush's reused list of the enlistments it completes; the
	// flusher's own, like pass.
	ready []enlistment
}

// flushesPerWindow bounds how often a flush may start: window /
// flushesPerWindow apart, counted from when one was due. A lone session
// never meets it (its own pace is a whole window).
const flushesPerWindow = 4

// enlistment is one CommitAsync call awaiting a sync that passes lsn.
type enlistment struct {
	ss     *SessionStore
	lsn    int64 // just past the session's last record when it enlisted
	frames int
	at     time.Time
	done   func(error)
}

// enlist queues one completion and starts the flusher if none is
// running. The caller is the session's owner.
func (c *committer) enlist(ss *SessionStore, frames int, done func(error)) {
	e := enlistment{ss: ss, lsn: ss.end, frames: frames, at: time.Now(), done: done}
	c.mu.Lock()
	c.open = append(c.open, e)
	if !c.flushing {
		c.flushing = true
		go c.run()
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// run is the flusher: flush after flush until nothing is enlisted. A
// flush starts as soon as some enlisted session's pace allows — at once,
// unless every one of them was served less than a window ago, or the last
// flush started less than a quarter window ago.
func (c *committer) run() {
	for {
		c.mu.Lock()
		if len(c.open) == 0 {
			c.flushing = false
			c.mu.Unlock()
			return
		}
		now, failed := time.Now(), c.st.failed() != nil
		wait, need := time.Duration(math.MaxInt64), int64(-1)
		for _, e := range c.open {
			if w := e.ss.syncDue.Sub(now); w > 0 && !failed {
				wait = min(wait, w)
			} else {
				need = max(need, e.lsn)
			}
		}
		c.mu.Unlock()
		if w := c.due.Sub(now); need >= 0 && w > 0 {
			sleepUntil(c.due, nil) // what enlists meanwhile joins the flush
			continue
		}
		if need < 0 {
			sleepUntil(now.Add(wait), c.wake)
			continue
		}
		c.flush(now, need)
	}
}

const coarseSlack, fineStep = 1100 * time.Microsecond, 250 * time.Microsecond

// sleepUntil blocks until t, or until a value arrives on wake (nil: never).
// Runtime timers of an idle Go process wake on whole milliseconds on Linux
// (the netpoller's epoll timeout), which made a lone lockstep session's
// replies alternate between two latencies a millisecond apart, the median
// flipping between runs; so the timer takes the wait to within coarseSlack
// and fine sleeps of at most fineStep, wake checked between them, the rest.
func sleepUntil(t time.Time, wake <-chan struct{}) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		if d > coarseSlack {
			select {
			case <-wake:
				return
			case <-time.After(d - coarseSlack):
			}
			continue
		}
		sleepFine(min(d, fineStep))
		select {
		case <-wake:
			return
		default:
		}
	}
}

// advance moves a due time on by step. It counts from when the flush was
// due, not from now: a timer that fires late (a millisecond, on a kernel
// with a coarse tick) must not slow the pace. A pace that was idle keeps
// at most one step of what it did not use.
func advance(due, now time.Time, step time.Duration) time.Time {
	if idle := now.Add(-step); due.Before(idle) {
		due = idle
	}
	return due.Add(step)
}

// flush syncs the log through need at least and completes, in order,
// every enlistment the sync passed whose session was due at now; the
// others wait for a later flush, which finds them synced already. A
// failed sync fails everything enlisted: the store takes nothing more
// (ErrLogFailed), and a reply that claims durability must not rest on
// guessing what the error hit.
func (c *committer) flush(now time.Time, need int64) {
	c.due = advance(c.due, now, c.window/flushesPerWindow)
	synced, err := c.st.syncLog(need)
	syncedAt := time.Now()

	c.mu.Lock()
	c.pass++
	ready := c.ready[:0]
	kept := c.open[:0]
	sessions, frames := 0, 0
	for _, e := range c.open {
		passed := err != nil || e.lsn <= synced
		if ss := e.ss; ss.pass != c.pass && passed && (err != nil || !ss.syncDue.After(now)) {
			ss.pass, ss.syncDue = c.pass, advance(ss.syncDue, now, c.window)
			sessions++
		}
		if passed && e.ss.pass == c.pass {
			ready = append(ready, e)
			frames += e.frames
		} else {
			kept = append(kept, e)
		}
	}
	clear(c.open[len(kept):])
	c.open = kept
	c.mu.Unlock()
	if len(ready) == 0 {
		return
	}

	st := c.st
	st.mCommitFrames.Observe(float64(frames))
	st.mCommitSessions.Observe(float64(sessions))
	st.mCommitSeconds.Observe(syncedAt.Sub(ready[0].at).Seconds())
	for _, e := range ready {
		st.mEnlistedWait.Observe(syncedAt.Sub(e.at).Seconds())
		e.done(err)
	}
	clear(ready) // the completions are done with; keep only the capacity
	c.ready = ready
}
