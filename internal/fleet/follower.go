package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/mat"
	"roboads/internal/trace"
)

// Follower tails a primary node's replication stream into a local
// Manager: snapshots install whole sessions, frame records step through
// the local detectors and WAL (so the follower's durable state tracks
// the primary's bit-for-bit), and each application is acked back after
// the local group-commit fsync — the ack AckFollower primaries wait on.
// When the primary goes silent past PromoteAfter, Run returns nil: the
// follower's Manager holds every acked frame and the caller promotes it
// to serving.
type Follower struct {
	// Manager is the local manager replicated into. It must be durable
	// and should run AckPrimary (its own acks gate nothing downstream).
	Manager *Manager
	// Primary is the primary node's base URL.
	Primary string
	// PromoteAfter is how long the primary may be silent (no records, no
	// pings, no reconnect) before the follower promotes. Default 2s.
	PromoteAfter time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (f *Follower) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// Run replicates until ctx ends (returning ctx.Err()) or the primary is
// presumed dead (returning nil — promote). Reconnects are automatic;
// every reconnect re-announces the follower's durable cursors, so no
// record is ever applied twice and no gap survives.
func (f *Follower) Run(ctx context.Context) error {
	promoteAfter := f.PromoteAfter
	if promoteAfter <= 0 {
		promoteAfter = 2 * time.Second
	}
	// A reconnect attempt that wedges against a half-dead primary (TCP
	// connects, headers never come) must fail within the promotion
	// window, or the silence check below would never run again.
	c := client.New(f.Primary, client.WithHeaderTimeout(promoteAfter))
	lastContact := time.Now()
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Since(lastContact) > promoteAfter {
			f.logf("follower: primary %s silent for %v, promoting", f.Primary, promoteAfter)
			return nil
		}
		stream, err := c.Replicate(ctx, f.cursors())
		if err != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		lastContact = time.Now()
		err = f.consume(ctx, stream, promoteAfter, &lastContact)
		stream.Close()
		if err != nil && ctx.Err() == nil {
			f.logf("follower: stream from %s ended: %v", f.Primary, err)
		}
	}
}

// cursors reports the follower's durable position per live session —
// the hello of the next replication stream.
func (f *Follower) cursors() map[string]int {
	out := make(map[string]int)
	for _, st := range f.Manager.Sessions() {
		out[st.ID] = st.FramesApplied
	}
	return out
}

// consume applies one stream's records until it breaks or goes silent.
// A nil return means silence (promotion candidate — the caller's timer
// decides); any apply error tears the stream down for a clean reconnect
// from true durable cursors.
func (f *Follower) consume(ctx context.Context, stream *client.ReplStream, promoteAfter time.Duration, lastContact *time.Time) error {
	type recvResult struct {
		rec api.ReplRecord
		err error
	}
	recv := make(chan recvResult, 64)
	// Closed when consume returns, so no reader outlives its stream.
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			rec, err := stream.Recv()
			select {
			case recv <- recvResult{rec, err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	// One silence timer per stream. A wait for the next record lasts
	// promoteAfter from waitStart; a timer armed for an earlier wait is
	// re-armed, once it has fired, for the rest of the current one.
	idle := time.NewTimer(promoteAfter)
	defer idle.Stop()
	waitStart := time.Now()
	var pending *api.ReplRecord
	for {
		var rec api.ReplRecord
		if pending != nil {
			rec, pending = *pending, nil
		} else {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case r := <-recv:
				if r.err != nil {
					if errors.Is(r.err, io.EOF) {
						return nil
					}
					return r.err
				}
				rec = r.rec
			case <-idle.C:
				if rest := promoteAfter - time.Since(waitStart); rest > 0 {
					idle.Reset(rest)
					continue
				}
				return nil
			}
		}
		*lastContact = time.Now()
		switch rec.Type {
		case "ping":
		case "sessions":
			f.prune(rec.Sessions)
		case "snapshot":
			// The shipped state replaces any local copy, whose state on
			// disk goes with it.
			f.Manager.Close(rec.Session)
			if _, err := f.Manager.ImportSession(rec.Snapshot, nil); err != nil {
				return fmt.Errorf("apply snapshot %s@%d: %w", rec.Session, rec.Seq, err)
			}
			stream.Ack(rec.Session, rec.Seq)
		case "frame":
			// Greedily coalesce already-received frame records of the same
			// session into one batch: one queue admission, one group
			// commit, one ack.
			frames := []*trace.Frame{rec.Frame}
			last := rec.Seq
			var streamErr error
			for len(frames) < f.Manager.cfg.MaxBatch && streamErr == nil && len(recv) > 0 {
				r := <-recv // this goroutine is recv's one receiver: never blocks
				if r.err != nil {
					// Apply what we have, then surface the break below.
					streamErr = r.err
					break
				}
				if r.rec.Type != "frame" || r.rec.Session != rec.Session || r.rec.Seq != last+1 {
					pending = &r.rec
					break
				}
				frames = append(frames, r.rec.Frame)
				last = r.rec.Seq
			}
			if err := f.apply(ctx, rec.Session, frames); err != nil {
				return fmt.Errorf("apply frames %s@%d..%d: %w", rec.Session, rec.Seq, last, err)
			}
			stream.Ack(rec.Session, last)
			if streamErr != nil {
				if errors.Is(streamErr, io.EOF) {
					return nil
				}
				return streamErr
			}
		}
		waitStart = time.Now()
	}
}

// apply steps a run of replicated frames through the local session. The
// batch reply arrives only after the local WAL commit barrier
// (reply-after-fsync), so a sent ack certifies durability. Backpressure
// is waited out — replication must not drop frames.
func (f *Follower) apply(ctx context.Context, id string, frames []*trace.Frame) error {
	batch := make([]BatchFrame, len(frames))
	for i, fr := range frames {
		batch[i] = BatchFrame{U: mat.Vec(fr.U), Readings: frameReadings(fr)}
	}
	results, err := f.Manager.submitWait(ctx, id, batch, true)
	if err != nil {
		return err
	}
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("frame %d: %w", frames[i].K, res.Err)
		}
	}
	return nil
}

// prune closes local sessions the primary no longer has (deleted or
// migrated away), discarding their local state.
func (f *Follower) prune(primary []string) {
	keep := make(map[string]bool, len(primary))
	for _, id := range primary {
		keep[id] = true
	}
	for _, st := range f.Manager.Sessions() {
		if !keep[st.ID] {
			f.logf("follower: pruning session %s (gone on primary)", st.ID)
			f.Manager.Close(st.ID)
		}
	}
}
