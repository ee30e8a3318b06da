package fleet

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors of the fleet API. Callers match them with errors.Is;
// every error returned by Manager wraps exactly one of these (or is a
// build error from the session Builder, returned verbatim by Create).
var (
	// ErrSessionNotFound reports an unknown, closed, or evicted session
	// ID. A client holding a session that was idle-evicted sees this on
	// its next frame and must create a new session.
	ErrSessionNotFound = errors.New("fleet: session not found")
	// ErrBackpressure reports a full per-session frame queue. The
	// concrete error is a *BackpressureError carrying a retry hint; the
	// frame was NOT accepted and the caller must resubmit it.
	ErrBackpressure = errors.New("fleet: frame queue full")
	// ErrClosed reports a manager that is draining or shut down, or a
	// session closed while frames were still queued behind it.
	ErrClosed = errors.New("fleet: closed")
	// ErrTooManySessions reports the MaxSessions cap; the client should
	// retry creation later or close sessions it no longer needs.
	ErrTooManySessions = errors.New("fleet: session limit reached")
	// ErrDurabilityDisabled reports a checkpoint or restore request on a
	// manager running without Config.Durability.
	ErrDurabilityDisabled = errors.New("fleet: durability not enabled")
	// ErrSessionLive reports a restore request for a session that is
	// already live; there is nothing to restore.
	ErrSessionLive = errors.New("fleet: session already live")
	// ErrMigrating reports a frame or control call that raced a live
	// migration: the session is draining for export. The frame was NOT
	// accepted; retry shortly and be prepared for ErrMoved.
	ErrMigrating = errors.New("fleet: session migrating")
	// ErrStepPanic reports a frame whose session stepper panicked, or
	// that was queued behind it in the same job. The panic is contained
	// to the session: it is torn down (a durable one keeps its persisted
	// state, so it can be restored from its acknowledged frames) and
	// every other session carries on.
	ErrStepPanic = errors.New("fleet: session stepper panicked")
	// ErrMoved reports a session that migrated to another node. The
	// concrete error is a *MovedError carrying the target's base URL;
	// errors.As recovers it.
	ErrMoved = errors.New("fleet: session moved")
)

// BackpressureError is the concrete rejection returned when a session's
// frame queue is full. errors.Is(err, ErrBackpressure) matches it;
// errors.As recovers the retry hint.
type BackpressureError struct {
	// SessionID is the session whose queue overflowed.
	SessionID string
	// RetryAfter is the suggested wait before resubmitting the frame
	// (Config.RetryAfter). The HTTP layer maps it to a Retry-After
	// header on a 429 response.
	RetryAfter time.Duration
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("fleet: session %s frame queue full (retry after %v)", e.SessionID, e.RetryAfter)
}

// Is makes errors.Is(err, ErrBackpressure) true for any BackpressureError.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// MovedError is the concrete rejection for a session that live-migrated
// off this node. The tombstone it reads from survives until the node
// restarts; the router chases the redirect transparently, and direct
// clients should re-resolve placement at Target.
type MovedError struct {
	// SessionID is the migrated session.
	SessionID string
	// Target is the base URL of the node now hosting it.
	Target string
}

// Error implements error.
func (e *MovedError) Error() string {
	return fmt.Sprintf("fleet: session %s moved to %s", e.SessionID, e.Target)
}

// Is makes errors.Is(err, ErrMoved) true for any MovedError.
func (e *MovedError) Is(target error) bool { return target == ErrMoved }
