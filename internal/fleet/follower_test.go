package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/api"
	"roboads/internal/trace"
)

// fakePrimary serves handler as a primary and returns a follower of it.
func fakePrimary(t *testing.T, promoteAfter time.Duration, handler http.HandlerFunc) *Follower {
	m, err := NewManager(Config{Build: DefaultBuilder()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	primary := httptest.NewServer(handler)
	t.Cleanup(primary.Close)
	return &Follower{Manager: m, Primary: primary.URL, PromoteAfter: promoteAfter}
}

// TestFollowerReconnectsLeakNoReader drives a follower against a fake
// primary that ships more frame records than the reader's buffer holds,
// for a session the follower lacks: every stream ends in an apply error
// and a reconnect. The reader of each abandoned stream must exit with
// it, so once Run returns the goroutine count is back where it started.
func TestFollowerReconnectsLeakNoReader(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streams atomic.Int64
	f := fakePrimary(t, 10*time.Second, func(w http.ResponseWriter, r *http.Request) {
		if streams.Add(1) == 20 {
			cancel()
		}
		w.Header().Set("Content-Type", api.ContentTypeNDJSON)
		enc := json.NewEncoder(w)
		for seq := 1; seq <= 300; seq++ {
			enc.Encode(api.ReplRecord{Type: "frame", Session: "s-absent", Seq: seq, Frame: &trace.Frame{K: seq - 1}})
		}
	})
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("follower opened %d streams in 10s, want 20", streams.Load())
	}
	for settle := time.Now().Add(5 * time.Second); time.Now().Before(settle); time.Sleep(10 * time.Millisecond) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
	}
	t.Fatalf("%d goroutines after %d streams, %d before: stream readers leaked",
		runtime.NumGoroutine(), streams.Load(), before)
}

// TestFollowerPromotesOnSilentOpenStream: a primary that pings 50 ms after
// the open and then holds the connection open in silence, as a frozen or
// partitioned one does, is promoted over once PromoteAfter has passed
// since the ping (the window the open started ends earlier).
func TestFollowerPromotesOnSilentOpenStream(t *testing.T) {
	release := make(chan struct{}) // the server never sees the follower hang up
	f := fakePrimary(t, 200*time.Millisecond, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.ContentTypeNDJSON)
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
		json.NewEncoder(w).Encode(api.ReplRecord{Type: "ping"})
		w.(http.Flusher).Flush()
		<-release
	})
	t.Cleanup(func() { close(release) })
	done := make(chan error, 1)
	go func() { done <- f.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil (promote)", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower did not promote within 2s of a silent primary (PromoteAfter 200ms)")
	}
}
