package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/fleet"
	"roboads/internal/trace"
)

// TestServeHelperProcess is not a test: it is the child body of the
// crash-recovery e2e. The parent re-execs this test binary with
// ROBOADS_SERVE_HELPER=1 to get a real separate process it can kill -9;
// in a normal test run the env var is unset and this skips immediately.
func TestServeHelperProcess(t *testing.T) {
	if os.Getenv("ROBOADS_SERVE_HELPER") != "1" {
		t.Skip("helper process body, not a test")
	}
	snapEvery, _ := strconv.Atoi(os.Getenv("ROBOADS_SNAPSHOT_EVERY"))
	commitWindow, _ := time.ParseDuration(os.Getenv("ROBOADS_COMMIT_WINDOW"))
	promoteAfter, _ := time.ParseDuration(os.Getenv("ROBOADS_PROMOTE_AFTER"))
	addrFile := os.Getenv("ROBOADS_ADDR_FILE")
	err := serveScenario(context.Background(), serveOptions{
		addr:          "127.0.0.1:0",
		scenarioID:    -1,
		quiet:         os.Getenv("ROBOADS_HELPER_VERBOSE") != "1",
		stateDir:      os.Getenv("ROBOADS_STATE_DIR"),
		snapshotEvery: snapEvery,
		commitWindow:  commitWindow,
		follow:        os.Getenv("ROBOADS_FOLLOW"),
		ackPolicy:     cmp.Or(os.Getenv("ROBOADS_ACK_POLICY"), "primary"),
		promoteAfter:  promoteAfter,
		onReady: func(a net.Addr) {
			// Atomic publish: the parent polls for this file.
			tmp := addrFile + ".tmp"
			os.WriteFile(tmp, []byte(a.String()), 0o644)
			os.Rename(tmp, addrFile)
		},
	})
	// Reached only if the context ends or serve fails — the parent
	// kills this process, so any exit here is a startup failure.
	t.Fatalf("helper serve exited: %v", err)
}

// spawnServeHelper starts the helper process and waits for its bound
// address. The returned process is running until explicitly killed.
// extraEnv entries ("KEY=value") layer additional serve options on —
// ROBOADS_FOLLOW, ROBOADS_ACK_POLICY, ROBOADS_PROMOTE_AFTER.
func spawnServeHelper(t *testing.T, stateDir, addrFile string, snapshotEvery int, commitWindow time.Duration, extraEnv ...string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run", "TestServeHelperProcess$")
	cmd.Env = append(os.Environ(),
		"ROBOADS_SERVE_HELPER=1",
		"ROBOADS_STATE_DIR="+stateDir,
		"ROBOADS_ADDR_FILE="+addrFile,
		"ROBOADS_SNAPSHOT_EVERY="+strconv.Itoa(snapshotEvery),
		"ROBOADS_COMMIT_WINDOW="+commitWindow.String(),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn helper: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, string(data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("helper never published its address")
	return nil, ""
}

// checkpointRemote forces a snapshot and returns its applied count.
func checkpointRemote(base, id string) (fleet.CheckpointInfo, error) {
	resp, err := http.Post(base+"/v1/sessions/"+id+"/checkpoint", "application/json", nil)
	if err != nil {
		return fleet.CheckpointInfo{}, err
	}
	defer resp.Body.Close()
	var info fleet.CheckpointInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fleet.CheckpointInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return fleet.CheckpointInfo{}, fmt.Errorf("checkpoint %s: HTTP %d", id, resp.StatusCode)
	}
	return info, nil
}

// TestServeCrashRecovery is the durability acceptance test: a live
// `roboads serve -state-dir` process is killed with SIGKILL mid-stream
// across many sessions, restarted on the same state directory, and every
// session's continued report stream must be bit-for-bit the uninterrupted
// in-process run — every frame the dead server acknowledged is there,
// and the tail resumes at exactly the recovered frame count.
//
// Session count defaults to 4; `make crashsoak` raises it to 32 via
// ROBOADS_CRASH_SESSIONS and runs under -race.
//
// The test runs twice: at the default commit window (no pace; the
// subtest keeps the name it had when that meant an inline fsync per
// frame) and at 2 ms, whose wider crash window (unacked frames in a
// pending commit batch die with the process) must still never lose an
// acknowledged frame: acked ≤ recovered ≤ sent holds at both.
func TestServeCrashRecovery(t *testing.T) {
	t.Run("fsync-per-frame", func(t *testing.T) { testServeCrashRecovery(t, 0) })
	t.Run("group-commit", func(t *testing.T) { testServeCrashRecovery(t, 2*time.Millisecond) })
}

func testServeCrashRecovery(t *testing.T, commitWindow time.Duration) {
	if testing.Short() {
		t.Skip("crash e2e in -short mode")
	}
	sessions := 4
	if env := os.Getenv("ROBOADS_CRASH_SESSIONS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad ROBOADS_CRASH_SESSIONS=%q", env)
		}
		sessions = n
	}
	const total = 90
	seeds := []int64{201, 202, 203, 204}
	frameSets := make([][]trace.Frame, len(seeds))
	references := make([][]fleet.WireReport, len(seeds))
	for i, seed := range seeds {
		frameSets[i] = recordedFrames(t, seed, total)
		references[i] = localWireReports(t, frameSets[i])
	}

	stateDir := filepath.Join(t.TempDir(), "state")
	addrFile := filepath.Join(t.TempDir(), "addr")
	// SnapshotEvery 32 < total frames, so recovery exercises both the
	// snapshot load and a non-empty WAL-tail replay.
	cmd1, addr1 := spawnServeHelper(t, stateDir, addrFile, 32, commitWindow)
	defer cmd1.Process.Kill()
	base1 := "http://" + addr1

	ids := make([]fleet.SessionInfo, sessions)
	for i := range ids {
		ids[i] = createFleetSession(t, base1, "khepera")
	}

	// Stream frames to every session concurrently; the main goroutine
	// SIGKILLs the server mid-flight. Replies received before the kill
	// are acknowledged frames — the recovery contract says none of them
	// may be lost.
	var progress atomic.Int64
	var wg sync.WaitGroup
	acked := make([][]fleet.WireReport, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames := frameSets[i%len(seeds)]
			for f := range frames {
				line, err := stepRemote(base1, ids[i].ID, &frames[f])
				if err != nil {
					return // server died mid-stream: expected
				}
				acked[i] = append(acked[i], *line.Report)
				progress.Add(1)
			}
		}(i)
	}
	// Kill once the fleet is mid-mission (past the first snapshot
	// cadence on average), without waiting for any clean boundary.
	killAt := int64(sessions) * 45
	for progress.Load() < killAt {
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL: no shutdown hooks run
		t.Fatalf("kill -9: %v", err)
	}
	wg.Wait()
	cmd1.Wait()

	// Restart on the same state directory.
	cmd2, addr2 := spawnServeHelper(t, stateDir, addrFile, 32, commitWindow)
	defer cmd2.Process.Kill()
	base2 := "http://" + addr2

	host, port, err := net.SplitHostPort(addr2)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.ResolveTCPAddr("tcp", net.JoinHostPort(host, port))
	if err != nil {
		t.Fatal(err)
	}
	if rec := metricValue(t, scrape(t, tcp, "/metrics"), "roboads_store_recovered_sessions"); rec != float64(sessions) {
		t.Fatalf("recovered_sessions = %g, want %d", rec, sessions)
	}

	for i := 0; i < sessions; i++ {
		id := ids[i].ID
		ref := references[i%len(seeds)]
		frames := frameSets[i%len(seeds)]

		// Every acknowledged reply must be a prefix of the reference.
		if n := len(acked[i]); !reflect.DeepEqual(acked[i], ref[:n]) {
			t.Fatalf("session %s: pre-crash replies diverged from reference", id)
		}
		// The checkpoint reports how far the recovered session got; the
		// reply-after-fsync contract requires it to cover every ack.
		ci, err := checkpointRemote(base2, id)
		if err != nil {
			t.Fatalf("session %s: %v", id, err)
		}
		if ci.FramesApplied < len(acked[i]) {
			t.Fatalf("session %s: recovered %d frames but %d were acknowledged",
				id, ci.FramesApplied, len(acked[i]))
		}
		if ci.FramesApplied > len(frames) {
			t.Fatalf("session %s: recovered %d frames, only %d were ever sent",
				id, ci.FramesApplied, len(frames))
		}
		// Resume from the recovered frame count: the continued stream
		// must be bit-for-bit the uninterrupted run's tail.
		for f := ci.FramesApplied; f < len(frames); f++ {
			line, err := stepRemote(base2, id, &frames[f])
			if err != nil {
				t.Fatalf("session %s resume frame %d: %v", id, f, err)
			}
			if !reflect.DeepEqual(*line.Report, ref[f]) {
				t.Fatalf("session %s: post-recovery report %d diverged from reference", id, f)
			}
		}
	}
	cmd2.Process.Kill()
	cmd2.Wait()
}
