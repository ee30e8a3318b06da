package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/fleet"
	"roboads/internal/router"
	"roboads/internal/trace"
)

// waitGaugeAtLeast polls a node's /metrics until the named series
// reaches want.
func waitGaugeAtLeast(t *testing.T, base, name string, want float64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if metricValue(t, string(body), name) >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %g on %s", name, want, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitNodeReady polls a node's /readyz until it answers 200.
func waitNodeReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	c := client.New(base)
	deadline := time.Now().Add(timeout)
	for {
		if c.Ready(context.Background()) == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready", base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMultinodeFailoverMigration is the multi-node acceptance test, all
// /v1 traffic flowing through the consistent-hash router:
//
//   - a primary with -ack-policy=follower, a -follow replica tailing its
//     WAL stream, and an independent third node form the fleet;
//   - two sessions placed (by proposed ID) on the primary drive the same
//     recorded mission; one is live-migrated to the third node mid-run
//     while the other stays as the unmigrated control;
//   - the primary is then SIGKILLed; the follower promotes and the
//     router fails traffic over;
//   - afterwards acked ≤ recovered ≤ sent must hold for the control
//     session, and both sessions' resumed timelines must be bit-for-bit
//     the uninterrupted in-process reference — which makes the migrated
//     timeline identical to the unmigrated control's.
func TestMultinodeFailoverMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("multinode e2e in -short mode")
	}
	const (
		total   = 90 // frames per session
		half    = 45 // migration point
		postMig = 60 // frames driven before the kill
	)
	frames := recordedFrames(t, 301, total)
	ref := localWireReports(t, frames)

	tmp := t.TempDir()
	// The primary acks a frame only after the follower's own
	// group-commit fsync covers it (zero acked-frame loss on SIGKILL).
	cmdP, addrP := spawnServeHelper(t, filepath.Join(tmp, "p"), filepath.Join(tmp, "p.addr"),
		32, 2*time.Millisecond, "ROBOADS_ACK_POLICY=follower")
	defer cmdP.Process.Kill()
	baseP := "http://" + addrP
	cmdF, addrF := spawnServeHelper(t, filepath.Join(tmp, "f"), filepath.Join(tmp, "f.addr"),
		32, 2*time.Millisecond, "ROBOADS_FOLLOW="+baseP, "ROBOADS_PROMOTE_AFTER=750ms")
	defer cmdF.Process.Kill()
	baseF := "http://" + addrF
	cmdN, addrN := spawnServeHelper(t, filepath.Join(tmp, "n"), filepath.Join(tmp, "n.addr"),
		32, 2*time.Millisecond)
	defer cmdN.Process.Kill()
	baseN := "http://" + addrN

	// No acks before the replication stream is up, or they would degrade
	// to local durability only and the zero-loss contract would not bind.
	waitGaugeAtLeast(t, baseP, "roboads_fleet_repl_followers", 1, 10*time.Second)

	nodes := []string{baseP, baseF, baseN}
	rt, err := router.New(router.Config{Nodes: nodes, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rsrv := httptest.NewServer(rt.Handler())
	defer rsrv.Close()
	rc := client.New(rsrv.URL)
	ctx := context.Background()

	// Propose IDs the hash places on the primary, so both sessions are
	// replicated and in the blast radius of the kill.
	var ids []string
	for i := 0; len(ids) < 2 && i < 10000; i++ {
		if id := fmt.Sprintf("mn-%04d", i); router.Rank(id, nodes)[0] == baseP {
			ids = append(ids, id)
		}
	}
	if len(ids) < 2 {
		t.Fatal("found no primary-owned session IDs")
	}
	migID, ctlID := ids[0], ids[1]
	for _, id := range []string{migID, ctlID} {
		info, err := rc.Create(ctx, api.CreateRequest{Robot: "khepera", ID: id})
		if err != nil {
			t.Fatalf("create %s through router: %v", id, err)
		}
		if info.ID != id {
			t.Fatalf("proposed ID %s, got %s", id, info.ID)
		}
		if _, err := client.New(baseP).Status(ctx, id); err != nil {
			t.Fatalf("session %s not placed on its hash owner: %v", id, err)
		}
	}

	acked := map[string]int{}
	step := func(id string, f int) {
		t.Helper()
		line, err := stepRemote(rsrv.URL, id, &frames[f])
		if err != nil {
			t.Fatalf("step %s frame %d: %v", id, f, err)
		}
		if !reflect.DeepEqual(*line.Report, ref[f]) {
			t.Fatalf("session %s: report %d diverged from reference", id, f)
		}
		acked[id]++
	}
	for f := 0; f < half; f++ {
		step(migID, f)
		step(ctlID, f)
	}

	// Live-migrate one session to the independent node, mid-mission.
	mresp, err := rc.Migrate(ctx, migID, baseN)
	if err != nil {
		t.Fatalf("migrate %s: %v", migID, err)
	}
	if mresp.FramesApplied != half {
		t.Fatalf("migration boundary at %d frames, want %d", mresp.FramesApplied, half)
	}
	// The router chases the tombstone redirect transparently.
	for f := half; f < postMig; f++ {
		step(migID, f)
		step(ctlID, f)
	}
	st, err := client.New(baseN).Status(ctx, migID)
	if err != nil {
		t.Fatalf("migrated session not live on target: %v", err)
	}
	if st.FramesApplied != postMig {
		t.Fatalf("target has %d frames of %s, want %d", st.FramesApplied, migID, postMig)
	}

	// SIGKILL the primary: no drain, no hooks. The follower promotes
	// after its silence window and the router fails over to it.
	if err := cmdP.Process.Kill(); err != nil {
		t.Fatalf("kill -9 primary: %v", err)
	}
	cmdP.Wait()
	waitNodeReady(t, baseF, 15*time.Second)

	// Durability across failover: every frame the dead primary acked is
	// on the promoted follower.
	stc, err := client.New(baseF).Status(ctx, ctlID)
	if err != nil {
		t.Fatalf("control session after failover: %v", err)
	}
	if stc.FramesApplied < acked[ctlID] || stc.FramesApplied > postMig {
		t.Fatalf("control session: recovered %d frames with %d acked, %d sent",
			stc.FramesApplied, acked[ctlID], postMig)
	}

	// Resume both sessions through the router; every continued report
	// must be bit-for-bit the reference timeline.
	for f := stc.FramesApplied; f < total; f++ {
		step(ctlID, f)
	}
	for f := postMig; f < total; f++ {
		step(migID, f)
	}
}

// TestMultinodeRoutedStreams: eight sessions stream their recorded
// missions over binary /frames streams through a router (run as `roboads
// route` runs it) in front of three durable nodes, in lockstep batches of
// four, every reply bit-for-bit the in-process reference. At half time
// every other session migrates to its next-ranked node and node 0 is
// SIGKILLed and restarted on its address and state dir; then acked ≤
// recovered ≤ sent holds and every session resumes to the end.
func TestMultinodeRoutedStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("multinode e2e in -short mode")
	}
	const sessions, total, half, batch = 8, 96, 48, 4
	missions := [][]trace.Frame{recordedFrames(t, 401, total), recordedFrames(t, 402, total)}
	refs := [][]fleet.WireReport{localWireReports(t, missions[0]), localWireReports(t, missions[1])}

	tmp := t.TempDir()
	dirs, cmds, nodes := make([]string, 3), make([]*exec.Cmd, 3), make([]string, 3)
	for i := range nodes {
		dirs[i] = filepath.Join(tmp, fmt.Sprint("node", i))
		var addr string
		cmds[i], addr = spawnServeHelper(t, dirs[i], dirs[i]+".addr", 32, 2*time.Millisecond)
		nodes[i] = "http://" + addr
	}
	defer func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	ready, routed := make(chan net.Addr, 1), make(chan error, 1)
	go func() {
		routed <- runRoute(ctx, routeOptions{addr: "127.0.0.1:0", nodes: nodes,
			healthInterval: 50 * time.Millisecond, quiet: true, onReady: func(a net.Addr) { ready <- a }})
	}()
	var rc *client.Client
	select {
	case a := <-ready:
		rc = client.New("http://" + a.String())
	case err := <-routed:
		t.Fatalf("route exited before ready: %v", err)
	}
	defer func() {
		cancel()
		if err := <-routed; err != nil {
			t.Errorf("route: %v", err)
		}
	}()

	// Propose IDs whose owners take turns over the nodes, so node 0 owns
	// sessions that stay on it and sessions that migrate away.
	var ids []string
	for i := 0; len(ids) < sessions; i++ {
		if id := fmt.Sprintf("rs-%04d", i); router.Rank(id, nodes)[0] == nodes[len(ids)%len(nodes)] {
			if _, err := rc.Create(ctx, api.CreateRequest{Robot: "khepera", ID: id}); err != nil {
				t.Fatalf("create %s through router: %v", id, err)
			}
			ids = append(ids, id)
		}
	}

	// drive streams frames [from, to) of session i through the router and
	// returns how many replies matched the reference before any failure.
	drive := func(i, from, to int) (acked int, err error) {
		stream, err := rc.Stream(ctx, ids[i], true)
		if err != nil {
			return 0, err
		}
		defer stream.Close()
		frames, ref := missions[i%2], refs[i%2]
		for f := from; f < to; f += batch {
			for g := f; g < min(f+batch, to); g++ {
				if err := stream.Send(&frames[g]); err != nil {
					return acked, err
				}
			}
			for g := f; g < min(f+batch, to); g++ {
				line, err := stream.Recv()
				if err != nil {
					return acked, err
				}
				if line.Report == nil || !reflect.DeepEqual(*line.Report, ref[g]) {
					return acked, fmt.Errorf("reply %d diverged from the reference: %+v", g, line)
				}
				acked++
			}
		}
		stream.CloseSend()
		if line, err := stream.Recv(); err != io.EOF {
			return acked, fmt.Errorf("stream end: %+v, %v", line, err)
		}
		return acked, nil
	}
	driveAll := func(from []int, to int) []int {
		acked := make([]int, sessions)
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				if acked[i], err = drive(i, from[i], to); err != nil {
					t.Errorf("session %s, frames %d..%d: %v", ids[i], from[i], to, err)
				}
			}(i)
		}
		if wg.Wait(); t.Failed() {
			t.FailNow()
		}
		return acked
	}

	acked := driveAll(make([]int, sessions), half)
	for i := 0; i < sessions; i += 2 {
		if mr, err := rc.Migrate(ctx, ids[i], router.Rank(ids[i], nodes)[1]); err != nil || mr.FramesApplied != half {
			t.Fatalf("migrate %s to its next-ranked node: %+v, %v", ids[i], mr, err)
		}
	}
	cmds[0].Process.Kill()
	cmds[0].Wait()
	cmds[0], _ = spawnServeHelper(t, dirs[0], dirs[0]+".addr", 32, 2*time.Millisecond,
		"ROBOADS_ADDR="+strings.TrimPrefix(nodes[0], "http://"))

	// Only our eight IDs were ever created, so eight distinct listed IDs
	// are ours, each listed once.
	listed := map[string]int{}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		list, err := rc.List(ctx)
		clear(listed)
		for _, st := range list {
			listed[st.ID] = st.FramesApplied
		}
		if err == nil && len(list) == sessions && len(listed) == sessions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router lists %d sessions, want %d (err %v)", len(list), sessions, err)
		}
	}
	recovered := make([]int, sessions)
	for i, id := range ids {
		if recovered[i] = listed[id]; recovered[i] < acked[i] || recovered[i] > half {
			t.Fatalf("session %s: recovered %d frames with %d acked, %d sent", id, recovered[i], acked[i], half)
		}
	}
	driveAll(recovered, total)
}
