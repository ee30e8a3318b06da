package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"roboads/internal/attack"
	"roboads/internal/fleet"
	"roboads/internal/mat"
	"roboads/internal/sim"
	"roboads/internal/trace"
)

// startFleetServer runs serveNode and returns its bound address plus a
// stop func that cancels it and waits for the drain.
func startFleetServer(t *testing.T, opts serveOptions) (net.Addr, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	opts.quiet = true
	opts.onReady = func(a net.Addr) { ready <- a }
	if opts.addr == "" {
		opts.addr = "127.0.0.1:0"
	}
	go func() { done <- serveNode(ctx, opts) }()
	select {
	case addr := <-ready:
		return addr, func() error {
			cancel()
			select {
			case err := <-done:
				return err
			case <-time.After(30 * time.Second):
				return fmt.Errorf("serve did not stop after cancel")
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("timed out waiting for serve to bind")
	}
	return nil, nil
}

// recordedFrames runs a clean Khepera mission and returns its first n
// frames.
func recordedFrames(t *testing.T, seed int64, n int) []trace.Frame {
	t.Helper()
	return scenarioFrames(t, attack.CleanScenario(), seed, n)
}

// scenarioFrames runs a Khepera mission under scenario and returns its
// first n frames.
func scenarioFrames(t *testing.T, scenario attack.Scenario, seed int64, n int) []trace.Frame {
	t.Helper()
	setup, err := sim.NewKhepera(sim.LabMission(), &scenario, seed)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]trace.Frame, 0, n)
	for len(frames) < n {
		rec, err := setup.Sim.Step()
		if err != nil {
			break
		}
		frame := trace.Frame{K: rec.K, U: rec.UPlanned, Readings: make(map[string][]float64, len(rec.Readings))}
		for name, z := range rec.Readings {
			frame.Readings[name] = z
		}
		frames = append(frames, frame)
		if rec.Done {
			break
		}
	}
	return frames
}

// localWireReports steps frames through the fleet's own builder
// in-process — the reference the live server must match bit-for-bit.
func localWireReports(t *testing.T, frames []trace.Frame) []fleet.WireReport {
	t.Helper()
	stepper, _, err := fleet.DefaultBuilder()(fleet.Spec{Robot: "khepera"})
	if err != nil {
		t.Fatal(err)
	}
	defer stepper.Close()
	var out []fleet.WireReport
	for _, frame := range frames {
		readings := make(map[string]mat.Vec, len(frame.Readings))
		for name, z := range frame.Readings {
			readings[name] = z
		}
		rep, err := stepper.StepContext(context.Background(), frame.U, readings)
		if err != nil {
			t.Fatalf("local step k=%d: %v", frame.K, err)
		}
		out = append(out, fleet.NewWireReport(rep))
	}
	// Round-trip through JSON once, as the remote reports did.
	buf, _ := json.Marshal(out)
	var wire []fleet.WireReport
	if err := json.Unmarshal(buf, &wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

func createFleetSession(t *testing.T, base, robot string) fleet.SessionInfo {
	t.Helper()
	info, err := createRemoteSession(base, robot)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestServeFleetConcurrentSessions is the service acceptance test: a
// live `roboads serve` sustains 32 concurrent sessions whose streamed
// reports are bit-for-bit the in-process runs, /metrics carries the
// fleet gauges, and shutdown drains cleanly.
func TestServeFleetConcurrentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak in -short mode")
	}
	const sessions = 32
	const perSession = 12
	seeds := []int64{101, 102, 103, 104}
	frameSets := make([][]trace.Frame, len(seeds))
	references := make([][]fleet.WireReport, len(seeds))
	for i, seed := range seeds {
		frameSets[i] = recordedFrames(t, seed, perSession)
		references[i] = localWireReports(t, frameSets[i])
	}

	addr, stop := startFleetServer(t, serveOptions{})
	base := "http://" + addr.String()

	ids := make([]fleet.SessionInfo, sessions)
	for i := range ids {
		ids[i] = createFleetSession(t, base, "khepera")
	}
	live := metricValue(t, scrape(t, addr, "/metrics"), fleet.MetricSessionsLive)
	if live != sessions {
		t.Fatalf("%s = %g, want %d", fleet.MetricSessionsLive, live, sessions)
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	got := make([][]fleet.WireReport, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames := frameSets[i%len(seeds)]
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, frame := range frames {
				enc.Encode(frame)
			}
			resp, err := http.Post(base+"/v1/sessions/"+ids[i].ID+"/frames", "application/x-ndjson", &body)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			for sc.Scan() {
				var line fleet.ReplyLine
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					errs[i] = err
					return
				}
				if line.Error != "" || line.Report == nil {
					errs[i] = fmt.Errorf("frame %d: %s", line.K, line.Error)
					return
				}
				got[i] = append(got[i], *line.Report)
			}
			errs[i] = sc.Err()
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], references[i%len(seeds)]) {
			t.Fatalf("session %d: remote reports diverged from in-process run", i)
		}
	}

	exposition := scrape(t, addr, "/metrics")
	if frames := metricValue(t, exposition, fleet.MetricFrames); frames < sessions*perSession {
		t.Fatalf("%s = %g, want >= %d", fleet.MetricFrames, frames, sessions*perSession)
	}
	for _, name := range []string{fleet.MetricSessionsLive, fleet.MetricQueueDepth,
		fleet.MetricEvictions, fleet.MetricRejectedFrames} {
		if !strings.Contains(exposition, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
}

// TestReplayRemoteRoundTrip records a short trace, serves a fleet, and
// replays the trace remotely; the client itself verifies one report per
// frame arrived.
func TestReplayRemoteRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("remote replay in -short mode")
	}
	frames := recordedFrames(t, 77, 25)
	path := filepath.Join(t.TempDir(), "mission.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(f, trace.Header{Robot: "khepera", Dt: sim.KheperaDt,
		Sensors: []string{"ips", "wheel-encoder", "lidar"}})
	for _, frame := range frames {
		readings := make(map[string]mat.Vec, len(frame.Readings))
		for name, z := range frame.Readings {
			readings[name] = z
		}
		if err := rec.Record(frame.K, frame.U, readings); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addr, stop := startFleetServer(t, serveOptions{})
	// Both wire formats must round-trip; the binary wire is the default.
	for _, wire := range []string{"json", "binary"} {
		if err := replayRemote(path, addr.String(), wire); err != nil {
			t.Fatalf("replay -remote (%s wire): %v", wire, err)
		}
	}
	// The replayed session was deleted by the client; the fleet is empty.
	if live := metricValue(t, scrape(t, addr, "/metrics"), fleet.MetricSessionsLive); live != 0 {
		t.Fatalf("%s = %g after remote replay, want 0", fleet.MetricSessionsLive, live)
	}
	if err := stop(); err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
}
