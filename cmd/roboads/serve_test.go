package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"

	"roboads/client"
	"roboads/internal/attack"
	"roboads/internal/fleet"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// scrape fetches a path from the serve endpoint and returns the body.
func scrape(t *testing.T, addr net.Addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of an exact (unlabeled) series from a
// Prometheus text exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %s value %q: %v", name, m[1], err)
	}
	return v
}

// streamFrames sends frames to session id over one binary /frames
// stream, 16 at a time, and returns the reports in order.
func streamFrames(base, id string, frames []trace.Frame) ([]fleet.WireReport, error) {
	stream, err := client.New(base).Stream(context.Background(), id, true)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	var reps []fleet.WireReport
	for f := 0; f < len(frames); f += 16 {
		to := min(f+16, len(frames))
		for g := f; g < to; g++ {
			if err := stream.Send(&frames[g]); err != nil {
				return nil, err
			}
		}
		for g := f; g < to; g++ {
			line, err := stream.Recv()
			if err != nil {
				return nil, err
			}
			if line.Report == nil {
				return nil, fmt.Errorf("frame %d: %s", line.K, line.Error)
			}
			reps = append(reps, *line.Report)
		}
	}
	stream.CloseSend()
	if line, err := stream.Recv(); err != io.EOF {
		return nil, fmt.Errorf("stream end: %+v, %v", line, err)
	}
	return reps, nil
}

// alarmEdges adds to edges[kind][to] (kind 0 sensor, 1 actuator; to 0
// off, 1 on) the confirmed-alarm transitions of a reply stream whose
// alarms stood at wasSensor and wasActuator before its first reply.
func alarmEdges(edges *[2][2]int, reps []fleet.WireReport, wasSensor, wasActuator bool) {
	b2i := map[bool]int{false: 0, true: 1}
	for _, r := range reps {
		if r.SensorAlarm != wasSensor {
			edges[0][b2i[r.SensorAlarm]]++
		}
		if r.ActuatorAlarm != wasActuator {
			edges[1][b2i[r.ActuatorAlarm]]++
		}
		wasSensor, wasActuator = r.SensorAlarm, r.ActuatorAlarm
	}
}

// requireAlarmEdges checks a node's alarm-edge counters against edges.
func requireAlarmEdges(t *testing.T, exposition string, edges [2][2]int) {
	t.Helper()
	for kind, k := range []string{"sensor", "actuator"} {
		for to, o := range []string{"off", "on"} {
			name := telemetry.MetricAlarmEdges + `{kind="` + k + `",to="` + o + `"}`
			if got := metricValue(t, exposition, name); got != float64(edges[kind][to]) {
				t.Errorf("%s = %g, the replies show %d", name, got, edges[kind][to])
			}
		}
	}
}

// The fleet's own sessions feed the engine and decision series: three
// sessions stream attacked missions over binary /frames to a fleet-only
// node, their replies are the local detector's bit for bit, every step
// and decision is counted once, and the alarm-edge counters equal the
// transitions the replies show.
func TestServeFleetFeedsDetectorSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet missions in -short mode")
	}
	// IPS spoofing (Table II #4) moves the selector off the IPS
	// reference and raises a sensor alarm; the wheel controller logic
	// bomb (#1) raises an actuator alarm.
	ips, wheel := attack.KheperaScenarios()[3], attack.KheperaScenarios()[0]
	missions := [][]trace.Frame{scenarioFrames(t, ips, 11, 1<<20), scenarioFrames(t, ips, 12, 1<<20),
		scenarioFrames(t, wheel, 13, 1<<20)}
	addr, stop := startFleetServer(t, serveOptions{})
	base := "http://" + addr.String()

	var wg sync.WaitGroup
	replies := make([][]fleet.WireReport, len(missions))
	errs := make([]error, len(missions))
	for i, frames := range missions {
		id := createFleetSession(t, base, "khepera").ID
		wg.Add(1)
		go func(i int, frames []trace.Frame) {
			defer wg.Done()
			replies[i], errs[i] = streamFrames(base, id, frames)
		}(i, frames)
	}
	wg.Wait()
	var edges [2][2]int
	total := 0
	for i, frames := range missions {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(replies[i], localWireReports(t, frames)) {
			t.Fatalf("session %d: replies diverged from the local detector", i)
		}
		alarmEdges(&edges, replies[i], false, false)
		total += len(frames)
	}
	if edges[0][1] == 0 || edges[1][1] == 0 {
		t.Fatalf("the missions raised no sensor or no actuator alarm: %v", edges)
	}

	exposition := scrape(t, addr, "/metrics")
	for _, name := range []string{telemetry.MetricStepsTotal, telemetry.MetricDecisionsTotal,
		telemetry.MetricStepSeconds + "_count", fleet.MetricFrames} {
		if got := metricValue(t, exposition, name); got != float64(total) {
			t.Errorf("%s = %g, want the %d frames sent", name, got, total)
		}
	}
	if metricValue(t, exposition, telemetry.MetricModeSwitches) == 0 {
		t.Errorf("%s = 0 after IPS spoofing missions", telemetry.MetricModeSwitches)
	}
	requireAlarmEdges(t, exposition, edges)
	t.Logf("%d frames, alarm edges [sensor, actuator][off, on] = %v", total, edges)
	if err := stop(); err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
}

// A durable session restored from a snapshot taken while its sensor
// alarm is on counts no edge its replies do not show: the decider's
// restored windows, not a fresh observer, hold the alarm it resumes
// with.
func TestServeFleetRestoredSessionCountsOwnEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet missions in -short mode")
	}
	frames := scenarioFrames(t, attack.KheperaScenarios()[3], 11, 1<<20)
	ref := localWireReports(t, frames)
	cut := slices.IndexFunc(ref, func(r fleet.WireReport) bool { return r.SensorAlarm }) + 1
	if cut == 0 || cut == len(frames) {
		t.Fatal("the mission raises no sensor alarm before its last frame")
	}
	dir := t.TempDir()

	addr, stop := startFleetServer(t, serveOptions{stateDir: dir})
	base := "http://" + addr.String()
	id := createFleetSession(t, base, "khepera").ID
	if _, err := streamFrames(base, id, frames[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // the drain snapshots the session mid-alarm
		t.Fatalf("serve shutdown: %v", err)
	}

	addr, stop = startFleetServer(t, serveOptions{stateDir: dir})
	reps, err := streamFrames("http://"+addr.String(), id, frames[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps, ref[cut:]) {
		t.Fatal("the restored session's replies diverged from the uninterrupted run")
	}
	var edges [2][2]int
	alarmEdges(&edges, reps, ref[cut-1].SensorAlarm, ref[cut-1].ActuatorAlarm)
	exposition := scrape(t, addr, "/metrics")
	if got := metricValue(t, exposition, telemetry.MetricStepsTotal); got != float64(len(reps)) {
		t.Errorf("%s = %g, want the %d frames sent after the restore", telemetry.MetricStepsTotal, got, len(reps))
	}
	requireAlarmEdges(t, exposition, edges)
	t.Logf("restored at frame %d of %d, alarm edges after it = %v", cut, len(frames), edges)
	if err := stop(); err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
}

// The -telemetry flag on run exposes the surface for the command's
// duration; a bad address fails fast.
func TestAttachTelemetry(t *testing.T) {
	tel, shutdown, err := attachTelemetry("")
	if err != nil || tel != nil {
		t.Fatalf("disabled: tel=%v err=%v", tel, err)
	}
	shutdown()

	tel, shutdown, err = attachTelemetry("127.0.0.1:0")
	if err != nil || tel == nil {
		t.Fatalf("enabled: tel=%v err=%v", tel, err)
	}
	shutdown()

	if _, _, err = attachTelemetry("256.0.0.1:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
}
