package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/robot"
	"roboads/internal/scenario"
)

// Run the clean Table II scenario (S0) with telemetry attached and check
// the core metric inventory: per-step series accumulate, the decision
// counters track the trace length, and — the PR-2 regression sentinel —
// the Jacobi fallback counter stays at zero across a healthy mission.
func TestCleanScenarioMetrics(t *testing.T) {
	tel := New(Options{})
	ecfg := core.DefaultEngineConfig()
	ecfg.Observer = tel
	cfg := detect.DefaultConfig()
	cfg.Observer = tel

	run, err := scenario.RunMission("khepera", "lab", attack.CleanScenario(), 3, scenario.MaxIterations,
		func(p robot.Profile) (*detect.Detector, error) { return p.NewDetector(ecfg, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	steps := int64(len(run.Trace))
	if steps == 0 {
		t.Fatal("empty run")
	}

	reg := tel.Registry()
	if got := reg.CounterValue(MetricStepsTotal); got != steps {
		t.Fatalf("steps_total = %d, want %d", got, steps)
	}
	if got := reg.CounterValue(MetricDecisionsTotal); got != steps {
		t.Fatalf("decisions_total = %d, want %d", got, steps)
	}
	if got := reg.HistogramCount(MetricStepSeconds); got != steps {
		t.Fatalf("step_seconds count = %d, want %d", got, steps)
	}
	// Three single-reference modes run per step.
	if got := reg.HistogramCount(MetricModeSeconds); got != 3*steps {
		t.Fatalf("mode_step_seconds count = %d, want %d", got, 3*steps)
	}
	// A clean run on the SPD fast path must never hit the Jacobi
	// fallback; a nonzero reading here is a numerical regression.
	if got := reg.CounterValue(MetricJacobiFallbacks); got != 0 {
		t.Fatalf("jacobi_fallbacks_total = %d on a clean run", got)
	}
	// Nothing was dropped and the mode never failed.
	if got := reg.CounterValue(MetricModeFailures); got != 0 {
		t.Fatalf("mode_failures_total = %d", got)
	}
	if got := reg.GaugeValue(MetricTopWeight); got <= 0 || got > 1 {
		t.Fatalf("top_weight = %v", got)
	}

	snap := tel.Snapshot()
	if snap.Iteration == 0 || snap.SelectedMode == "" || len(snap.Weights) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.LastDecision == nil || snap.LastDecision.Condition == "" {
		t.Fatalf("snapshot lastDecision = %+v", snap.LastDecision)
	}
	// The per-sensor statistics are the last decision's, keyed by the
	// testing sensors' names.
	last := run.Trace[len(run.Trace)-1].Decision
	if len(snap.PerSensor) != len(last.SensorAnomalies) {
		t.Fatalf("snapshot perSensorStats = %v, want %d sensors", snap.PerSensor, len(last.SensorAnomalies))
	}
	for j, sa := range last.SensorAnomalies {
		if got, ok := snap.PerSensor[sa.Sensor]; !ok || got != last.PerSensorStats[j] {
			t.Fatalf("snapshot perSensorStats[%s] = %v, want %v", sa.Sensor, got, last.PerSensorStats[j])
		}
	}
}

func TestDroppedReadingCounter(t *testing.T) {
	tel := New(Options{})
	tel.DroppedReading("ips")
	tel.DroppedReading("ips")
	tel.DroppedReading("lidar")
	reg := tel.Registry()
	if got := reg.CounterValue(MetricDroppedReadings + `{sensor="ips"}`); got != 2 {
		t.Fatalf("ips drops = %d", got)
	}
	if got := reg.CounterValue(MetricDroppedReadings + `{sensor="lidar"}`); got != 1 {
		t.Fatalf("lidar drops = %d", got)
	}
}

func TestAlarmEdgeCounters(t *testing.T) {
	tel := New(Options{})
	dec := func(iter int, sensor, actuator bool) *detect.DecisionStats {
		return &detect.DecisionStats{Iteration: iter, Mode: "m", Condition: "S0/A0",
			SensorAlarm: sensor, ActuatorAlarm: actuator}
	}
	tel.Decision(dec(0, false, false)) // baseline
	tel.Decision(dec(1, true, false))  // sensor rising
	tel.Decision(dec(2, true, true))   // actuator rising
	tel.Decision(dec(3, false, true))  // sensor falling
	tel.Decision(dec(4, false, false)) // actuator falling
	reg := tel.Registry()
	for name, want := range map[string]int64{
		MetricAlarmEdges + `{kind="sensor",to="on"}`:    1,
		MetricAlarmEdges + `{kind="sensor",to="off"}`:   1,
		MetricAlarmEdges + `{kind="actuator",to="on"}`:  1,
		MetricAlarmEdges + `{kind="actuator",to="off"}`: 1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestFrameGapIgnoresNegative(t *testing.T) {
	tel := New(Options{})
	tel.FrameGap(-5)
	tel.FrameGap(100_000_000)
	if got := tel.Registry().HistogramCount(MetricFrameGapSeconds); got != 1 {
		t.Fatalf("frame gap count = %d", got)
	}
}

// Per-level sampling: with Debug sampled 1-in-10, 100 steps log 10
// compact records while Info-level mode-switch records stay unsampled.
func TestLogSampling(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tel := New(Options{Logger: logger, SampleEvery: map[slog.Level]int{slog.LevelDebug: 10}})

	stats := core.StepStats{SelectedName: "m", Weights: []float64{0.9, 0.1}}
	for k := 0; k < 100; k++ {
		stats.Iteration = k
		stats.Switched = k == 50
		tel.EngineStep(&stats)
	}

	var debugs, infos int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Level string `json:"level"`
			Msg   string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		switch rec.Msg {
		case "step":
			debugs++
		case "mode switch":
			infos++
		}
	}
	if debugs != 10 {
		t.Fatalf("debug records = %d, want 10", debugs)
	}
	if infos != 1 {
		t.Fatalf("mode switch records = %d, want 1", infos)
	}
}

// A logger whose handler is above the record level costs nothing and
// emits nothing.
func TestLogDisabledLevel(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	tel := New(Options{Logger: logger})
	stats := core.StepStats{SelectedName: "m", Switched: true, Weights: []float64{1}}
	tel.EngineStep(&stats)
	if buf.Len() != 0 {
		t.Fatalf("unexpected log output: %s", buf.String())
	}
}

func TestTopTwo(t *testing.T) {
	top, second := topTwo([]float64{0.2, 0.7, 0.1})
	if top != 0.7 || second != 0.2 {
		t.Fatalf("topTwo = %v, %v", top, second)
	}
	top, second = topTwo(nil)
	if top != 0 || second != 0 {
		t.Fatalf("topTwo(nil) = %v, %v", top, second)
	}
}

func TestHTTPSurface(t *testing.T) {
	tel := New(Options{})
	stats := core.StepStats{Iteration: 4, SelectedName: "enc", Weights: []float64{0.8, 0.2}}
	tel.EngineStep(&stats)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, MetricStepsTotal+" 1") {
		t.Fatalf("/metrics code=%d body=%s", code, body)
	}
	code, body = get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot code=%d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Iteration != 4 || snap.SelectedMode != "enc" {
		t.Fatalf("/snapshot = %+v", snap)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, `"roboads"`) {
		t.Fatalf("/debug/vars code=%d", code)
	}
	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}
}

func TestServeBindsAndServes(t *testing.T) {
	tel := New(Options{})
	srv, addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
