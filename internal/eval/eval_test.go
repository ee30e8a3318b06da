package eval

import (
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/scenario"
)

// expectedTable2 lists the paper's Table II identification sequences.
var expectedTable2 = map[int]struct {
	sensor   string
	actuator string
}{
	1:  {"S0", "A0→1"},
	2:  {"S0", "A0→1"},
	3:  {"S0→1", "A0"},
	4:  {"S0→1", "A0"},
	5:  {"S0→2", "A0"},
	6:  {"S0→3", "A0"},
	7:  {"S0→3", "A0"},
	8:  {"S0→1", "A0→1"},
	9:  {"S0→2→4", "A0"},
	10: {"S0→3→5→1", "A0"},
	11: {"S0→2→6", "A0"},
}

func TestTable2ReproducesPaper(t *testing.T) {
	result, err := Table2(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 11 {
		t.Fatalf("rows = %d", len(result.Rows))
	}
	for _, row := range result.Rows {
		want := expectedTable2[row.ID]
		// The transition sequence must land on the paper's final
		// condition; transient inserts are tolerated but the paper
		// sequence should be reproduced on this seed.
		if row.SensorResult != want.sensor {
			t.Errorf("#%d sensor sequence = %q, want %q", row.ID, row.SensorResult, want.sensor)
		}
		wantActuator := want.actuator
		if wantActuator == "A0" {
			// Brief actuator false alarms may extend the sequence; only
			// require that no persistent A1 is reported.
			if strings.HasSuffix(row.ActuatorResult, "→1") && row.ActuatorFPR > 0.1 {
				t.Errorf("#%d actuator sequence = %q with FPR %.1f%%", row.ID, row.ActuatorResult, 100*row.ActuatorFPR)
			}
		} else if row.ActuatorResult != wantActuator {
			t.Errorf("#%d actuator sequence = %q, want %q", row.ID, row.ActuatorResult, wantActuator)
		}
		if row.SensorFPR > 0.10 {
			t.Errorf("#%d sensor FPR %.2f%% exceeds 10%%", row.ID, 100*row.SensorFPR)
		}
		if row.SensorFNR > 0.05 {
			t.Errorf("#%d sensor FNR %.2f%% exceeds 5%%", row.ID, 100*row.SensorFNR)
		}
		if row.ActuatorFNR > 0.05 {
			t.Errorf("#%d actuator FNR %.2f%% exceeds 5%%", row.ID, 100*row.ActuatorFNR)
		}
		for target, delay := range row.DelaySeconds {
			if delay < 0 || delay > 2.0 {
				t.Errorf("#%d delay[%s] = %.2fs", row.ID, target, delay)
			}
		}
	}
	// §V-C headline numbers: <3% FPR, <1% FNR on average (we allow a
	// small margin for the simulated substrate).
	if result.AvgFPR > 0.03 {
		t.Errorf("average FPR %.2f%% exceeds 3%%", 100*result.AvgFPR)
	}
	if result.AvgFNR > 0.02 {
		t.Errorf("average FNR %.2f%% exceeds 2%%", 100*result.AvgFNR)
	}
	if result.AvgSensorDelaySec > 1.0 || result.AvgActuatorDelaySec > 1.0 {
		t.Errorf("average delays %.2fs / %.2fs exceed 1s",
			result.AvgSensorDelaySec, result.AvgActuatorDelaySec)
	}
}

func TestTable4Shape(t *testing.T) {
	result, err := Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := result.Shape(); err != nil {
		t.Fatal(err)
	}
}

func TestFig6Series(t *testing.T) {
	result, err := Fig6(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Points) < 100 {
		t.Fatalf("series too short: %d points", len(result.Points))
	}
	// After the IPS attack onset (6 s) the IPS anomaly estimate's
	// x-component should hover near +0.07 m (the paper's ±0.002 band on
	// a real robot; we allow the simulated noise floor).
	var sum float64
	n := 0
	for _, p := range result.Points {
		if p.TimeSec > 8 && p.TimeSec < 11 {
			sum += p.DsIPS[0]
			n++
		}
	}
	if n == 0 {
		t.Fatal("no points in the post-onset window")
	}
	if mean := sum / float64(n); math.Abs(mean-0.07) > 0.015 {
		t.Fatalf("mean d̂s(ips).x = %.4f, want ≈ 0.07", mean)
	}
	// After the actuator onset (12 s) the wheel anomaly estimates
	// should average near ∓0.04 m/s.
	var sumL, sumR float64
	n = 0
	for _, p := range result.Points {
		if p.TimeSec > 14 {
			sumL += p.Da[0]
			sumR += p.Da[1]
			n++
		}
	}
	if n == 0 {
		t.Fatal("no points after actuator onset")
	}
	if meanL, meanR := sumL/float64(n), sumR/float64(n); math.Abs(meanL+0.04) > 0.02 || math.Abs(meanR-0.04) > 0.02 {
		t.Fatalf("mean d̂a = (%.4f, %.4f), want ≈ (−0.04, +0.04)", meanL, meanR)
	}
	// Modes: S1 (IPS) should dominate after the sensor onset, actuator
	// mode 1 after the actuator onset.
	s1, a1, post := 0, 0, 0
	for _, p := range result.Points {
		if p.TimeSec > 13 {
			post++
			if p.SensorMode == 1 {
				s1++
			}
			if p.ActuatorMode == 1 {
				a1++
			}
		}
	}
	if float64(s1)/float64(post) < 0.9 {
		t.Errorf("S1 fraction after both onsets = %.2f", float64(s1)/float64(post))
	}
	if float64(a1)/float64(post) < 0.9 {
		t.Errorf("A1 fraction after both onsets = %.2f", float64(a1)/float64(post))
	}
}

func TestFig7Sweeps(t *testing.T) {
	runs, err := Fig7Workload(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sensorSide := range []bool{true, false} {
		roc, err := Fig7ROC(runs, sensorSide)
		if err != nil {
			t.Fatal(err)
		}
		if len(roc.Curves) != len(Fig7WindowSettings) {
			t.Fatalf("curves = %d", len(roc.Curves))
		}
		for _, curve := range roc.Curves {
			if curve.AUC < 0.90 {
				t.Errorf("%s c/w=%d/%d AUC = %.3f, want ≥ 0.90 (paper's inset shows near-perfect ROC)",
					roc.Side, curve.C, curve.W, curve.AUC)
			}
			// TPR must be non-decreasing along the sorted curve within
			// tolerance (ROC sanity).
			for i := 1; i < len(curve.Points); i++ {
				if curve.Points[i].TPR < curve.Points[i-1].TPR-0.2 {
					t.Errorf("%s ROC not roughly monotone at %d", roc.Side, i)
				}
			}
		}
		f1, err := Fig7F1(runs, sensorSide)
		if err != nil {
			t.Fatal(err)
		}
		best := f1.Best()
		if best.F1 < 0.9 {
			t.Errorf("%s best F1 = %.3f at w=%d c=%d", f1.Side, best.F1, best.W, best.C)
		}
	}
}

func TestEvasiveThresholds(t *testing.T) {
	result, err := Evasive(3)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: stealthy IPS shifts stay under 0.02 m; ours should be of
	// the same order (noise floors differ).
	if result.MaxStealthyIPSMeters <= 0 || result.MaxStealthyIPSMeters > 0.02 {
		t.Errorf("max stealthy IPS shift = %.4f m, want in (0, 0.02]", result.MaxStealthyIPSMeters)
	}
	// Paper: stealthy actuator bias stays under 900 units.
	if result.MaxStealthyActuatorUnits <= 0 || result.MaxStealthyActuatorUnits > 900 {
		t.Errorf("max stealthy actuator bias = %.0f units, want in (0, 900]", result.MaxStealthyActuatorUnits)
	}
	// Large attacks must always be detected quickly.
	for _, p := range result.IPSSweep {
		if p.Magnitude >= 0.02 && !p.Detected {
			t.Errorf("IPS shift %.3f m undetected", p.Magnitude)
		}
	}
	for _, p := range result.ActuatorSweep {
		if p.Magnitude >= 900 && !p.Detected {
			t.Errorf("actuator bias %.0f units undetected", p.Magnitude)
		}
	}
}

func TestLinearBenchShape(t *testing.T) {
	result, err := LinearBench(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// §V-G: the once-linearized baseline floods with sensor false
	// positives (paper 61.68%) while detecting everything (FNR ≈ 0);
	// RoboADS stays accurate.
	if result.LinearSensorFPR < 0.3 {
		t.Errorf("linear baseline sensor FPR = %.2f%%, expected a flood", 100*result.LinearSensorFPR)
	}
	if result.LinearSensorFNR > 0.05 {
		t.Errorf("linear baseline sensor FNR = %.2f%%", 100*result.LinearSensorFNR)
	}
	if result.RoboADSSensorFPR > 0.05 {
		t.Errorf("RoboADS sensor FPR = %.2f%%", 100*result.RoboADSSensorFPR)
	}
	if result.LinearSensorFPR < 5*result.RoboADSSensorFPR {
		t.Errorf("baseline FPR %.2f%% not dominating RoboADS %.2f%%",
			100*result.LinearSensorFPR, 100*result.RoboADSSensorFPR)
	}
}

func TestTamiyaSuite(t *testing.T) {
	result, err := Tamiya(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 5 {
		t.Fatalf("rows = %d", len(result.Rows))
	}
	// Paper §V-D: 2.77% / 0.83% FPR/FNR, 0.33 s delay. The simulated
	// bicycle with leave-one-out modes gets the same order.
	if result.AvgFPR > 0.08 {
		t.Errorf("Tamiya average FPR %.2f%%", 100*result.AvgFPR)
	}
	if result.AvgFNR > 0.15 {
		t.Errorf("Tamiya average FNR %.2f%%", 100*result.AvgFNR)
	}
	if result.AvgDelaySec < 0 || result.AvgDelaySec > 1.0 {
		t.Errorf("Tamiya average delay %.2fs", result.AvgDelaySec)
	}
	// Sensor-side scenarios must identify their targets.
	for _, row := range result.Rows {
		if row.ID >= 103 && row.DelaySec < 0 {
			t.Errorf("#%d never detected", row.ID)
		}
	}
}

func TestRelatedWorkComparison(t *testing.T) {
	result, err := RelatedWork(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Rows) != 4 {
		t.Fatalf("rows = %d", len(result.Rows))
	}
	byName := make(map[string]RelatedWorkRow, len(result.Rows))
	for _, row := range result.Rows {
		byName[row.Approach] = row
	}
	ads := byName["RoboADS"]
	lin := byName["linear model-based [20]"]
	learn := byName["learning-based [34-36]"]
	timeBased := byName["time-based [29-31]"]

	// RoboADS: high TPR on both sides, low FPR, identifies workflows.
	if ads.SensorTPR < 0.95 || ads.ActuatorTPR < 0.95 || ads.SensorFPR > 0.02 || !ads.Identifies {
		t.Errorf("RoboADS row: %+v", ads)
	}
	// Linear baseline floods with false positives (§V-G).
	if lin.SensorFPR < 0.3 {
		t.Errorf("linear baseline FPR = %.2f%%, expected a flood", 100*lin.SensorFPR)
	}
	// Learning-based sees sensor inconsistencies but no actuators and
	// cannot identify (§II-C critique).
	if learn.SensorTPR < 0.5 || learn.ActuatorTPR != 0 || learn.Identifies {
		t.Errorf("learning-based row: %+v", learn)
	}
	// Time-based is blind to content corruptions entirely.
	if timeBased.SensorTPR != 0 || timeBased.ActuatorTPR != 0 || timeBased.SensorFPR != 0 {
		t.Errorf("time-based row: %+v", timeBased)
	}
}

// kheperaRun flies one Khepera lab mission with a detector from build.
func kheperaRun(t *testing.T, sc attack.Scenario, seed int64, build func(robot.Profile) (*detect.Detector, error)) *scenario.Run {
	t.Helper()
	run, err := scenario.RunMission("khepera", "lab", sc, seed, scenario.MaxIterations, build)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTireBlowoutDetected(t *testing.T) {
	run := kheperaRun(t, attack.TireBlowoutScenario(), 42, scenario.DefaultDetector)
	ac := run.ActuatorConfusion()
	if ac.TPR() < 0.9 {
		t.Fatalf("tire blowout actuator TPR = %.2f", ac.TPR())
	}
	if ts := run.Targets(); len(ts) != 1 || ts[0].Name != "actuator" || ts[0].Onset < 0 || ts[0].Delay.Seconds(run.Dt) > 1.0 {
		t.Fatalf("tire blowout targets = %+v", ts)
	}
}

func TestWriters(t *testing.T) {
	// Renderers must produce the key landmarks of each artifact.
	var buf strings.Builder

	t2, err := Table2(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	t2.Write(&buf)
	for _, want := range []string{"Wheel jamming", "S0→2→6", "average FPR"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table2 output missing %q", want)
		}
	}

	buf.Reset()
	t4, err := Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	t4.Write(&buf)
	if !strings.Contains(buf.String(), "All 3 sensors") {
		t.Fatal("table4 output missing fusion row")
	}

	buf.Reset()
	f6, err := Fig6(42)
	if err != nil {
		t.Fatal(err)
	}
	f6.Write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(f6.Points)+1 {
		t.Fatalf("fig6 TSV rows = %d, want %d", len(lines), len(f6.Points)+1)
	}
	if !strings.HasPrefix(lines[0], "time\tds_ips_x") {
		t.Fatalf("fig6 header = %q", lines[0])
	}

	buf.Reset()
	runs, err := Fig7Workload(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	roc, err := Fig7ROC(runs, true)
	if err != nil {
		t.Fatal(err)
	}
	roc.Write(&buf)
	if !strings.Contains(buf.String(), "AUC") {
		t.Fatal("fig7 ROC output missing AUC")
	}
	buf.Reset()
	f1, err := Fig7F1(runs, false)
	if err != nil {
		t.Fatal(err)
	}
	f1.Write(&buf)
	if !strings.Contains(buf.String(), "actuator") {
		t.Fatal("fig7 F1 output missing side")
	}

	buf.Reset()
	ev, err := Evasive(3)
	if err != nil {
		t.Fatal(err)
	}
	ev.Write(&buf)
	if !strings.Contains(buf.String(), "stealthy") {
		t.Fatal("evasive output missing summary")
	}

	buf.Reset()
	tm, err := Tamiya(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	tm.Write(&buf)
	if !strings.Contains(buf.String(), "Tamiya") {
		t.Fatal("tamiya output missing title")
	}

	buf.Reset()
	lb, err := LinearBench(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	lb.Write(&buf)
	if !strings.Contains(buf.String(), "61.68%") {
		t.Fatal("linear output missing paper reference")
	}

	buf.Reset()
	rel, err := RelatedWork(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	rel.Write(&buf)
	if !strings.Contains(buf.String(), "time-based") {
		t.Fatal("related output missing row")
	}
}

func TestReportMarkdown(t *testing.T) {
	var buf strings.Builder
	if err := Report(&buf, 1, 42); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# RoboADS reproduction report",
		"## Table II",
		"## Table IV",
		"## Fig. 7",
		"## §V-D",
		"## §V-G",
		"## §V-H",
		"## §II-C",
		"Shape check (LiDAR ≫ encoder > IPS, fusion below all): reproduced.",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestCalibrateRecoversPaperParameters(t *testing.T) {
	runs, err := Fig7Workload(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(runs)
	if err != nil {
		t.Fatal(err)
	}
	if cal.SensorF1 < 0.95 || cal.ActuatorF1 < 0.9 {
		t.Fatalf("calibration F1 = %.3f / %.3f", cal.SensorF1, cal.ActuatorF1)
	}
	// The calibrated configuration must actually be usable.
	run := kheperaRun(t, attack.KheperaScenarios()[2], 99, func(p robot.Profile) (*detect.Detector, error) {
		return p.NewDetector(core.DefaultEngineConfig(), cal.Config)
	})
	if run.SensorConfusion().TPR() < 0.9 {
		t.Fatalf("calibrated config TPR = %.2f", run.SensorConfusion().TPR())
	}
	// Sanity on the selected windows.
	cfg := cal.Config
	if cfg.SensorWindow < 1 || cfg.SensorCriteria > cfg.SensorWindow ||
		cfg.ActuatorWindow < 1 || cfg.ActuatorCriteria > cfg.ActuatorWindow {
		t.Fatalf("calibrated config invalid: %+v", cfg)
	}
	if _, err := Calibrate(nil); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestSensorQualitySweep(t *testing.T) {
	result, err := SensorQuality(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Points) != len(QualityScales) {
		t.Fatalf("points = %d", len(result.Points))
	}
	if err := result.Shape(); err != nil {
		t.Fatal(err)
	}
	// Quadratic-ish scaling: 4× noise should give ≳4× variance.
	first, last := result.Points[1], result.Points[3] // scales 1 and 4
	if last.VarVl < 4*first.VarVl {
		t.Fatalf("variance scaling too weak: ×1 → %.3g, ×4 → %.3g", first.VarVl, last.VarVl)
	}
	var buf strings.Builder
	result.Write(&buf)
	if !strings.Contains(buf.String(), "Sensor quality sweep") {
		t.Fatal("quality output missing title")
	}
}

// The §V-H adaptive attacker: a slow ramp buys stealth time but the
// magnitude at first detection stays inside the same envelope regardless
// of ramp rate — the attacker cannot trade patience for impact.
func TestStealthRampBoundedImpact(t *testing.T) {
	rates := []float64{0.0005, 0.001, 0.002} // m per iteration on IPS x
	var magnitudes []float64
	for _, rate := range rates {
		ramp := &attack.RampBias{
			Sensor:           detect.SensorIPS,
			RatePerIteration: mat.VecOf(rate, 0, 0),
			Win:              attack.Window{Start: 60},
			Via:              attack.Physical,
		}
		sc := attack.Scenario{
			ID:            300,
			Name:          "stealth ramp",
			SensorAttacks: []attack.SensorAttack{ramp},
		}
		run := kheperaRun(t, sc, 42, scenario.DefaultDetector)
		ts := run.Targets()
		if len(ts) != 1 || ts[0].Delay.Detected < 0 {
			t.Fatalf("rate %v never detected", rate)
		}
		d := ts[0].Delay
		magnitude := ramp.OffsetAt(d.Detected)[0]
		magnitudes = append(magnitudes, magnitude)
		// Detection must fire before the ramp does scenario-scale damage.
		if magnitude > 0.05 {
			t.Fatalf("rate %v: ramp reached %.3f m before detection", rate, magnitude)
		}
	}
	// Magnitude-at-detection is an envelope property, not a rate
	// property: the values stay within a small factor of each other.
	minMag, maxMag := magnitudes[0], magnitudes[0]
	for _, m := range magnitudes {
		if m < minMag {
			minMag = m
		}
		if m > maxMag {
			maxMag = m
		}
	}
	if maxMag > 4*minMag {
		t.Fatalf("detection magnitudes vary too much with rate: %v", magnitudes)
	}
}

// Property: for a randomly chosen identifiable attack combination (at
// most two corrupted sensors, bias magnitudes well above the §V-H
// envelope), the detector's steady-state identification matches the
// ground truth.
func TestPropertyRandomScenarioIdentification(t *testing.T) {
	if testing.Short() {
		t.Skip("mission fuzz in -short mode")
	}
	sensorsAvailable := []string{detect.SensorIPS, detect.SensorWheelEncoder}
	for trial := 0; trial < 6; trial++ {
		seed := int64(500 + trial)
		rng := newFuzzRNG(seed)

		// Pick 1–2 distinct targets from {ips, wheel-encoder}; LiDAR is
		// kept clean so the fuzz stays within the identifiable regime.
		nTargets := 1 + rng.IntN(2)
		perm := rng.Perm(len(sensorsAvailable))
		targets := make([]string, 0, nTargets)
		for _, idx := range perm[:nTargets] {
			targets = append(targets, sensorsAvailable[idx])
		}

		sc := attack.Scenario{ID: 400, Name: "fuzz"}
		for i, target := range targets {
			offset := mat.NewVec(3)
			offset[rng.IntN(2)] = 0.05 + 0.1*rng.Float64() // 5–15 cm on x or y
			sc.SensorAttacks = append(sc.SensorAttacks, &attack.Bias{
				Sensor: target,
				Offset: offset,
				Env:    attack.Envelope{Win: attack.Window{Start: 60 + 40*i}},
				Via:    attack.Cyber,
			})
		}

		run := kheperaRun(t, sc, seed, scenario.DefaultDetector)
		// Steady state: last 50 iterations must identify the full set
		// most of the time.
		correct, total := 0, 0
		for i := len(run.Trace) - 50; i < len(run.Trace); i++ {
			tr := run.Trace[i]
			total++
			confirmed := map[string]bool{}
			for _, s := range tr.Decision.Condition.Sensors {
				confirmed[s] = true
			}
			if maps.Equal(confirmed, tr.Truth.CorruptedSensors) {
				correct++
			}
		}
		if rate := float64(correct) / float64(total); rate < 0.85 {
			t.Errorf("trial %d (targets %v): steady-state identification rate %.2f", trial, targets, rate)
		}
	}
}

// newFuzzRNG adapts stat.RNG with a Perm helper for the fuzz test.
type fuzzRNG struct {
	inner *rand.Rand
}

func newFuzzRNG(seed int64) *fuzzRNG {
	return &fuzzRNG{inner: rand.New(rand.NewSource(seed))}
}

func (f *fuzzRNG) IntN(n int) int   { return f.inner.Intn(n) }
func (f *fuzzRNG) Float64() float64 { return f.inner.Float64() }
func (f *fuzzRNG) Perm(n int) []int { return f.inner.Perm(n) }
