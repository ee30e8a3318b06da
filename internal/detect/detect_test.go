package detect

import (
	"math"
	"testing"
	"testing/quick"

	"roboads/internal/core"
	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
	"roboads/internal/testkit"
	"roboads/internal/world"
)

func TestSlidingWindowBasic(t *testing.T) {
	w := NewSlidingWindow(3, 2)
	if w.Push(true) {
		t.Fatal("1 of 3 met criteria 2")
	}
	if !w.Push(true) {
		t.Fatal("2 of 3 should meet criteria 2")
	}
	if !w.Push(false) {
		t.Fatal("still 2 positives in window")
	}
	if w.Push(false) {
		t.Fatal("1 positive left, criteria not met")
	}
	if !w.Met() == true && w.Met() {
		t.Fatal("Met inconsistent")
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	w := NewSlidingWindow(2, 2)
	w.Push(true)
	if !w.Push(true) {
		t.Fatal("2/2 should fire")
	}
	if w.Push(false) {
		t.Fatal("eviction failed")
	}
	w.Reset()
	if w.Met() {
		t.Fatal("reset window still met")
	}
}

func TestSlidingWindowClamping(t *testing.T) {
	w := NewSlidingWindow(0, 9)
	// Clamped to 1-of-1.
	if !w.Push(true) {
		t.Fatal("clamped window should fire on a positive")
	}
	if w.Push(false) {
		t.Fatal("clamped window should clear on a negative")
	}
}

// The positive count tracked incrementally must always match a recount.
func TestPropertySlidingWindowCount(t *testing.T) {
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		size := 1 + r.IntN(8)
		criteria := 1 + r.IntN(size)
		w := NewSlidingWindow(size, criteria)
		var history []bool
		for i := 0; i < 50; i++ {
			outcome := r.Float64() < 0.4
			history = append(history, outcome)
			got := w.Push(outcome)
			count := 0
			lo := len(history) - size
			if lo < 0 {
				lo = 0
			}
			for _, h := range history[lo:] {
				if h {
					count++
				}
			}
			if got != (count >= criteria) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testkit.Quick(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{}
	if c.String() != "S0/A0" || !c.Clean() {
		t.Fatalf("clean condition = %q", c.String())
	}
	c = Condition{Sensors: []string{"ips"}, Actuator: true}
	if c.String() != "S{ips}/A1" || c.Clean() {
		t.Fatalf("condition = %q", c.String())
	}
	if !c.Equal(Condition{Sensors: []string{"ips"}, Actuator: true}) {
		t.Fatal("Equal failed on identical conditions")
	}
	if c.Equal(Condition{Sensors: []string{"lidar"}, Actuator: true}) {
		t.Fatal("Equal confused different sensors")
	}
}

func TestKheperaCodes(t *testing.T) {
	cases := []struct {
		sensors []string
		want    string
	}{
		{nil, "S0"},
		{[]string{SensorIPS}, "S1"},
		{[]string{SensorWheelEncoder}, "S2"},
		{[]string{SensorLidar}, "S3"},
		{[]string{SensorWheelEncoder, SensorLidar}, "S4"},
		{[]string{SensorIPS, SensorLidar}, "S5"},
		{[]string{SensorIPS, SensorWheelEncoder}, "S6"},
		{[]string{SensorIPS, SensorWheelEncoder, SensorLidar}, "S?"},
	}
	for _, c := range cases {
		if got := KheperaSensorCode(Condition{Sensors: c.sensors}); got != c.want {
			t.Fatalf("code(%v) = %s, want %s", c.sensors, got, c.want)
		}
	}
	if got := CodeString(Condition{Actuator: true}); got != "S0,A1" {
		t.Fatalf("CodeString = %q", got)
	}
}

// --- integration: detector over a simulated khepera -----------------------

type detRig struct {
	model *dynamics.DifferentialDrive
	plant core.Plant
	ips   *sensors.IPS
	we    *sensors.WheelEncoder
	lidar *sensors.Lidar
	rng   *stat.RNG
}

func newDetRig(seed int64) *detRig {
	model := dynamics.NewKhepera(0.1)
	arena := world.NewArena(4, 4)
	return &detRig{
		model: model,
		plant: core.Plant{
			Model:       model,
			Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
			AngleStates: []int{2},
		},
		ips:   sensors.NewIPS(3),
		we:    sensors.NewWheelEncoder(3),
		lidar: sensors.NewLidar(arena, 3),
		rng:   stat.NewRNG(seed),
	}
}

func (r *detRig) suite() []sensors.Sensor {
	return []sensors.Sensor{r.ips, r.we, r.lidar}
}

func (r *detRig) measure(s sensors.Sensor, x mat.Vec) mat.Vec {
	rm := s.R()
	stds := make(mat.Vec, s.Dim())
	for i := range stds {
		stds[i] = math.Sqrt(rm.At(i, i))
	}
	return s.H(x).Add(r.rng.GaussianVec(stds))
}

func (r *detRig) detector(t *testing.T, x0 mat.Vec) *Detector {
	t.Helper()
	u0 := r.model.WheelSpeeds(0.1, 0)
	modes, err := core.SingleReferenceModes(r.model, r.suite(), x0, u0, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(r.plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewDetector(eng, DefaultConfig())
}

func runDetection(t *testing.T, rig *detRig, det *Detector, steps int,
	corrupt func(k int, readings map[string]mat.Vec, u mat.Vec) mat.Vec) []*Report {
	t.Helper()
	xTrue := mat.VecOf(1.0, 1.0, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.15)
	reports := make([]*Report, 0, steps)
	for k := 0; k < steps; k++ {
		readings := map[string]mat.Vec{
			"ips":           rig.measure(rig.ips, xTrue),
			"wheel-encoder": rig.measure(rig.we, xTrue),
			"lidar":         rig.measure(rig.lidar, xTrue),
		}
		uExec := u
		if corrupt != nil {
			uExec = corrupt(k, readings, u)
		}
		rep, err := det.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		reports = append(reports, rep)
		xTrue = rig.model.F(xTrue, uExec).Add(rig.rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
	}
	return reports
}

func TestDetectorCleanRunLowFalsePositives(t *testing.T) {
	rig := newDetRig(21)
	det := rig.detector(t, mat.VecOf(1.0, 1.0, 0.2))
	reports := runDetection(t, rig, det, 300, nil)
	alarms := 0
	for _, rep := range reports {
		if rep.Decision.SensorAlarm && len(rep.Decision.Condition.Sensors) > 0 {
			alarms++
		}
		if rep.Decision.ActuatorAlarm {
			alarms++
		}
	}
	if rate := float64(alarms) / float64(len(reports)); rate > 0.03 {
		t.Fatalf("clean-run alarm rate %.3f exceeds 3%%", rate)
	}
}

func TestDetectorFlagsIPSBias(t *testing.T) {
	rig := newDetRig(22)
	det := rig.detector(t, mat.VecOf(1.0, 1.0, 0.2))
	const onset = 100
	reports := runDetection(t, rig, det, 200, func(k int, readings map[string]mat.Vec, u mat.Vec) mat.Vec {
		if k >= onset {
			readings["ips"] = readings["ips"].Add(mat.VecOf(0.07, 0, 0))
		}
		return u
	})

	// Find the first iteration where the detector confirms exactly the
	// IPS misbehavior.
	firstCorrect := -1
	for k := onset; k < len(reports); k++ {
		c := reports[k].Decision.Condition
		if len(c.Sensors) == 1 && c.Sensors[0] == "ips" {
			firstCorrect = k
			break
		}
	}
	if firstCorrect < 0 {
		t.Fatal("IPS misbehavior never identified")
	}
	if delay := firstCorrect - onset; delay > 10 {
		t.Fatalf("detection delay %d iterations (%.1fs)", delay, float64(delay)*0.1)
	}
	// Identification must stay mostly stable afterwards.
	correct := 0
	for k := firstCorrect; k < len(reports); k++ {
		c := reports[k].Decision.Condition
		if len(c.Sensors) == 1 && c.Sensors[0] == "ips" {
			correct++
		}
	}
	if rate := float64(correct) / float64(len(reports)-firstCorrect); rate < 0.9 {
		t.Fatalf("post-detection identification rate %.2f", rate)
	}
}

func TestDetectorFlagsActuatorBias(t *testing.T) {
	rig := newDetRig(23)
	det := rig.detector(t, mat.VecOf(1.0, 1.0, 0.2))
	const onset = 100
	bias := mat.VecOf(-0.04, 0.04)
	reports := runDetection(t, rig, det, 220, func(k int, readings map[string]mat.Vec, u mat.Vec) mat.Vec {
		if k >= onset {
			return u.Add(bias)
		}
		return u
	})

	firstAlarm := -1
	for k := onset; k < len(reports); k++ {
		if reports[k].Decision.ActuatorAlarm {
			firstAlarm = k
			break
		}
	}
	if firstAlarm < 0 {
		t.Fatal("actuator misbehavior never alarmed")
	}
	if delay := firstAlarm - onset; delay > 15 {
		t.Fatalf("actuator detection delay %d iterations", delay)
	}
	// No sensor should be blamed.
	blamed := 0
	for k := firstAlarm; k < len(reports); k++ {
		if len(reports[k].Decision.Condition.Sensors) > 0 {
			blamed++
		}
	}
	if rate := float64(blamed) / float64(len(reports)-firstAlarm); rate > 0.1 {
		t.Fatalf("sensors blamed for actuator attack %.2f of the time", rate)
	}
	// Quantification: the averaged d̂a recovers the bias (§V-C).
	var daSum mat.Vec = mat.NewVec(2)
	n := 0
	for k := firstAlarm + 10; k < len(reports); k++ {
		daSum = daSum.Add(reports[k].Decision.Da)
		n++
	}
	daMean := daSum.Scale(1 / float64(n))
	if math.Abs(daMean[0]-bias[0]) > 0.01 || math.Abs(daMean[1]-bias[1]) > 0.01 {
		t.Fatalf("mean d̂a = %v, want ≈ %v", daMean, bias)
	}
}

func TestDetectorTwoSensorsCorrupted(t *testing.T) {
	rig := newDetRig(24)
	det := rig.detector(t, mat.VecOf(1.0, 1.0, 0.2))
	reports := runDetection(t, rig, det, 260, func(k int, readings map[string]mat.Vec, u mat.Vec) mat.Vec {
		if k >= 80 {
			readings["ips"] = readings["ips"].Add(mat.VecOf(0.1, 0, 0))
		}
		if k >= 150 {
			readings["wheel-encoder"] = readings["wheel-encoder"].Add(mat.VecOf(0, 0.08, 0))
		}
		return u
	})
	// By the end, condition should be S6 = {ips, wheel-encoder}.
	last := reports[len(reports)-1].Decision.Condition
	if got := KheperaSensorCode(last); got != "S6" {
		t.Fatalf("final condition %v (code %s), want S6", last, got)
	}
}

func TestDeciderResetClearsState(t *testing.T) {
	d := NewDecider(DefaultConfig())
	// Pre-load windows through the exported surface by deciding on a
	// synthetic output with a huge anomaly.
	rig := newDetRig(25)
	det := rig.detector(t, mat.VecOf(1.0, 1.0, 0.2))
	_ = det // detector path covered elsewhere; here only window reset
	d.sensorWindow.Push(true)
	d.sensorWindow.Push(true)
	if !d.sensorWindow.Met() {
		t.Fatal("window should be met")
	}
	d.Reset()
	if d.sensorWindow.Met() {
		t.Fatal("reset did not clear windows")
	}
}

func TestDetectorStateAccessor(t *testing.T) {
	rig := newDetRig(41)
	det := rig.detector(t, mat.VecOf(1, 1, 0))
	x, px := det.State()
	if x.Len() != 3 || px.Rows() != 3 {
		t.Fatalf("State dims %d / %dx%d", x.Len(), px.Rows(), px.Cols())
	}
}
