package forensics

import (
	"errors"
	"math"
	"strings"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/sim"
	"roboads/internal/stat"
)

// decision fabricates a confirmed-sensor decision for unit tests.
func decision(k int, sensor string, ds mat.Vec) *detect.Decision {
	return &detect.Decision{
		Iteration:   k,
		SensorAlarm: true,
		Condition:   detect.Condition{Sensors: []string{sensor}},
		SensorAnomalies: []core.SensorAnomaly{
			{Sensor: sensor, Ds: ds},
		},
		Da: mat.NewVec(2),
	}
}

func TestIncidentBiasClassification(t *testing.T) {
	a := NewAnalyzer()
	rng := stat.NewRNG(1)
	for k := 10; k < 40; k++ {
		ds := mat.VecOf(0.07+rng.Gaussian(0, 0.001), rng.Gaussian(0, 0.001), 0)
		a.Observe(decision(k, "ips", ds))
	}
	in := a.Incident("ips")
	if in == nil {
		t.Fatal("no incident recorded")
	}
	if in.OnsetIteration != 10 || in.LastIteration != 39 || in.Samples != 30 {
		t.Fatalf("incident bookkeeping: %+v", in)
	}
	if in.Shape != ShapeBias {
		t.Fatalf("shape = %v, want bias", in.Shape)
	}
	if math.Abs(in.Mean[0]-0.07) > 0.002 {
		t.Fatalf("mean = %v", in.Mean)
	}
	if in.Std[0] > 0.01 {
		t.Fatalf("std = %v", in.Std)
	}
	if in.DurationIterations() != 30 {
		t.Fatalf("duration = %d", in.DurationIterations())
	}
	if !strings.Contains(in.Summary(0.1), "bias") {
		t.Fatalf("summary = %q", in.Summary(0.1))
	}
}

func TestIncidentDriftClassification(t *testing.T) {
	a := NewAnalyzer()
	for k := 0; k < 30; k++ {
		ds := mat.VecOf(0.002 * float64(k+1))
		a.Observe(decision(k, "wheel-encoder", ds))
	}
	if got := a.Incident("wheel-encoder").Shape; got != ShapeDrift {
		t.Fatalf("shape = %v, want drift", got)
	}
}

func TestIncidentErraticClassification(t *testing.T) {
	a := NewAnalyzer()
	rng := stat.NewRNG(2)
	for k := 0; k < 30; k++ {
		// DoS-like: magnitude jumps wildly.
		ds := mat.VecOf(rng.Gaussian(0.5, 0.4))
		a.Observe(decision(k, "lidar", ds))
	}
	if got := a.Incident("lidar").Shape; got != ShapeErratic {
		t.Fatalf("shape = %v, want erratic", got)
	}
}

func TestIncidentUnknownWhileYoung(t *testing.T) {
	a := NewAnalyzer()
	a.Observe(decision(1, "ips", mat.VecOf(0.07)))
	if got := a.Incident("ips").Shape; got != ShapeUnknown {
		t.Fatalf("shape after one sample = %v", got)
	}
}

func TestAnalyzerActuatorIncident(t *testing.T) {
	a := NewAnalyzer()
	for k := 5; k < 25; k++ {
		a.Observe(&detect.Decision{
			Iteration:     k,
			ActuatorAlarm: true,
			Da:            mat.VecOf(-0.04, 0.04),
		})
	}
	in := a.Incident("actuator")
	if in == nil {
		t.Fatal("actuator incident missing")
	}
	if math.Abs(in.Mean[0]+0.04) > 1e-9 {
		t.Fatalf("mean = %v", in.Mean)
	}
	if in.Shape != ShapeBias {
		t.Fatalf("shape = %v", in.Shape)
	}
}

func TestAnalyzerIgnoresUnconfirmedSensors(t *testing.T) {
	a := NewAnalyzer()
	dec := &detect.Decision{
		Iteration:   3,
		SensorAlarm: true,
		Condition:   detect.Condition{Sensors: []string{"ips"}},
		SensorAnomalies: []core.SensorAnomaly{
			{Sensor: "ips", Ds: mat.VecOf(0.07)},
			{Sensor: "lidar", Ds: mat.VecOf(9.9)},
		},
		Da: mat.NewVec(2),
	}
	a.Observe(dec)
	if a.Incident("lidar") != nil {
		t.Fatal("unconfirmed sensor got an incident")
	}
	if a.Incident("ips") == nil {
		t.Fatal("confirmed sensor missing an incident")
	}
}

func TestAnalyzerReportAndOrdering(t *testing.T) {
	a := NewAnalyzer()
	if a.Report(0.1) != "no incidents" {
		t.Fatalf("empty report = %q", a.Report(0.1))
	}
	for k := 20; k < 30; k++ {
		a.Observe(decision(k, "lidar", mat.VecOf(1)))
	}
	for k := 5; k < 15; k++ {
		a.Observe(decision(k, "ips", mat.VecOf(0.07)))
	}
	incidents := a.Incidents()
	if len(incidents) != 2 || incidents[0].Workflow != "ips" {
		t.Fatalf("ordering: %v, %v", incidents[0].Workflow, incidents[1].Workflow)
	}
	report := a.Report(0.1)
	if !strings.Contains(report, "ips") || !strings.Contains(report, "lidar") {
		t.Fatalf("report = %q", report)
	}
}

func TestShapeStrings(t *testing.T) {
	cases := map[Shape]string{
		ShapeUnknown: "unknown",
		ShapeBias:    "bias",
		ShapeDrift:   "drift",
		ShapeErratic: "erratic",
	}
	for shape, want := range cases {
		if shape.String() != want {
			t.Fatalf("%d → %q, want %q", shape, shape.String(), want)
		}
	}
}

// --- response ---------------------------------------------------------------

func kheperaResponder(t *testing.T) (*Responder, []sensors.Sensor, core.Plant, mat.Vec) {
	t.Helper()
	setup, err := sim.NewKhepera(sim.LabMission(), &attack.Scenario{ID: 0, Name: "clean"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	plant := core.Plant{
		Model:       setup.Model,
		Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
	}
	u0 := setup.Model.WheelSpeeds(0.1, 0)
	r := NewResponder(plant, setup.Suite, setup.X0, u0, core.DefaultEngineConfig(), detect.DefaultConfig())
	return r, setup.Suite, plant, setup.X0
}

func TestResponderShouldQuarantine(t *testing.T) {
	r, _, _, _ := kheperaResponder(t)
	a := NewAnalyzer()
	for k := 0; k < 5; k++ {
		a.Observe(decision(k, "ips", mat.VecOf(0.07, 0, 0)))
	}
	if got := r.ShouldQuarantine(a); len(got) != 0 {
		t.Fatalf("quarantine before threshold: %v", got)
	}
	for k := 5; k < 15; k++ {
		a.Observe(decision(k, "ips", mat.VecOf(0.07, 0, 0)))
	}
	got := r.ShouldQuarantine(a)
	if len(got) != 1 || got[0] != "ips" {
		t.Fatalf("quarantine list = %v", got)
	}
}

func TestResponderActuatorNotQuarantinable(t *testing.T) {
	r, _, _, _ := kheperaResponder(t)
	a := NewAnalyzer()
	for k := 0; k < 30; k++ {
		a.Observe(&detect.Decision{Iteration: k, ActuatorAlarm: true, Da: mat.VecOf(0.1, 0)})
	}
	if got := r.ShouldQuarantine(a); len(got) != 0 {
		t.Fatalf("actuator quarantined: %v", got)
	}
}

func TestResponderQuarantineRebuildsDetector(t *testing.T) {
	r, suite, _, x0 := kheperaResponder(t)
	det, err := r.Quarantine([]string{"ips"}, x0, mat.Diag(1e-6, 1e-6, 1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Quarantined(); len(got) != 1 || got[0] != "ips" {
		t.Fatalf("quarantined = %v", got)
	}

	// The rebuilt detector accepts full readings (the excluded IPS is
	// still monitored as testing) and never uses IPS as a reference.
	model := r.plant.Model
	rng := stat.NewRNG(9)
	xTrue := x0.Clone()
	u := model.(interface {
		WheelSpeeds(v, omega float64) mat.Vec
	}).WheelSpeeds(0.12, 0.1)
	for k := 0; k < 30; k++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		readings := map[string]mat.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		// Keep the quarantined IPS corrupted: must not disturb anything.
		readings["ips"] = readings["ips"].Add(mat.VecOf(0.2, 0, 0))
		rep, err := det.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, name := range rep.Engine.SelectedMode.ReferenceNames {
			if name == "ips" {
				t.Fatal("quarantined sensor used as reference")
			}
		}
	}
	x, _ := det.State()
	if d := x.Sub(xTrue); math.Hypot(d[0], d[1]) > 0.02 {
		t.Fatalf("post-quarantine estimate drifted: %v vs %v", x, xTrue)
	}
}

func TestResponderNoCleanSensors(t *testing.T) {
	r, suite, _, x0 := kheperaResponder(t)
	names := make([]string, len(suite))
	for i, s := range suite {
		names[i] = s.Name()
	}
	_, err := r.Quarantine(names, x0, mat.Diag(1e-6, 1e-6, 1e-6))
	if !errors.Is(err, ErrNoCleanSensors) {
		t.Fatalf("err = %v, want ErrNoCleanSensors", err)
	}
}

// End-to-end: detect an IPS attack on a mission, quarantine the IPS, and
// verify the incident report plus continued clean operation.
func TestForensicsEndToEnd(t *testing.T) {
	scenario := attack.KheperaScenarios()[3] // IPS spoofing
	setup, err := sim.NewKhepera(sim.LabMission(), &scenario, 11)
	if err != nil {
		t.Fatal(err)
	}
	plant := core.Plant{
		Model:       setup.Model,
		Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
		UMax:        mat.VecOf(0.8, 0.8),
	}
	u0 := setup.Model.WheelSpeeds(0.1, 0)
	modes, err := core.SingleReferenceModes(setup.Model, setup.Suite, setup.X0, u0, false)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(plant, modes, setup.X0, mat.Diag(1e-6, 1e-6, 1e-6), core.DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	det := detect.NewDetector(engine, detect.DefaultConfig())
	analyzer := NewAnalyzer()
	responder := NewResponder(plant, setup.Suite, setup.X0, u0, core.DefaultEngineConfig(), detect.DefaultConfig())

	quarantinedAt := -1
	for k := 0; k < 400; k++ {
		rec, err := setup.Sim.Step()
		if err != nil {
			break
		}
		rep, err := det.Step(rec.UPlanned, rec.Readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		analyzer.Observe(rep.Decision)
		if quarantinedAt < 0 {
			if names := responder.ShouldQuarantine(analyzer); len(names) > 0 {
				x, px := det.State()
				det, err = responder.Quarantine(names, x, px)
				if err != nil {
					t.Fatal(err)
				}
				quarantinedAt = k
			}
		}
		if rec.Done {
			break
		}
	}
	if quarantinedAt < 60 || quarantinedAt > 100 {
		t.Fatalf("quarantine at k=%d, want shortly after onset k=60", quarantinedAt)
	}
	in := analyzer.Incident("ips")
	if in == nil {
		t.Fatal("no IPS incident")
	}
	if in.Shape != ShapeBias {
		t.Fatalf("incident shape = %v, want bias", in.Shape)
	}
	if math.Abs(in.Mean[0]+0.1) > 0.02 {
		t.Fatalf("incident mean = %v, want x ≈ −0.1", in.Mean)
	}
}
