package roboads_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"

	"roboads"
)

// ExampleNewKheperaSystem runs a Khepera mission under IPS spoofing
// (Table II #4: a fake base station shifts the reported position by
// −0.1 m on x from t = 6 s) and reports the confirmed misbehavior with
// its quantified anomaly (§V-C).
func ExampleNewKheperaSystem() {
	system, err := roboads.NewKheperaSystem(roboads.IPSSpoofingScenario(), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	for {
		rec, report, err := system.Step()
		if errors.Is(err, roboads.ErrMissionOver) {
			break
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		if d := report.Decision; d.SensorAlarm && !d.Condition.Clean() {
			fmt.Printf("t=%.1fs confirmed: %v\n", float64(rec.K)*system.Dt(), d.Condition)
			for _, sa := range d.SensorAnomalies {
				if sa.Sensor == "ips" {
					fmt.Printf("quantified IPS anomaly: %+.2f m on x\n", sa.Ds[0])
				}
			}
			return
		}
		if rec.Done {
			break
		}
	}
	fmt.Println("no misbehavior")
	// Output:
	// t=6.1s confirmed: S{ips}/A0
	// quantified IPS anomaly: -0.10 m on x
}

// ExampleNewTamiyaSystem runs the RC car (§V-D), a bicycle model quite
// unlike the differential drive, under a throttle logic bomb that adds
// +0.6 m/s² to the executed acceleration from t = 6 s, and quantifies
// the actuator anomaly while the alarm holds.
func ExampleNewTamiyaSystem() {
	scenario := roboads.TamiyaScenarios()[0]
	fmt.Printf("scenario: %v\n", &scenario)
	system, err := roboads.NewTamiyaSystem(scenario, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	firstAlarm, samples := -1.0, 0
	daSum := roboads.NewVec(0, 0)
	for {
		rec, report, err := system.Step()
		if errors.Is(err, roboads.ErrMissionOver) {
			break
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		t := float64(rec.K) * system.Dt()
		if report.Decision.ActuatorAlarm {
			if firstAlarm < 0 {
				firstAlarm = t
			}
			daSum = daSum.Add(report.Decision.Da)
			samples++
		}
		if rec.Done || t > 40 {
			break
		}
	}
	mean := daSum.Scale(1 / float64(samples))
	fmt.Printf("actuator misbehavior confirmed at t=%.1fs\n", firstAlarm)
	fmt.Printf("mean d̂a while alarmed: %+.2f m/s²\n", mean[0])
	// Output:
	// scenario: #101 Throttle logic bomb
	// actuator misbehavior confirmed at t=6.4s
	// mean d̂a while alarmed: +0.60 m/s²
}

// ExampleNewDetector assembles a detector for a custom robot: a
// differential drive carrying a GPS, a magnetometer and wheel-encoder
// odometry, with a GPS spoofed by +0.5 m north from t = 5 s. A
// magnetometer alone cannot reconstruct the state, so under §VI's rule
// it joins the encoder to form a reference group.
func ExampleNewDetector() {
	const dt = 0.1
	var model roboads.Model = roboads.NewKheperaModel(dt) // or implement roboads.Model
	gps := roboads.NewGPS(3, 0.01)                        // or implement roboads.Sensor
	magnetometer := roboads.NewMagnetometer(3)
	encoder := roboads.NewWheelEncoder(3)
	x0 := roboads.NewVec(2, 2, 0)

	// One hypothesis per reference: the GPS alone, and the grouped
	// magnetometer + encoder.
	modeGPS, err := roboads.NewMode([]roboads.Sensor{gps}, []roboads.Sensor{magnetometer, encoder})
	if err != nil {
		fmt.Println(err)
		return
	}
	modeGrouped, err := roboads.NewMode([]roboads.Sensor{magnetometer, encoder}, []roboads.Sensor{gps})
	if err != nil {
		fmt.Println(err)
		return
	}
	plant := roboads.Plant{
		Model:       model,
		Q:           roboads.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
		UMax:        roboads.NewVec(0.8, 0.8),
	}
	engine, err := roboads.NewEngine(plant, []*roboads.Mode{modeGPS, modeGrouped},
		x0, roboads.Diag(1e-6, 1e-6, 1e-6), roboads.DefaultEngineConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	detector := roboads.NewDetector(engine, roboads.DefaultDetectorConfig())

	// Your robot supplies the planned command and its readings each
	// control iteration; here a gentle arc is simulated.
	rng := roboads.NewRNG(7)
	xTrue := x0.Clone()
	u := roboads.NewVec(0.14, 0.16) // left and right wheel speeds, m/s
	for k := 0; k < 150; k++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(roboads.NewVec(5e-4, 5e-4, 1e-3)))
		readings := map[string]roboads.Vec{}
		for _, s := range []roboads.Sensor{gps, magnetometer, encoder} {
			readings[s.Name()] = noisy(rng, s, xTrue)
		}
		if k >= 50 {
			readings[gps.Name()] = readings[gps.Name()].Add(roboads.NewVec(0, 0.5))
		}
		report, err := detector.Step(u, readings)
		if err != nil {
			fmt.Println(err)
			return
		}
		if d := report.Decision; d.SensorAlarm && !d.Condition.Clean() {
			fmt.Printf("t=%.1fs confirmed: %v\n", float64(k)*dt, d.Condition)
			return
		}
	}
	fmt.Println("spoofing went undetected")
	// Output: t=5.1s confirmed: S{gps}/A0
}

// noisy samples a reading with the sensor's own noise model.
func noisy(rng *roboads.RNG, s roboads.Sensor, x roboads.Vec) roboads.Vec {
	r := s.R()
	stds := make(roboads.Vec, s.Dim())
	for i := range stds {
		stds[i] = math.Sqrt(r.At(i, i))
	}
	return s.H(x).Add(rng.GaussianVec(stds))
}

// ExampleNewResponder detects IPS spoofing, records a forensic incident
// (onset, magnitude, corruption shape), quarantines the corrupted
// sensor and finishes the mission on the remaining clean sensors (§VII).
func ExampleNewResponder() {
	model := roboads.NewKheperaModel(0.1)
	suite := []roboads.Sensor{
		roboads.NewIPS(3),
		roboads.NewWheelEncoder(3),
		roboads.NewLidar(roboads.LabArena(), 3),
	}
	mission := roboads.LabMission()
	x0 := roboads.NewVec(mission.Start.X, mission.Start.Y, mission.StartHeading)
	u0 := model.WheelSpeeds(0.1, 0)
	plant := roboads.Plant{
		Model:       model,
		Q:           roboads.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
		UMax:        roboads.NewVec(0.8, 0.8),
	}
	modes, err := roboads.SingleReferenceModes(model, suite, x0, u0, false)
	if err != nil {
		fmt.Println(err)
		return
	}
	engine, err := roboads.NewEngine(plant, modes, x0, roboads.Diag(1e-6, 1e-6, 1e-6),
		roboads.DefaultEngineConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	detector := roboads.NewDetector(engine, roboads.DefaultDetectorConfig())
	analyzer := roboads.NewIncidentAnalyzer()
	responder := roboads.NewResponder(plant, suite, x0, u0,
		roboads.DefaultEngineConfig(), roboads.DefaultDetectorConfig())

	// The simulated mission supplies the monitor inputs; the detector
	// above is the one the responder swaps out.
	system, err := roboads.NewKheperaSystem(roboads.IPSSpoofingScenario(), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	for {
		rec, _, err := system.Step()
		if errors.Is(err, roboads.ErrMissionOver) {
			break
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		report, err := detector.Step(rec.UPlanned, rec.Readings)
		if err != nil {
			fmt.Println(err)
			return
		}
		analyzer.Observe(report.Decision)
		if names := responder.ShouldQuarantine(analyzer); len(names) > 0 {
			x, px := detector.State()
			if detector, err = responder.Quarantine(names, x, px); err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("t=%.1fs: quarantined %v\n", float64(rec.K)*system.Dt(), names)
		}
		if rec.Done {
			fmt.Printf("t=%.1fs: mission completed\n", float64(rec.K)*system.Dt())
			break
		}
	}
	for _, in := range analyzer.Incidents() {
		fmt.Printf("%s: %v anomaly from t=%.1fs, mean %+.2f m on x\n",
			in.Workflow, in.Shape, float64(in.OnsetIteration)*system.Dt(), in.Mean[0])
	}
	// Output:
	// t=7.0s: quarantined [ips]
	// t=29.8s: mission completed
	// ips: bias anomaly from t=6.1s, mean -0.10 m on x
}

// ExampleNewTelemetry sets one telemetry hub as both observers of a
// named-platform detector, steps a mission, and reads a counter from the
// hub's Prometheus endpoint — the same handler Serve puts on the network.
func ExampleNewTelemetry() {
	tel := roboads.NewTelemetry(roboads.TelemetryOptions{})
	ecfg, dcfg := roboads.DefaultEngineConfig(), roboads.DefaultDetectorConfig()
	ecfg.Observer, dcfg.Observer = tel, tel
	detector, err := roboads.NewRobotDetector("khepera", ecfg, dcfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	system, err := roboads.NewKheperaSystem(roboads.CleanScenario(), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	for {
		rec, _, err := system.Step()
		if errors.Is(err, roboads.ErrMissionOver) {
			break
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		if _, err := detector.Step(rec.UPlanned, rec.Readings); err != nil {
			fmt.Println(err)
			return
		}
		if rec.Done {
			break
		}
	}

	rr := httptest.NewRecorder()
	tel.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "roboads_engine_steps_total ") {
			fmt.Println(sc.Text())
		}
	}
	// Output: roboads_engine_steps_total 294
}

// ExampleObservable shows the §VI reference-observability check: a
// magnetometer alone cannot reconstruct the robot state, but grouped
// with a GPS it can.
func ExampleObservable() {
	model := roboads.NewKheperaModel(0.1)
	x0 := roboads.NewVec(1, 1, 0)
	u0 := model.WheelSpeeds(0.1, 0)

	mag := roboads.NewMagnetometer(3)
	fmt.Println("magnetometer alone:", roboads.Observable(model, mag, x0, u0))

	grouped, err := roboads.NewMode(
		[]roboads.Sensor{mag, roboads.NewGPS(3, 0.05)}, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("magnetometer+GPS:", roboads.Observable(model, grouped.Reference, x0, u0))
	// Output:
	// magnetometer alone: false
	// magnetometer+GPS: true
}

// ExampleNUISE runs a single estimation step directly: the reference IPS
// explains the motion, and the actuator anomaly estimate recovers an
// injected wheel-speed bias.
func ExampleNUISE() {
	model := roboads.NewKheperaModel(0.1)
	plant := roboads.Plant{
		Model:       model,
		Q:           roboads.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
	}
	ips := roboads.NewIPS(3)

	x := roboads.NewVec(1, 1, 0)
	u := model.WheelSpeeds(0.1, 0) // planned: drive straight
	bias := roboads.NewVec(-0.04, 0.04)

	// The robot actually executed u+bias; the IPS reads the true pose.
	xTrue := model.F(x, u.Add(bias))
	z2 := ips.H(xTrue) // noise-free for a deterministic example

	res, err := roboads.NUISE(plant, ips, nil, u, x, roboads.Diag(1e-6, 1e-6, 1e-6), nil, z2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("estimated anomaly: (%.3f, %.3f) m/s\n", res.Da[0], res.Da[1])
	// Output: estimated anomaly: (-0.040, 0.040) m/s
}

// ExampleReplayTrace records two iterations of monitor inputs and
// replays them offline.
func ExampleReplayTrace() {
	model := roboads.NewKheperaModel(0.1)
	suite := []roboads.Sensor{roboads.NewIPS(3), roboads.NewWheelEncoder(3)}
	x0 := roboads.NewVec(1, 1, 0)
	u := model.WheelSpeeds(0.1, 0)

	var buf bytes.Buffer
	recorder := roboads.NewTraceRecorder(&buf, roboads.TraceHeader{
		Robot: "khepera", Dt: 0.1, Sensors: []string{"ips", "wheel-encoder"},
	})
	x := x0.Clone()
	for k := 0; k < 2; k++ {
		x = model.F(x, u)
		readings := map[string]roboads.Vec{
			"ips":           suite[0].H(x),
			"wheel-encoder": suite[1].H(x),
		}
		if err := recorder.Record(k, u, readings); err != nil {
			fmt.Println(err)
			return
		}
	}
	if err := recorder.Flush(); err != nil {
		fmt.Println(err)
		return
	}

	modes, err := roboads.SingleReferenceModes(model, suite, x0, u, false)
	if err != nil {
		fmt.Println(err)
		return
	}
	engine, err := roboads.NewEngine(roboads.Plant{
		Model:       model,
		Q:           roboads.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
	}, modes, x0, roboads.Diag(1e-6, 1e-6, 1e-6), roboads.DefaultEngineConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	detector := roboads.NewDetector(engine, roboads.DefaultDetectorConfig())

	reports, err := roboads.ReplayTrace(&buf, detector)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("replayed iterations:", len(reports))
	fmt.Println("clean:", reports[1].Decision.Condition.Clean())
	// Output:
	// replayed iterations: 2
	// clean: true
}
