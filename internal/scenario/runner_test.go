package scenario_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/metrics"
	"roboads/internal/scenario"
)

// smallSuite is a fast mixed workload: a plain Table II-style bias, an
// intermittent pulse, an environment anomaly, and a clean mission.
func smallSuite(seed int64) *scenario.Suite {
	return &scenario.Suite{
		Version: scenario.Version,
		Name:    "small",
		Seed:    seed,
		Scenarios: []scenario.Scenario{
			{Name: "clean", Class: "clean", Robot: "khepera", Iterations: 150},
			{Name: "ips-bias", Class: "table2", Robot: "khepera", Iterations: 200,
				Attacks: []scenario.Attack{{
					Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.07, 0, 0},
					Via: "cyber", Envelope: scenario.Envelope{Start: 60},
				}}},
			{Name: "pulsed-ips", Class: "intermittent", Robot: "khepera", Iterations: 200,
				Attacks: []scenario.Attack{{
					Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.07, 0, 0},
					Via: "physical", Envelope: scenario.Envelope{Start: 60, Period: 40, Duty: 0.5},
				}}},
			{Name: "slip", Class: "environment", Robot: "khepera", Iterations: 220,
				Attacks: []scenario.Attack{{
					Kind: "wheel-slip", Slip: 0.5, Wheels: []int{0},
					Via: "environment", Envelope: scenario.Envelope{Start: 80, Ramp: 30},
				}}},
		},
	}
}

// TestSuiteReproducible pins the acceptance contract: a suite run is
// bit-for-bit reproducible from {seed, DSL}, including through a JSON
// round trip of the document.
func TestSuiteReproducible(t *testing.T) {
	s1 := smallSuite(9)
	data, err := s1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := scenario.RunSuite(s1, scenario.RunConfig{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := scenario.RunSuite(s2, scenario.RunConfig{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Fatalf("suite run not reproducible:\n%s\n%s", j1, j2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("suite results differ structurally")
	}
}

// TestSuiteWorkersDeterminism pins that Workers is throughput-only:
// concurrent execution produces the sequential result bit-for-bit.
func TestSuiteWorkersDeterminism(t *testing.T) {
	base, err := scenario.RunSuite(smallSuite(4), scenario.RunConfig{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenario.RunSuite(smallSuite(4), scenario.RunConfig{Trials: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		b1, _ := json.Marshal(base)
		b2, _ := json.Marshal(got)
		t.Fatalf("Workers 4 diverged from sequential:\n%s\n%s", b1, b2)
	}
}

// TestDSLLiftMatchesRunMission pins the DSL lift as the identity through
// the one mission runner: every Table II and Tamiya scenario, lifted
// through FromScenario and run by RunOne, reduces to what its hardcoded
// form flown by RunMission does — confusions, per-target delays and
// iterations.
func TestDSLLiftMatchesRunMission(t *testing.T) {
	const seed = 21
	cases := []struct {
		robot     string
		scenarios []attack.Scenario
	}{
		{"khepera", attack.KheperaScenarios()},
		{"tamiya", attack.TamiyaScenarios()},
	}
	for _, c := range cases {
		for _, orig := range c.scenarios {
			run, err := scenario.RunMission(c.robot, "lab", orig, seed, scenario.MaxIterations, scenario.DefaultDetector)
			if err != nil {
				t.Fatal(err)
			}
			dsl, err := scenario.FromScenario(orig, c.robot, "table2")
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.RunOne(dsl, seed, scenario.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if res.SensorConfusion != run.SensorConfusion() {
				t.Errorf("%s: sensor confusion %v != %v", orig.Name, res.SensorConfusion, run.SensorConfusion())
			}
			if res.ActuatorConfusion != run.ActuatorConfusion() {
				t.Errorf("%s: actuator confusion %v != %v", orig.Name, res.ActuatorConfusion, run.ActuatorConfusion())
			}
			targets := run.Targets()
			if len(res.Targets) != len(targets) {
				t.Errorf("%s: %d targets != %d", orig.Name, len(res.Targets), len(targets))
			}
			for _, target := range targets {
				if got, want := res.Targets[target.Name].DelaySec, target.Delay.Seconds(run.Dt); got != want {
					t.Errorf("%s: delay[%s] %v != %v", orig.Name, target.Name, got, want)
				}
			}
			if res.Iterations != len(run.Trace) {
				t.Errorf("%s: iterations %d != %d", orig.Name, res.Iterations, len(run.Trace))
			}
		}
	}
}

// TestRunConfusionDefinitions checks the identification-aware sensor
// confusion on a real mission: it partitions the trace, and a detectable
// attack yields true positives.
func TestRunConfusionDefinitions(t *testing.T) {
	run, err := scenario.RunMission("khepera", "lab", attack.KheperaScenarios()[2], // #3 IPS logic bomb
		42, scenario.MaxIterations, scenario.DefaultDetector)
	if err != nil {
		t.Fatal(err)
	}
	c := run.SensorConfusion()
	if c.TP == 0 {
		t.Fatal("no true positives on a detectable scenario")
	}
	if c.TP+c.FP+c.FN+c.TN != len(run.Trace) {
		t.Fatal("confusion does not partition the trace")
	}
}

// TestRunnerHelpers pins the paper's strict sensor definitions on a
// synthetic trace: an alarm is a true positive only when the confirmed
// set is exactly the corrupted one, and an alarm confirming no sensor is
// no alarm.
func TestRunnerHelpers(t *testing.T) {
	ips := attack.Truth{CorruptedSensors: map[string]bool{detect.SensorIPS: true}}
	iter := func(truth attack.Truth, confirmed ...string) scenario.IterationTrace {
		return scenario.IterationTrace{Truth: truth, Decision: &detect.Decision{
			SensorAlarm: true, Condition: detect.Condition{Sensors: confirmed},
		}}
	}
	run := &scenario.Run{Trace: []scenario.IterationTrace{
		iter(ips, detect.SensorIPS),
		iter(ips, detect.SensorLidar),
		iter(ips, detect.SensorIPS, detect.SensorLidar),
		iter(ips),
		iter(attack.Truth{}),
	}}
	if got, want := run.SensorConfusion(), (metrics.Confusion{TP: 1, FP: 2, FN: 1, TN: 1}); got != want {
		t.Fatalf("sensor confusion %+v, want %+v", got, want)
	}
}

// TestRunTargets pins the per-target accounting on a synthetic trace:
// only a target's first window counts, a window that never opens gives
// onset −1 and no detection, and the order is the sensors by name, then
// the actuator. A suite counts such a target as missed.
func TestRunTargets(t *testing.T) {
	iter := func(actuatorAlarm bool, confirmed ...string) scenario.IterationTrace {
		return scenario.IterationTrace{Decision: &detect.Decision{
			ActuatorAlarm: actuatorAlarm, Condition: detect.Condition{Sensors: confirmed},
		}}
	}
	run := &scenario.Run{
		Dt: 0.1,
		Scenario: attack.Scenario{
			SensorAttacks: []attack.SensorAttack{
				&attack.Bias{Sensor: detect.SensorLidar, Env: attack.Envelope{Win: attack.Window{Start: 2}}},
				&attack.Bias{Sensor: detect.SensorLidar, Env: attack.Envelope{Win: attack.Window{Start: 0}}},
				&attack.Bias{Sensor: detect.SensorIPS, Env: attack.Envelope{Win: attack.Window{Start: 9}}},
			},
			ActuatorAttacks: []attack.ActuatorAttack{
				&attack.ActuatorBias{Env: attack.Envelope{Win: attack.Window{Start: 3}}},
				&attack.ActuatorBias{Env: attack.Envelope{Win: attack.Window{Start: 1}}},
			},
		},
		Trace: []scenario.IterationTrace{
			iter(false, detect.SensorLidar),
			iter(true),
			iter(false),
			iter(true, detect.SensorLidar),
		},
	}
	want := []scenario.Target{
		{Name: detect.SensorIPS, Onset: -1, Delay: metrics.Delay{Onset: -1, Detected: -1}},
		{Name: detect.SensorLidar, Onset: 2, Delay: metrics.Delay{Onset: 2, Detected: 3}, AlarmFraction: 0.5},
		{Name: "actuator", Onset: 1, Delay: metrics.Delay{Onset: 1, Detected: 1}, AlarmFraction: 2.0 / 3},
	}
	if got := run.Targets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("targets\n%+v, want\n%+v", got, want)
	}

	late := scenario.Scenario{Name: "late", Robot: "khepera", Iterations: 40,
		Attacks: []scenario.Attack{{
			Kind: "bias", Sensor: detect.SensorIPS, Offset: []float64{0.07, 0, 0},
			Via: "cyber", Envelope: scenario.Envelope{Start: 100},
		}}}
	res, err := scenario.RunOne(late, 1, scenario.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets[detect.SensorIPS]; res.Missed != 1 || got.Onset != -1 || got.DelaySec != -1 {
		t.Fatalf("never-opening window: missed %d, target %+v", res.Missed, got)
	}
}

// TestSuiteBitsRepeat pins a suite result to the last bit across runs.
// The coordinated campaign detects three targets, so its mean delay sums
// three float delays: summed in a fixed order it repeats, summed in map
// order it read one of two values at seed 2.
func TestSuiteBitsRepeat(t *testing.T) {
	s, err := scenario.Default(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range s.Scenarios {
		if sc.Name == "coordinated-campaign" {
			s.Scenarios = []scenario.Scenario{sc}
		}
	}
	if len(s.Scenarios) != 1 {
		t.Fatal("no coordinated-campaign scenario in the default suite")
	}
	first, err := scenario.RunSuite(s, scenario.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 30; i++ {
		got, err := scenario.RunSuite(s, scenario.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: mean delay %v, first run %v", i, got.Results[0].MeanDelaySec, first.Results[0].MeanDelaySec)
		}
	}
}

// TestWarehouseScenarioRuns exercises the world × scenario composition:
// the warehouse mission must execute with an active schedule and produce
// actuator-positive ground truth.
func TestWarehouseScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long mission")
	}
	sc := scenario.Scenario{
		Name: "wh", Class: "environment", Robot: "khepera", World: "warehouse",
		Iterations: 400,
		Attacks: []scenario.Attack{{
			Kind: "wheel-slip", Slip: 0.4, Wheels: []int{0},
			Via: "environment", Envelope: scenario.Envelope{Start: 100, Ramp: 30},
		}},
	}
	res, err := scenario.RunOne(sc, 2, scenario.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 300 {
		t.Fatalf("warehouse mission too short: %d iterations", res.Iterations)
	}
	if !res.ActuatorConfusion.HasPositives() {
		t.Fatal("wheel slip produced no actuator-positive iterations")
	}
	if _, ok := res.Targets["actuator"]; !ok {
		t.Fatal("no actuator target stats")
	}
}

// TestRecordConversion checks the leaderboard record shape.
func TestRecordConversion(t *testing.T) {
	s := smallSuite(3)
	res, err := scenario.RunSuite(s, scenario.RunConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := res.Record(s, "test", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Config.Suite != "small" || rec.Config.Scenarios != 4 || rec.Config.Seed != 3 {
		t.Fatalf("bad config: %+v", rec.Config)
	}
	if rec.Config.SuiteHash == "" {
		t.Fatal("missing suite hash")
	}
	if len(rec.Results.Scenarios) != 4 {
		t.Fatalf("rows = %d, want 4", len(rec.Results.Scenarios))
	}
	var biasRow bool
	for _, row := range rec.Results.Scenarios {
		if row.Name == "ips-bias" {
			biasRow = true
			if row.DelaySec[detect.SensorIPS] < 0 {
				t.Errorf("ips-bias not detected: %+v", row)
			}
		}
	}
	if !biasRow {
		t.Fatal("missing ips-bias row")
	}
}
