package scenario_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/eval"
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

// TestRunnerMatchesEvalHarness pins the runner against the historical
// evaluation harness: a Table II scenario lifted through the DSL must
// reproduce eval.RunKheperaScenario's confusion counts and delay
// exactly.
func TestRunnerMatchesEvalHarness(t *testing.T) {
	orig := attack.KheperaScenarios()[2] // #3 IPS logic bomb
	const seed = 21
	run, err := eval.RunKheperaScenario(orig, seed, detect.DefaultConfig(), eval.KheperaDetector)
	if err != nil {
		t.Fatal(err)
	}
	dsl, err := scenario.FromScenario(orig, "khepera", "table2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.RunOne(dsl, seed, scenario.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SensorConfusion != run.SensorConfusion() {
		t.Errorf("sensor confusion %v != eval %v", res.SensorConfusion, run.SensorConfusion())
	}
	if res.ActuatorConfusion != run.ActuatorConfusion() {
		t.Errorf("actuator confusion %v != eval %v", res.ActuatorConfusion, run.ActuatorConfusion())
	}
	wantDelay := run.SensorDelays()[detect.SensorIPS].Seconds(run.Dt)
	if got := res.Targets[detect.SensorIPS].DelaySec; got != wantDelay {
		t.Errorf("delay %v != eval %v", got, wantDelay)
	}
	if res.Iterations != len(run.Trace) {
		t.Errorf("iterations %d != eval %d", res.Iterations, len(run.Trace))
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
