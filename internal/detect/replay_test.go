package detect_test

import (
	"reflect"
	"strings"
	"testing"

	"roboads/internal/detect"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/testkit"
)

// attackedFrames returns the frames of an attacked scenario of the
// default suite, with the profile its detector is built from: Khepera
// under a wheel-controller and IPS logic bomb (Table II #8), which
// alarms on both sides, and Tamiya under IPS spoofing (#103).
func attackedFrames(t *testing.T, robotName string) (robot.Profile, []*sim.StepRecord) {
	t.Helper()
	name := map[string]string{"khepera": "table2-08 ", "tamiya": "tamiya-103 "}[robotName]
	suite, err := scenario.Default(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range suite.Scenarios {
		sc := &suite.Scenarios[i]
		if !strings.HasPrefix(sc.Name, name) {
			continue
		}
		prof, recs, err := scenario.Frames(sc, 5)
		if err != nil {
			t.Fatal(err)
		}
		return prof, recs
	}
	t.Fatalf("no scenario %q for %s in the default suite", name, robotName)
	return robot.Profile{}, nil
}

// A warmed Detector.Step allocates what its caller receives: the
// engine's share (TestEngineStepAllocs), then the Report and its Decision
// in one block and, while a sensor alarm is confirmed, the condition's
// sensor list. The ceilings are what these frames measure; the χ²
// statistics allocate nothing (the per-sensor ones are the engine
// Output's).
func TestDetectorStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		robot          string
		ceiling, bytes float64
	}{{"khepera", 6, 1430}, {"tamiya", 5, 1060}} {
		t.Run(tc.robot, func(t *testing.T) {
			prof, recs := attackedFrames(t, tc.robot)
			det, err := scenario.DefaultDetector(prof)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			step := func() {
				rec := recs[k%len(recs)]
				if _, err := det.Step(rec.UPlanned, rec.Readings); err != nil {
					t.Fatal(err)
				}
				k++
			}
			for k < 100 {
				step()
			}
			if got := testing.AllocsPerRun(200, step); got > tc.ceiling {
				t.Fatalf("Detector.Step allocates %.1f times per step, ceiling %v", got, tc.ceiling)
			}
			if got := testkit.BytesPerRun(200, step); got > tc.bytes {
				t.Fatalf("Detector.Step allocates %.0f B per step, ceiling %.0f", got, tc.bytes)
			}
		})
	}
}

// Decide reads nothing but its Output and the decider's windows: a
// fresh decider that decides the retained Outputs of a finished run, in
// order, long after the engine stepped past them, makes the run's
// decisions again.
func TestDecideIsPureInOutput(t *testing.T) {
	for _, robotName := range []string{"khepera", "tamiya"} {
		t.Run(robotName, func(t *testing.T) {
			prof, recs := attackedFrames(t, robotName)
			det, err := scenario.DefaultDetector(prof)
			if err != nil {
				t.Fatal(err)
			}
			reports := make([]*detect.Report, len(recs))
			for k, rec := range recs {
				if reports[k], err = det.Step(rec.UPlanned, rec.Readings); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
			alarms := 0
			later := detect.NewDecider(detect.DefaultConfig())
			for k, rep := range reports {
				dec, err := later.Decide(rep.Engine)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if !reflect.DeepEqual(dec, rep.Decision) {
					t.Fatalf("k=%d: later decision\n%+v\nwant\n%+v", k, dec, rep.Decision)
				}
				if !dec.Condition.Clean() {
					alarms++
				}
			}
			if alarms == 0 {
				t.Fatal("no iteration alarmed: the run tests nothing")
			}
		})
	}
}
