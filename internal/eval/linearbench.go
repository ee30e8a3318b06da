package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/baseline"
	"roboads/internal/detect"
	"roboads/internal/metrics"
	"roboads/internal/robot"
	"roboads/internal/scenario"
)

// LinearBenchResult reproduces §V-G: the Table II scenario suite run
// under the representative linear-system approach [20], where the robot
// model and measurement functions are linearized once at mission start.
// The frozen model's error grows as the robot maneuvers, so the baseline
// floods with false positives (paper: 61.68% FPR, no false negatives)
// while RoboADS's per-iteration relinearization stays accurate.
type LinearBenchResult struct {
	// LinearSensorFPR/FNR aggregate the baseline's sensor-side confusion
	// over all scenarios and trials.
	LinearSensorFPR, LinearSensorFNR float64
	// LinearActuatorFPR/FNR are the actuator-side rates.
	LinearActuatorFPR, LinearActuatorFNR float64
	// RoboADSSensorFPR etc. are the same workload under RoboADS for
	// comparison.
	RoboADSSensorFPR, RoboADSSensorFNR     float64
	RoboADSActuatorFPR, RoboADSActuatorFNR float64
}

// LinearBench runs the Table II workload under both detectors.
func LinearBench(trials int, baseSeed int64) (*LinearBenchResult, error) {
	if trials < 1 {
		trials = 1
	}
	var linS, linA, adsS, adsA metrics.Confusion
	for _, sc := range append([]attack.Scenario{attack.CleanScenario()}, attack.KheperaScenarios()...) {
		lin, err := trialsOf("khepera", sc, trials, baseSeed, linearDetector)
		if err != nil {
			return nil, fmt.Errorf("linear baseline: %w", err)
		}
		ads, err := trialsOf("khepera", sc, trials, baseSeed, scenario.DefaultDetector)
		if err != nil {
			return nil, err
		}
		for t := range lin {
			linS.Merge(lin[t].SensorConfusion())
			linA.Merge(lin[t].ActuatorConfusion())
			adsS.Merge(ads[t].SensorConfusion())
			adsA.Merge(ads[t].ActuatorConfusion())
		}
	}
	return &LinearBenchResult{
		LinearSensorFPR:    linS.FPR(),
		LinearSensorFNR:    linS.FNR(),
		LinearActuatorFPR:  linA.FPR(),
		LinearActuatorFNR:  linA.FNR(),
		RoboADSSensorFPR:   adsS.FPR(),
		RoboADSSensorFNR:   adsS.FNR(),
		RoboADSActuatorFPR: adsA.FPR(),
		RoboADSActuatorFNR: adsA.FNR(),
	}, nil
}

// linearDetector builds the §V-G baseline: the profile's model and
// sensors linearized once, at the mission start.
func linearDetector(p robot.Profile) (*detect.Detector, error) {
	p.Model = baseline.FreezeModel(p.Model, p.X0, p.ObsU0)
	p.Suite = baseline.FreezeSuite(p.Suite, p.X0)
	return scenario.DefaultDetector(p)
}

// Write renders the comparison.
func (l *LinearBenchResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Benchmark against the once-linearized approach [20] (§V-G)")
	fmt.Fprintf(w, "%-22s %-18s %-18s %-18s %s\n",
		"detector", "sensor FPR", "sensor FNR", "actuator FPR", "actuator FNR")
	fmt.Fprintf(w, "%-22s %-18s %-18s %-18s %s\n", "linear [20]",
		pct(l.LinearSensorFPR), pct(l.LinearSensorFNR),
		pct(l.LinearActuatorFPR), pct(l.LinearActuatorFNR))
	fmt.Fprintf(w, "%-22s %-18s %-18s %-18s %s\n", "RoboADS",
		pct(l.RoboADSSensorFPR), pct(l.RoboADSSensorFNR),
		pct(l.RoboADSActuatorFPR), pct(l.RoboADSActuatorFNR))
	fmt.Fprintln(w, "\npaper: linear approach 61.68% FPR with no false negatives")
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
