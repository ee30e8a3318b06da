package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/baseline"
	"roboads/internal/mat"
	"roboads/internal/metrics"
	"roboads/internal/scenario"
	"roboads/internal/sim"
)

// RelatedWorkResult compares the detector families of §II-C on the
// Table II workload: RoboADS, the once-linearized model-based approach
// [20], a time-based periodicity monitor [29]–[31], and a
// learning-based cross-sensor norm model [34]–[36]. Sensor detection is
// binary (alarm while any sensor is corrupted); Identifies reports
// whether the approach can attribute the misbehavior to a workflow.
type RelatedWorkResult struct {
	Rows []RelatedWorkRow
}

// RelatedWorkRow is one approach's aggregate performance.
type RelatedWorkRow struct {
	// Approach names the detector family.
	Approach string
	// SensorTPR/FPR are binary sensor-misbehavior detection rates.
	SensorTPR, SensorFPR float64
	// ActuatorTPR is the binary actuator-misbehavior detection rate.
	ActuatorTPR float64
	// Identifies reports workflow-level attribution capability.
	Identifies bool
}

// RelatedWork runs the comparison. The learning-based model is trained
// on a clean mission with a disjoint seed, mirroring its "collect a
// large amount of robot operation data" methodology.
func RelatedWork(trials int, baseSeed int64) (*RelatedWorkResult, error) {
	if trials < 1 {
		trials = 1
	}
	// Train the learning model on clean data.
	learner := baseline.NewLearningBased(0.005)
	trainScenario := attack.CleanScenario()
	trainSetup, err := sim.NewKhepera(sim.LabMission(), &trainScenario, baseSeed+1000)
	if err != nil {
		return nil, err
	}
	trainRecords, err := trainSetup.Sim.Run(scenario.MaxIterations)
	if err != nil {
		return nil, err
	}
	var trainFeatures []mat.Vec
	for _, rec := range trainRecords {
		f, err := baseline.ConsistencyFeatures(rec.Readings)
		if err != nil {
			return nil, err
		}
		trainFeatures = append(trainFeatures, f)
	}
	if err := learner.Train(trainFeatures); err != nil {
		return nil, err
	}

	var adsS, adsA, linS, linA, timeS, learnS metrics.Confusion
	timeA, learnA := metrics.Confusion{}, metrics.Confusion{}

	for _, sc := range append([]attack.Scenario{attack.CleanScenario()}, attack.KheperaScenarios()...) {
		// RoboADS and the linear baseline reuse the full pipeline.
		ads, err := trialsOf("khepera", sc, trials, baseSeed, scenario.DefaultDetector)
		if err != nil {
			return nil, err
		}
		lin, err := trialsOf("khepera", sc, trials, baseSeed, linearDetector)
		if err != nil {
			return nil, err
		}
		for trial := range ads {
			seed := baseSeed + int64(trial)
			accumulateBinary(&adsS, &adsA, ads[trial])
			accumulateBinary(&linS, &linA, lin[trial])

			// Time-based and learning-based run on the raw reading
			// stream (same seed → identical simulation).
			setup, err := sim.NewKhepera(sim.LabMission(), &sc, seed)
			if err != nil {
				return nil, err
			}
			records, err := setup.Sim.Run(scenario.MaxIterations)
			if err != nil {
				return nil, err
			}
			timeMonitor := baseline.NewTimeBased()
			for _, rec := range records {
				truthSensor := len(rec.Truth.CorruptedSensors) > 0
				truthActuator := rec.Truth.ActuatorCorrupted

				published := make(map[string]bool, len(rec.Readings))
				for name := range rec.Readings {
					published[name] = true
				}
				flagged := timeMonitor.Observe(rec.K, published)
				timeS.Add(truthSensor, len(flagged) > 0, true)
				timeA.Add(truthActuator, false, true) // content-agnostic

				features, err := baseline.ConsistencyFeatures(rec.Readings)
				if err != nil {
					return nil, err
				}
				_, anomalous, err := learner.Score(features)
				if err != nil {
					return nil, err
				}
				learnS.Add(truthSensor, anomalous, true)
				learnA.Add(truthActuator, false, true) // no command model
			}
		}
	}

	return &RelatedWorkResult{Rows: []RelatedWorkRow{
		{Approach: "RoboADS", SensorTPR: adsS.TPR(), SensorFPR: adsS.FPR(), ActuatorTPR: adsA.TPR(), Identifies: true},
		{Approach: "linear model-based [20]", SensorTPR: linS.TPR(), SensorFPR: linS.FPR(), ActuatorTPR: linA.TPR(), Identifies: true},
		{Approach: "learning-based [34-36]", SensorTPR: learnS.TPR(), SensorFPR: learnS.FPR(), ActuatorTPR: learnA.TPR(), Identifies: false},
		{Approach: "time-based [29-31]", SensorTPR: timeS.TPR(), SensorFPR: timeS.FPR(), ActuatorTPR: timeA.TPR(), Identifies: false},
	}}, nil
}

// accumulateBinary folds a run into binary sensor/actuator confusions.
func accumulateBinary(sensor, actuator *metrics.Confusion, run *scenario.Run) {
	for _, tr := range run.Trace {
		sensor.Add(len(tr.Truth.CorruptedSensors) > 0, tr.Decision.SensorAlarm, true)
		if tr.DaValid {
			actuator.Add(tr.Truth.ActuatorCorrupted, tr.Decision.ActuatorAlarm, true)
		}
	}
}

// Write renders the comparison table.
func (r *RelatedWorkResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Related-work comparison on the Table II workload (§II-C families)")
	fmt.Fprintf(w, "%-26s %-12s %-12s %-14s %s\n",
		"approach", "sensor TPR", "sensor FPR", "actuator TPR", "identifies workflow")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-12s %-12s %-14s %v\n",
			row.Approach, pct(row.SensorTPR), pct(row.SensorFPR), pct(row.ActuatorTPR), row.Identifies)
	}
	fmt.Fprintln(w, "\ntime-based monitors never see content corruptions (periodicity intact);")
	fmt.Fprintln(w, "learning-based models catch cross-sensor inconsistencies but cannot attribute")
	fmt.Fprintln(w, "them or see actuator misbehaviors (no command/motion model).")
}
