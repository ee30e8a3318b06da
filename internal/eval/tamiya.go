package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/metrics"
	"roboads/internal/scenario"
	"roboads/internal/sim"
)

// TamiyaRow is one RC-car scenario's aggregate result (§V-D).
type TamiyaRow struct {
	ID                       int
	Name                     string
	SensorFPR, SensorFNR     float64
	ActuatorFPR, ActuatorFNR float64
	// DelaySec is the mean detection delay across the scenario's
	// attacks, −1 when nothing was detected.
	DelaySec float64
}

// TamiyaResult reproduces §V-D: the same detector on a robot with a
// distinct dynamic model (kinematic bicycle) and sensor suite (IPS,
// LiDAR, IMU). The paper reports 2.77%/0.83% average FPR/FNR and 0.33 s
// average delay.
type TamiyaResult struct {
	Rows           []TamiyaRow
	AvgFPR, AvgFNR float64
	AvgDelaySec    float64
}

// Tamiya runs the §V-D scenario suite.
func Tamiya(trials int, baseSeed int64) (*TamiyaResult, error) {
	if trials < 1 {
		trials = 1
	}
	out := &TamiyaResult{}
	var totalS, totalA metrics.Confusion
	var allDelays []metrics.Delay

	for _, sc := range attack.TamiyaScenarios() {
		runs, err := trialsOf("tamiya", sc, trials, baseSeed, scenario.DefaultDetector)
		if err != nil {
			return nil, err
		}
		var sConf, aConf metrics.Confusion
		var delays []metrics.Delay
		for _, run := range runs {
			sConf.Merge(run.SensorConfusion())
			aConf.Merge(run.ActuatorConfusion())
			for _, t := range run.Targets() {
				if t.Onset >= 0 {
					delays = append(delays, t.Delay)
				}
			}
		}
		row := TamiyaRow{
			ID:          sc.ID,
			Name:        sc.Name,
			SensorFPR:   sConf.FPR(),
			SensorFNR:   sConf.FNR(),
			ActuatorFPR: aConf.FPR(),
			ActuatorFNR: aConf.FNR(),
			DelaySec:    metrics.MeanDelaySeconds(delays, sim.TamiyaDt),
		}
		out.Rows = append(out.Rows, row)
		allDelays = append(allDelays, delays...)
		totalS.Merge(sConf)
		totalA.Merge(aConf)
	}
	var merged metrics.Confusion
	merged.Merge(totalS)
	merged.Merge(totalA)
	out.AvgFPR = merged.FPR()
	out.AvgFNR = merged.FNR()
	out.AvgDelaySec = metrics.MeanDelaySeconds(allDelays, sim.TamiyaDt)
	return out, nil
}

// Write renders the suite results.
func (t *TamiyaResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Tamiya RC car (§V-D, bicycle model; sensors IPS/LiDAR/IMU)")
	fmt.Fprintf(w, "%-5s %-26s %-22s %-22s %s\n", "#", "Scenario", "Sensor FPR/FNR", "Actuator FPR/FNR", "Delay (s)")
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%-5d %-26s %-22s %-22s %.2f\n",
			row.ID, truncate(row.Name, 26),
			fmt.Sprintf("%.2f%% / %.2f%%", 100*row.SensorFPR, 100*row.SensorFNR),
			fmt.Sprintf("%.2f%% / %.2f%%", 100*row.ActuatorFPR, 100*row.ActuatorFNR),
			row.DelaySec)
	}
	fmt.Fprintf(w, "\naverage FPR %.2f%%  FNR %.2f%%  delay %.2fs  (paper: 2.77%% / 0.83%% / 0.33s)\n",
		100*t.AvgFPR, 100*t.AvgFNR, t.AvgDelaySec)
}
