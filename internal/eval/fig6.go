package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/scenario"
)

// Fig6Point is one control iteration of the Fig. 6 raw-output time
// series for scenario #8.
type Fig6Point struct {
	// TimeSec is the mission time.
	TimeSec float64
	// DsIPS, DsWE (x, y, θ) and DsLidar (3 ranges + θ) are the
	// per-sensor anomaly estimates (zero when the sensor is the
	// selected mode's reference — it is hypothesized clean).
	DsIPS, DsWE, DsLidar mat.Vec
	// Da is the actuator anomaly estimate (vL, vR).
	Da mat.Vec
	// SensorStat and SensorThreshold are plot 5.
	SensorStat, SensorThreshold float64
	// SensorMode is the confirmed sensor condition code index (0–6,
	// plot 6).
	SensorMode int
	// ActuatorStat and ActuatorThreshold are plot 7.
	ActuatorStat, ActuatorThreshold float64
	// ActuatorMode is 0/1 (plot 8).
	ActuatorMode int
}

// Fig6Result is the full scenario #8 series.
type Fig6Result struct {
	// Dt is the control period.
	Dt float64
	// Points holds one entry per iteration.
	Points []Fig6Point
}

// Fig6 runs scenario #8 (wheel controller & IPS logic bomb) once and
// extracts the eight raw-output series of Fig. 6.
func Fig6(seed int64) (*Fig6Result, error) {
	run, err := scenario.RunMission("khepera", "lab", attack.KheperaScenarios()[7], // #8
		seed, scenario.MaxIterations, scenario.DefaultDetector)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{Dt: run.Dt}
	for _, tr := range run.Trace {
		p := Fig6Point{
			TimeSec:           float64(tr.K) * run.Dt,
			DsIPS:             mat.NewVec(3),
			DsWE:              mat.NewVec(3),
			DsLidar:           mat.NewVec(4),
			Da:                tr.Decision.Da,
			SensorStat:        tr.Decision.SensorStat,
			SensorThreshold:   tr.Decision.SensorThreshold,
			ActuatorStat:      tr.Decision.ActuatorStat,
			ActuatorThreshold: tr.Decision.ActuatorThreshold,
		}
		for _, sa := range tr.Decision.SensorAnomalies {
			switch sa.Sensor {
			case detect.SensorIPS:
				p.DsIPS = sa.Ds
			case detect.SensorWheelEncoder:
				p.DsWE = sa.Ds
			case detect.SensorLidar:
				p.DsLidar = sa.Ds
			}
		}
		p.SensorMode = sensorModeIndex(detect.KheperaSensorCode(tr.Decision.Condition))
		if tr.Decision.Condition.Actuator {
			p.ActuatorMode = 1
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

func sensorModeIndex(code string) int {
	if len(code) == 2 && code[0] == 'S' && code[1] >= '0' && code[1] <= '6' {
		return int(code[1] - '0')
	}
	return -1
}

// Write emits the series as TSV, one row per iteration, ready for any
// plotting tool.
func (f *Fig6Result) Write(w io.Writer) {
	fmt.Fprintln(w, "time\tds_ips_x\tds_ips_y\tds_ips_t\tds_we_x\tds_we_y\tds_we_t\t"+
		"ds_l_1\tds_l_2\tds_l_3\tds_l_t\tda_l\tda_r\t"+
		"s_stat\ts_thresh\ts_mode\ta_stat\ta_thresh\ta_mode")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%.2f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.5f\t%.3f\t%.3f\t%d\t%.3f\t%.3f\t%d\n",
			p.TimeSec,
			p.DsIPS[0], p.DsIPS[1], p.DsIPS[2],
			p.DsWE[0], p.DsWE[1], p.DsWE[2],
			p.DsLidar[0], p.DsLidar[1], p.DsLidar[2], p.DsLidar[3],
			p.Da[0], p.Da[1],
			p.SensorStat, p.SensorThreshold, p.SensorMode,
			p.ActuatorStat, p.ActuatorThreshold, p.ActuatorMode)
	}
}
