package eval

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/metrics"
	"roboads/internal/scenario"
	"roboads/internal/sim"
)

// Table2Row is one scenario's aggregated detection results (Table II,
// right half).
type Table2Row struct {
	// ID and Name identify the scenario.
	ID   int
	Name string
	// Description is the attack summary (left half of Table II).
	Description string
	// SensorResult is the confirmed sensor-condition transition
	// sequence, e.g. "S0→2→4".
	SensorResult string
	// ActuatorResult is the actuator transition sequence, e.g. "A0→1".
	ActuatorResult string
	// DelaySeconds maps each attacked workflow ("actuator" for actuator
	// attacks) to the mean detection delay in seconds (−1 = missed).
	DelaySeconds map[string]float64
	// SensorFPR/FNR and ActuatorFPR/FNR aggregate the per-iteration
	// confusions over all trials.
	SensorFPR, SensorFNR     float64
	ActuatorFPR, ActuatorFNR float64
	// Trials is the number of missions aggregated.
	Trials int
}

// Table2Result is the complete reproduction of Table II.
type Table2Result struct {
	// Rows holds one entry per scenario, ordered by ID.
	Rows []Table2Row
	// AvgSensorFPR etc. are the cross-scenario averages quoted in §V-C
	// (paper: 0.86% / 0.97% average FPR/FNR, delays 0.35s sensor,
	// 0.61s actuator).
	AvgFPR, AvgFNR                         float64
	AvgSensorDelaySec, AvgActuatorDelaySec float64
}

// Table2 reproduces Table II: every Khepera scenario is run `trials`
// times and the detection results aggregated. A target whose attack
// never becomes active within its mission has no delay to list.
func Table2(trials int, baseSeed int64) (*Table2Result, error) {
	if trials < 1 {
		trials = 1
	}
	out := &Table2Result{}
	var totalS, totalA metrics.Confusion
	var sensorDelays, actuatorDelays []metrics.Delay

	for _, sc := range attack.KheperaScenarios() {
		runs, err := trialsOf("khepera", sc, trials, baseSeed, scenario.DefaultDetector)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			ID:             sc.ID,
			Name:           sc.Name,
			Description:    sc.Description,
			SensorResult:   arrowJoin(runs[0].SensorCodeSequence(3)),
			ActuatorResult: arrowJoin(runs[0].ActuatorCodeSequence(3)),
			DelaySeconds:   make(map[string]float64),
			Trials:         trials,
		}
		var sConf, aConf metrics.Confusion
		delayAcc := make(map[string][]metrics.Delay)
		for _, run := range runs {
			sConf.Merge(run.SensorConfusion())
			aConf.Merge(run.ActuatorConfusion())
			for _, t := range run.Targets() {
				if t.Onset < 0 {
					continue
				}
				delayAcc[t.Name] = append(delayAcc[t.Name], t.Delay)
				if t.Name == "actuator" {
					actuatorDelays = append(actuatorDelays, t.Delay)
				} else {
					sensorDelays = append(sensorDelays, t.Delay)
				}
			}
		}
		row.SensorFPR, row.SensorFNR = sConf.FPR(), sConf.FNR()
		row.ActuatorFPR, row.ActuatorFNR = aConf.FPR(), aConf.FNR()
		for target, ds := range delayAcc {
			row.DelaySeconds[target] = metrics.MeanDelaySeconds(ds, sim.KheperaDt)
		}
		out.Rows = append(out.Rows, row)
		totalS.Merge(sConf)
		totalA.Merge(aConf)
	}
	var merged metrics.Confusion
	merged.Merge(totalS)
	merged.Merge(totalA)
	out.AvgFPR = merged.FPR()
	out.AvgFNR = merged.FNR()
	out.AvgSensorDelaySec = metrics.MeanDelaySeconds(sensorDelays, sim.KheperaDt)
	out.AvgActuatorDelaySec = metrics.MeanDelaySeconds(actuatorDelays, sim.KheperaDt)
	return out, nil
}

// arrowJoin renders ["S0","S2","S4"] as "S0→2→4" (the paper's notation).
func arrowJoin(codes []string) string {
	if len(codes) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(codes[0])
	for _, c := range codes[1:] {
		sb.WriteString("→")
		// Strip the leading letter for the paper's compact form.
		sb.WriteString(strings.TrimLeft(c, "SA"))
	}
	return sb.String()
}

// Write renders the table in the paper's layout.
func (t *Table2Result) Write(w io.Writer) {
	fmt.Fprintf(w, "%-3s %-38s %-14s %-22s %-28s %s\n",
		"#", "Scenario", "Result", "Delay (s)", "Sensor FPR/FNR", "Actuator FPR/FNR")
	for _, row := range t.Rows {
		result := row.SensorResult
		if row.ActuatorResult != "" && row.ActuatorResult != "A0" {
			if result != "" && result != "S0" {
				result += " " + row.ActuatorResult
			} else {
				result = row.ActuatorResult
			}
		}
		fmt.Fprintf(w, "%-3d %-38s %-14s %-22s %-28s %s\n",
			row.ID, truncate(row.Name, 38), result,
			formatDelays(row.DelaySeconds),
			fmt.Sprintf("%.2f%% / %.2f%%", 100*row.SensorFPR, 100*row.SensorFNR),
			fmt.Sprintf("%.2f%% / %.2f%%", 100*row.ActuatorFPR, 100*row.ActuatorFNR))
	}
	fmt.Fprintf(w, "\naverage FPR %.2f%%  average FNR %.2f%%  (paper: 0.86%% / 0.97%%)\n",
		100*t.AvgFPR, 100*t.AvgFNR)
	fmt.Fprintf(w, "average delay: sensor %.2fs, actuator %.2fs  (paper: 0.35s / 0.61s)\n",
		t.AvgSensorDelaySec, t.AvgActuatorDelaySec)
}

func formatDelays(delays map[string]float64) string {
	keys := make([]string, 0, len(delays))
	for k := range delays {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%.2f", shortName(k), delays[k]))
	}
	return strings.Join(parts, " ")
}

func shortName(workflow string) string {
	switch workflow {
	case detect.SensorIPS:
		return "I"
	case detect.SensorWheelEncoder:
		return "W"
	case detect.SensorLidar:
		return "L"
	case "actuator":
		return "A"
	default:
		return workflow
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
