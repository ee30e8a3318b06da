package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/scenario"
)

// EvasivePoint is one magnitude of the §V-H stealthy-attack sweep.
type EvasivePoint struct {
	// Magnitude is the attack vector size (meters for the IPS bias,
	// speed units for the wheel-controller bias).
	Magnitude float64
	// AlarmFraction is the fraction of post-onset iterations with the
	// relevant alarm confirmed.
	AlarmFraction float64
	// Detected reports a sustained detection: AlarmFraction above the
	// sustained threshold (an isolated false alarm does not count).
	Detected bool
	// DelaySec is the detection delay, or −1 when undetected.
	DelaySec float64
}

// sustainedFraction is the post-onset alarm fraction that distinguishes
// a genuine detection from background false alarms (which run at a few
// percent).
const sustainedFraction = 0.2

// EvasiveResult reproduces §V-H: sweeping the attack vector down to find
// the largest magnitude that stays below the alarm threshold. The paper
// finds ≈0.02 m for stealthy IPS spoofing and ≈900 speed units
// (0.006 m/s) for a stealthy wheel-controller logic bomb.
type EvasiveResult struct {
	// IPSSweep covers IPS spoofing magnitudes in meters.
	IPSSweep []EvasivePoint
	// ActuatorSweep covers wheel-controller bias magnitudes in speed
	// units.
	ActuatorSweep []EvasivePoint
	// MaxStealthyIPSMeters is the largest undetected IPS shift.
	MaxStealthyIPSMeters float64
	// MaxStealthyActuatorUnits is the largest undetected speed-unit
	// bias.
	MaxStealthyActuatorUnits float64
}

// EvasiveIPSMagnitudes is the swept IPS spoof sizes in meters.
var EvasiveIPSMagnitudes = []float64{0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.02, 0.04, 0.07, 0.1}

// EvasiveActuatorUnits is the swept wheel-controller bias sizes in
// Khepera speed units.
var EvasiveActuatorUnits = []float64{150, 300, 600, 900, 1500, 2250, 3000, 4500, 6000}

// Evasive runs the §V-H sweeps. Each sweep point is a one-scenario DSL
// suite driven through the scenario runner — the same mission loop,
// detector construction, and post-onset accounting as every leaderboard
// scenario — rather than a bespoke evaluation loop.
func Evasive(seed int64) (*EvasiveResult, error) {
	out := &EvasiveResult{}

	for _, magnitude := range EvasiveIPSMagnitudes {
		sc := scenario.Scenario{
			Name:  fmt.Sprintf("stealthy IPS spoof %.3fm", magnitude),
			Class: "stealthy",
			Robot: "khepera",
			Attacks: []scenario.Attack{{
				Kind:     "bias",
				Sensor:   detect.SensorIPS,
				Offset:   []float64{magnitude, 0, 0},
				Via:      "physical",
				Envelope: scenario.Envelope{Start: 60},
			}},
		}
		res, err := scenario.RunOne(sc, seed, scenario.RunConfig{})
		if err != nil {
			return nil, err
		}
		target := res.Targets[detect.SensorIPS]
		point := EvasivePoint{Magnitude: magnitude, DelaySec: -1, AlarmFraction: target.AlarmFraction}
		if point.AlarmFraction >= sustainedFraction {
			point.Detected = true
			point.DelaySec = target.DelaySec
		}
		if !point.Detected && magnitude > out.MaxStealthyIPSMeters {
			out.MaxStealthyIPSMeters = magnitude
		}
		out.IPSSweep = append(out.IPSSweep, point)
	}

	for _, units := range EvasiveActuatorUnits {
		offset := units * attack.SpeedUnit
		sc := scenario.Scenario{
			Name:  fmt.Sprintf("stealthy wheel bias %.0f units", units),
			Class: "stealthy",
			Robot: "khepera",
			Attacks: []scenario.Attack{{
				Kind:     "actuator-bias",
				Offset:   []float64{-offset, offset},
				Via:      "cyber",
				Envelope: scenario.Envelope{Start: 60},
			}},
		}
		res, err := scenario.RunOne(sc, seed, scenario.RunConfig{})
		if err != nil {
			return nil, err
		}
		target := res.Targets["actuator"]
		point := EvasivePoint{Magnitude: units, DelaySec: -1, AlarmFraction: target.AlarmFraction}
		if point.AlarmFraction >= sustainedFraction {
			point.Detected = true
			point.DelaySec = target.DelaySec
		}
		if !point.Detected && units > out.MaxStealthyActuatorUnits {
			out.MaxStealthyActuatorUnits = units
		}
		out.ActuatorSweep = append(out.ActuatorSweep, point)
	}
	return out, nil
}

// Write renders both sweeps.
func (e *EvasiveResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Evasive attacks (§V-H)")
	fmt.Fprintf(w, "%-22s %-10s %s\n", "IPS spoof (m)", "detected", "delay (s)")
	for _, p := range e.IPSSweep {
		fmt.Fprintf(w, "%-22.4f %-10v %.2f\n", p.Magnitude, p.Detected, p.DelaySec)
	}
	fmt.Fprintf(w, "largest stealthy IPS shift: %.3f m (paper: <0.02 m)\n\n", e.MaxStealthyIPSMeters)
	fmt.Fprintf(w, "%-22s %-10s %s\n", "wheel bias (units)", "detected", "delay (s)")
	for _, p := range e.ActuatorSweep {
		fmt.Fprintf(w, "%-22.0f %-10v %.2f\n", p.Magnitude, p.Detected, p.DelaySec)
	}
	fmt.Fprintf(w, "largest stealthy wheel bias: %.0f units (paper: <900 units = 0.006 m/s)\n",
		e.MaxStealthyActuatorUnits)
}
