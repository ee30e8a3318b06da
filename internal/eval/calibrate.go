package eval

import (
	"errors"
	"fmt"
	"io"

	"roboads/internal/detect"
	"roboads/internal/scenario"
)

// Calibration is a selected set of decision parameters with the
// validation scores that chose them.
type Calibration struct {
	// Config is the selected decision configuration.
	Config detect.Config
	// SensorF1 and ActuatorF1 are the validation F1 scores at the
	// selected operating points.
	SensorF1, ActuatorF1 float64
}

// ErrNoOperatingPoint indicates the sweep found no configuration with a
// usable F1 (e.g. a workload without positives).
var ErrNoOperatingPoint = errors.New("eval: no usable operating point")

// calibrationAlphas is the confidence-level grid searched per side.
var calibrationAlphas = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1}

// Calibrate automates §V-F: given a validation workload of recorded runs
// (typically Fig7Workload on held-out seeds), it sweeps the confidence
// level α and the sliding-window parameters (w, c) for each misbehavior
// class offline and returns the F1-optimal decision configuration. This
// is the paper's manual Fig. 7 procedure packaged as a library call, so
// a deployment can re-tune after changing sensors or noise floors.
func Calibrate(runs []*scenario.Run) (*Calibration, error) {
	if len(runs) == 0 {
		return nil, errors.New("eval: empty validation workload")
	}
	out := &Calibration{}
	selectSide := func(sensorSide bool, maxW int) (alpha float64, w, c int, f1 float64, err error) {
		best := -1.0
		for _, a := range calibrationAlphas {
			for ww := 1; ww <= maxW; ww++ {
				for cc := 1; cc <= ww; cc++ {
					conf, err := reEvaluate(runs, a, ww, cc, sensorSide)
					if err != nil {
						return 0, 0, 0, 0, err
					}
					if score := conf.F1(); score > best {
						best = score
						alpha, w, c = a, ww, cc
					}
				}
			}
		}
		if best <= 0 {
			return 0, 0, 0, 0, fmt.Errorf("%w (%s side)", ErrNoOperatingPoint, sideName(sensorSide))
		}
		return alpha, w, c, best, nil
	}

	sa, sw, sc, sf1, err := selectSide(true, 6)
	if err != nil {
		return nil, err
	}
	aa, aw, ac, af1, err := selectSide(false, 7)
	if err != nil {
		return nil, err
	}
	out.Config = detect.Config{
		SensorAlpha:      sa,
		SensorWindow:     sw,
		SensorCriteria:   sc,
		ActuatorAlpha:    aa,
		ActuatorWindow:   aw,
		ActuatorCriteria: ac,
	}
	out.SensorF1, out.ActuatorF1 = sf1, af1
	return out, nil
}

// Write renders the selected parameters beside the paper's.
func (c *Calibration) Write(w io.Writer) {
	fmt.Fprintf(w, "calibrated decision parameters (validation F1 sensor %.4f / actuator %.4f):\n", c.SensorF1, c.ActuatorF1)
	fmt.Fprintf(w, "  sensor:   alpha=%g  c/w=%d/%d\n", c.Config.SensorAlpha, c.Config.SensorCriteria, c.Config.SensorWindow)
	fmt.Fprintf(w, "  actuator: alpha=%g  c/w=%d/%d\n", c.Config.ActuatorAlpha, c.Config.ActuatorCriteria, c.Config.ActuatorWindow)
	fmt.Fprintln(w, "paper selects: sensor alpha=0.005 c/w=2/2, actuator alpha=0.05 c/w=3/6")
}
