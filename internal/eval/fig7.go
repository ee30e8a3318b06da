package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/metrics"
	"roboads/internal/scenario"
	"roboads/internal/stat"
)

// Fig7WindowSettings are the c/w pairs plotted in Fig. 7(a,b).
var Fig7WindowSettings = []struct{ C, W int }{
	{1, 1}, {3, 3}, {6, 6},
}

// Fig7Alphas is the confidence-level sweep of §V-F
// (α = 0.0005 ∼ 0.995).
var Fig7Alphas = []float64{
	0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2,
	0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.995,
}

// Fig7Curve is one c/w setting's ROC curve.
type Fig7Curve struct {
	// C and W are the window criteria and size.
	C, W int
	// Points are the (α, FPR, TPR) operating points, sorted by FPR.
	Points []metrics.ROCPoint
	// AUC is the area under the curve.
	AUC float64
}

// Fig7ROCResult reproduces Fig. 7(a) or (b).
type Fig7ROCResult struct {
	// Side is "sensor" or "actuator".
	Side string
	// Curves holds one ROC per window setting.
	Curves []Fig7Curve
}

// Fig7F1Point is one (w, c) operating point of Fig. 7(c,d).
type Fig7F1Point struct {
	W, C int
	F1   float64
}

// Fig7F1Result reproduces Fig. 7(c) or (d).
type Fig7F1Result struct {
	// Side is "sensor" or "actuator".
	Side string
	// Alpha is the fixed confidence level.
	Alpha float64
	// Points cover the w/c grid.
	Points []Fig7F1Point
}

// Fig7Workload runs the mixed scenario workload once per seed and caches
// the traces: all eleven Table II scenarios plus a clean mission. The
// decision-parameter sweeps then re-threshold and re-window these traces
// offline, which is exact because the estimation engine does not depend
// on the decision parameters.
func Fig7Workload(trials int, baseSeed int64) ([]*scenario.Run, error) {
	var runs []*scenario.Run
	for _, sc := range append([]attack.Scenario{attack.CleanScenario()}, attack.KheperaScenarios()...) {
		scRuns, err := trialsOf("khepera", sc, trials, baseSeed, scenario.DefaultDetector)
		if err != nil {
			return nil, err
		}
		runs = append(runs, scRuns...)
	}
	return runs, nil
}

// reEvaluate computes the binary detection confusion over the cached
// traces at decision parameters (alpha, w, c). sensorSide selects the
// sensor or actuator statistic.
func reEvaluate(runs []*scenario.Run, alpha float64, w, c int, sensorSide bool) (metrics.Confusion, error) {
	var conf metrics.Confusion
	quantiles := make(map[int]float64)
	threshold := func(dof int) (float64, error) {
		if t, ok := quantiles[dof]; ok {
			return t, nil
		}
		t, err := stat.ChiSquareQuantile(alpha, dof)
		if err != nil {
			return 0, err
		}
		quantiles[dof] = t
		return t, nil
	}

	for _, run := range runs {
		window := detect.NewSlidingWindow(w, c)
		for _, tr := range run.Trace {
			var statVal float64
			var dof int
			var truthPos bool
			if sensorSide {
				statVal, dof = tr.Decision.SensorStat, tr.SensorDof
				truthPos = len(tr.Truth.CorruptedSensors) > 0
			} else {
				if !tr.DaValid {
					continue // detector abstained; no decision to score
				}
				statVal, dof = tr.Decision.ActuatorStat, tr.ActuatorDof
				truthPos = tr.Truth.ActuatorCorrupted
			}
			raw := false
			if dof > 0 {
				t, err := threshold(dof)
				if err != nil {
					return conf, err
				}
				raw = statVal > t
			}
			alarm := window.Push(raw)
			conf.Add(truthPos, alarm, true)
		}
	}
	return conf, nil
}

// Fig7ROC reproduces Fig. 7(a) (sensorSide=true) or 7(b): the ROC of
// misbehavior detection across the confidence-level sweep for each
// window setting.
func Fig7ROC(runs []*scenario.Run, sensorSide bool) (*Fig7ROCResult, error) {
	out := &Fig7ROCResult{Side: sideName(sensorSide)}
	for _, setting := range Fig7WindowSettings {
		curve := Fig7Curve{C: setting.C, W: setting.W}
		for _, alpha := range Fig7Alphas {
			conf, err := reEvaluate(runs, alpha, setting.W, setting.C, sensorSide)
			if err != nil {
				return nil, err
			}
			curve.Points = append(curve.Points, metrics.ROCPoint{
				Alpha: alpha,
				FPR:   conf.FPR(),
				TPR:   conf.TPR(),
			})
		}
		curve.Points = metrics.SortROC(curve.Points)
		curve.AUC = metrics.AUC(curve.Points)
		out.Curves = append(out.Curves, curve)
	}
	return out, nil
}

// Fig7F1 reproduces Fig. 7(c) (sensor, α=0.005, w,c = 1..6) or 7(d)
// (actuator, α=0.05, w,c = 1..7).
func Fig7F1(runs []*scenario.Run, sensorSide bool) (*Fig7F1Result, error) {
	alpha, maxW := 0.005, 6
	if !sensorSide {
		alpha, maxW = 0.05, 7
	}
	out := &Fig7F1Result{Side: sideName(sensorSide), Alpha: alpha}
	for w := 1; w <= maxW; w++ {
		for c := 1; c <= w; c++ {
			conf, err := reEvaluate(runs, alpha, w, c, sensorSide)
			if err != nil {
				return nil, err
			}
			out.Points = append(out.Points, Fig7F1Point{W: w, C: c, F1: conf.F1()})
		}
	}
	return out, nil
}

func sideName(sensorSide bool) string {
	if sensorSide {
		return "sensor"
	}
	return "actuator"
}

// Write renders the ROC curves as aligned columns.
func (f *Fig7ROCResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Fig 7 ROC — %s misbehavior detection\n", f.Side)
	for _, curve := range f.Curves {
		fmt.Fprintf(w, "c/w = %d/%d  (AUC %.4f)\n", curve.C, curve.W, curve.AUC)
		fmt.Fprintf(w, "  %-8s %-8s %s\n", "alpha", "FPR", "TPR")
		for _, p := range curve.Points {
			fmt.Fprintf(w, "  %-8.4g %-8.4f %.4f\n", p.Alpha, p.FPR, p.TPR)
		}
	}
}

// Write renders the F1 grid.
func (f *Fig7F1Result) Write(w io.Writer) {
	fmt.Fprintf(w, "Fig 7 F1 — %s misbehavior detection (alpha=%.3g)\n", f.Side, f.Alpha)
	fmt.Fprintf(w, "  %-4s %-4s %s\n", "w", "c", "F1")
	for _, p := range f.Points {
		fmt.Fprintf(w, "  %-4d %-4d %.4f\n", p.W, p.C, p.F1)
	}
}

// Fig7Result is Fig. 7's four plots over one workload: the ROC curves
// (a) sensor and (b) actuator, and the F1 grids (c) sensor and
// (d) actuator.
type Fig7Result struct {
	ROC [2]*Fig7ROCResult
	F1  [2]*Fig7F1Result
}

// fig7PaperCW is the c/w the paper selects on each side (§V-F).
var fig7PaperCW = [2]string{"2/2", "3/6"}

// Fig7 runs Fig7Workload and sweeps it on both sides.
func Fig7(trials int, seed int64) (*Fig7Result, error) {
	runs, err := Fig7Workload(trials, seed)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{}
	for i, side := range []bool{true, false} {
		if out.ROC[i], err = Fig7ROC(runs, side); err != nil {
			return nil, err
		}
		if out.F1[i], err = Fig7F1(runs, side); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WritePlot renders plot 0 to 3, (a) to (d). An F1 plot ends with its
// best point beside the paper's choice.
func (f *Fig7Result) WritePlot(w io.Writer, plot int) {
	side := plot % 2
	if plot < 2 {
		f.ROC[side].Write(w)
		return
	}
	f.F1[side].Write(w)
	best := f.F1[side].Best()
	fmt.Fprintf(w, "best: w=%d c=%d F1=%.4f (paper selects c/w=%s)\n", best.W, best.C, best.F1, fig7PaperCW[side])
}

// Write renders the four plots in order, a blank line apart.
func (f *Fig7Result) Write(w io.Writer) {
	for plot := 0; plot < 4; plot++ {
		if plot > 0 {
			fmt.Fprintln(w)
		}
		f.WritePlot(w, plot)
	}
}

// Best returns the (w, c) with the highest F1.
func (f *Fig7F1Result) Best() Fig7F1Point {
	best := Fig7F1Point{F1: -1}
	for _, p := range f.Points {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}
