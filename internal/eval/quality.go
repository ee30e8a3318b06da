package eval

import (
	"fmt"
	"io"
	"math"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sensors"
	"roboads/internal/sim"
	"roboads/internal/stat"
)

// QualityPoint is one sensor-noise scaling of the §V-E quality sweep.
type QualityPoint struct {
	// NoiseScale multiplies the IPS noise standard deviations.
	NoiseScale float64
	// VarVl is the actuator anomaly estimate variance with the scaled
	// IPS as the single reference.
	VarVl float64
	// MinDetectableBias is the 3σ actuator bias the scaled setting can
	// distinguish per iteration, in m/s — the §V-E/§V-H link between
	// sensor quality and the stealthy-attack envelope.
	MinDetectableBias float64
}

// QualityResult quantifies §V-E's claim that sensor quality directly
// sets anomaly-quantification accuracy: scaling the reference sensor's
// noise scales the estimation variance, and with it the smallest
// detectable attack.
type QualityResult struct {
	Points []QualityPoint
}

// QualityScales is the swept IPS noise multipliers.
var QualityScales = []float64{0.5, 1, 2, 4}

// SensorQuality runs the sweep: a clean mission re-estimated with the
// IPS noise scaled by each factor.
func SensorQuality(seed int64) (*QualityResult, error) {
	clean := attack.CleanScenario()
	setup, err := sim.NewKhepera(sim.LabMission(), &clean, seed)
	if err != nil {
		return nil, err
	}
	records, err := setup.Sim.Run(scenario.MaxIterations)
	if err != nil {
		return nil, err
	}

	out := &QualityResult{}
	for _, scale := range QualityScales {
		scaled := sensors.NewIPS(3)
		scaled.SigmaPos *= scale
		scaled.SigmaTheta *= scale

		plant := core.Plant{
			Model:       setup.Model,
			Q:           robot.ProcessNoise(setup.ProcessStd),
			AngleStates: []int{2},
		}
		mode, err := core.NewMode([]sensors.Sensor{scaled}, nil)
		if err != nil {
			return nil, err
		}

		// Re-noise the IPS stream at the scaled level so readings match
		// the scaled measurement model.
		rng := stat.NewRNG(seed).Fork(fmt.Sprintf("quality-%.2f", scale))
		x := setup.X0.Clone()
		px := robot.InitialCovariance(3)
		var sumVar float64
		n := 0
		for _, rec := range records {
			z2 := scaled.H(rec.XTrue).Add(rng.GaussianVec(mat.VecOf(
				scaled.SigmaPos, scaled.SigmaPos, scaled.SigmaTheta)))
			res, err := core.NUISE(plant, mode.Reference, nil, rec.UPlanned, x, px, nil, z2)
			if err != nil {
				return nil, fmt.Errorf("quality scale %.2f k=%d: %w", scale, rec.K, err)
			}
			x, px = res.X, res.Px
			if rec.K >= 20 {
				sumVar += res.Pa.At(0, 0)
				n++
			}
		}
		meanVar := sumVar / float64(n)
		out.Points = append(out.Points, QualityPoint{
			NoiseScale:        scale,
			VarVl:             meanVar,
			MinDetectableBias: 3 * math.Sqrt(meanVar),
		})
	}
	return out, nil
}

// Shape verifies the §V-E monotonicity: better sensors (smaller scale)
// give strictly smaller estimation variance.
func (q *QualityResult) Shape() error {
	for i := 1; i < len(q.Points); i++ {
		if q.Points[i].VarVl <= q.Points[i-1].VarVl {
			return fmt.Errorf("eval: variance not increasing with noise: scale %.2f → %.3g, scale %.2f → %.3g",
				q.Points[i-1].NoiseScale, q.Points[i-1].VarVl,
				q.Points[i].NoiseScale, q.Points[i].VarVl)
		}
	}
	return nil
}

// Write renders the sweep.
func (q *QualityResult) Write(w io.Writer) {
	fmt.Fprintln(w, "Sensor quality sweep (§V-E): IPS noise scale vs estimation accuracy")
	fmt.Fprintf(w, "%-12s %-18s %s\n", "noise ×", "Var on Vl (m/s)²", "3σ detectable bias (m/s)")
	for _, p := range q.Points {
		fmt.Fprintf(w, "%-12.2f %-18.3g %.4f\n", p.NoiseScale, p.VarVl, p.MinDetectableBias)
	}
	fmt.Fprintln(w, "\nbetter (smaller-noise) sensors shrink both the quantification variance")
	fmt.Fprintln(w, "and the stealthy-attack envelope (§V-H)")
}
