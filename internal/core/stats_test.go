package core_test

import (
	"math"
	"testing"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/scenario"
)

// The χ² statistics an engine Output carries are the ones the decision
// layer tested before the engine computed them: each testing sensor's
// mat.SPDInvQuadForm over its diagonal block of Result.Ps and the
// actuator's over Pa, 0 where the covariance does not factor — bit for
// bit, on every frame of the 26-scenario suite. The decider passes them
// on unchanged. Besides the default configuration (the weight update's
// evidence terms compute every mode's statistics), zero priors and
// density weighting leave them to the selected mode alone.
func TestEngineStatsMatchSplitBlocks(t *testing.T) {
	suite, err := scenario.Default(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Scenarios) != 26 {
		t.Fatalf("suite has %d scenarios, want 26", len(suite.Scenarios))
	}
	quad := func(cov *mat.Mat, v mat.Vec) float64 {
		n := v.Len()
		q, err := mat.SPDInvQuadForm(cov, v, make([]float64, n*(n+1)))
		if err != nil {
			return 0
		}
		return q
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	density := core.DefaultEngineConfig()
	density.WeightByDensity = true
	noPriors := core.DefaultEngineConfig()
	noPriors.AttackPrior, noPriors.ActuatorPrior = 0, 0
	noSensorPrior := core.DefaultEngineConfig()
	noSensorPrior.AttackPrior = 0
	configs := map[string]core.EngineConfig{
		"default":         core.DefaultEngineConfig(),
		"density":         density,
		"no priors":       noPriors,
		"no sensor prior": noSensorPrior,
	}
	for name, ecfg := range configs {
		t.Run(name, func(t *testing.T) {
			for i := range suite.Scenarios {
				sc := &suite.Scenarios[i]
				prof, recs, err := scenario.Frames(sc, suite.Seed)
				if err != nil {
					t.Fatal(err)
				}
				det, err := prof.NewDetector(ecfg, detect.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					rep, err := det.Step(rec.UPlanned, rec.Readings)
					if err != nil {
						t.Fatalf("%s k=%d: %v", sc.Name, rec.K, err)
					}
					out, dec, res := rep.Engine, rep.Decision, rep.Engine.Result
					if len(out.SensorStats) != len(out.SensorAnomalies) {
						t.Fatalf("%s k=%d: %d statistics for %d sensors",
							sc.Name, rec.K, len(out.SensorStats), len(out.SensorAnomalies))
					}
					off := 0
					for j, sa := range out.SensorAnomalies {
						d := sa.Ds.Len()
						want := quad(res.Ps.Submatrix(off, off+d, off, off+d), sa.Ds)
						if !same(out.SensorStats[j], want) || !same(dec.PerSensorStats[j], want) {
							t.Fatalf("%s k=%d %s: statistic %v (decision %v), split block gives %v",
								sc.Name, rec.K, sa.Sensor, out.SensorStats[j], dec.PerSensorStats[j], want)
						}
						off += d
					}
					if want := quad(res.Pa, res.Da); !same(out.ActuatorStat, want) {
						t.Fatalf("%s k=%d: actuator statistic %v, Pa gives %v", sc.Name, rec.K, out.ActuatorStat, want)
					}
					if res.DaValid && !same(dec.ActuatorStat, out.ActuatorStat) {
						t.Fatalf("%s k=%d: decision's actuator statistic %v, engine's %v",
							sc.Name, rec.K, dec.ActuatorStat, out.ActuatorStat)
					}
				}
			}
		})
	}
}
