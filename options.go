package roboads

import (
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/robot"
)

// PipelineObserver is the union of the engine and decision observer
// hooks. A *Telemetry implements it; passing one to WithObserver wires
// instrumentation into both layers of the pipeline at once.
type PipelineObserver interface {
	core.Observer
	detect.Observer
}

// Option configures pipeline construction for NewPipeline and
// NewRobotDetector. Options are applied in order over the paper-default
// configuration (DefaultEngineConfig + DefaultDetectorConfig), so a
// later option overrides an earlier one; WithEngineConfig and
// WithDetectorConfig replace the respective layer wholesale and should
// therefore come before field-level options they are combined with.
type Option func(*buildConfig)

type buildConfig struct {
	ecfg core.EngineConfig
	dcfg detect.Config
}

func defaultBuild() buildConfig {
	return buildConfig{ecfg: core.DefaultEngineConfig(), dcfg: detect.DefaultConfig()}
}

// WithEngineConfig replaces the engine configuration wholesale.
func WithEngineConfig(cfg EngineConfig) Option {
	return func(b *buildConfig) { b.ecfg = cfg }
}

// WithDetectorConfig replaces the decision parameters wholesale.
func WithDetectorConfig(cfg DetectorConfig) Option {
	return func(b *buildConfig) { b.dcfg = cfg }
}

// WithSensorAlpha sets the chi-square confidence level for the aggregate
// and per-sensor tests (paper optimum 0.005).
func WithSensorAlpha(alpha float64) Option {
	return func(b *buildConfig) { b.dcfg.SensorAlpha = alpha }
}

// WithActuatorAlpha sets the confidence level for the actuator test
// (paper optimum 0.05).
func WithActuatorAlpha(alpha float64) Option {
	return func(b *buildConfig) { b.dcfg.ActuatorAlpha = alpha }
}

// WithSensorWindow sets the c-of-w sliding-window parameters for sensor
// alarms (paper optimum 2 of 2).
func WithSensorWindow(criteria, window int) Option {
	return func(b *buildConfig) {
		b.dcfg.SensorCriteria, b.dcfg.SensorWindow = criteria, window
	}
}

// WithActuatorWindow sets the c-of-w sliding-window parameters for
// actuator alarms (paper optimum 3 of 6).
func WithActuatorWindow(criteria, window int) Option {
	return func(b *buildConfig) {
		b.dcfg.ActuatorCriteria, b.dcfg.ActuatorWindow = criteria, window
	}
}

// WithEpsilon sets the mode-weight floor of Algorithm 1 line 6.
func WithEpsilon(eps float64) Option {
	return func(b *buildConfig) { b.ecfg.Epsilon = eps }
}

// WithObserver wires one observer into both pipeline layers: the engine
// (per-step latency, mode switches, weight floor hits) and the decision
// maker (test statistics, alarm edges). Observation is read-only and
// cannot change detection output; nil disables instrumentation.
func WithObserver(o PipelineObserver) Option {
	return func(b *buildConfig) {
		b.ecfg.Observer = o
		b.dcfg.Observer = o
	}
}

// NewPipeline assembles the full RoboADS pipeline from its estimation
// ingredients — the plant, the hypothesis mode set, and the initial
// state belief (x0, p0) — under the paper-default configuration modified
// by opts. It is the options-based construction surface; the two-step
// NewEngine + NewDetector path remains for callers that need to hold
// the engine directly.
func NewPipeline(plant Plant, modes []*Mode, x0 Vec, p0 *Matrix, opts ...Option) (*Detector, error) {
	b := defaultBuild()
	for _, opt := range opts {
		opt(&b)
	}
	eng, err := core.NewEngine(plant, modes, x0, p0, b.ecfg)
	if err != nil {
		return nil, err
	}
	return detect.NewDetector(eng, b.dcfg), nil
}

// NewRobotDetector builds the standard detector for a named platform
// ("khepera" or "tamiya") with no simulator attached — the construction
// path of a hosted fleet session or an external robot streaming real
// frames. The profile matches what `roboads record` captures, so a
// recorded trace replays against this detector bit-for-bit:
//
//	det, err := roboads.NewRobotDetector("khepera",
//		roboads.WithSensorAlpha(0.005))
func NewRobotDetector(robotName string, opts ...Option) (*Detector, error) {
	b := defaultBuild()
	for _, opt := range opts {
		opt(&b)
	}
	p, err := robot.Named(robotName)
	if err != nil {
		return nil, err
	}
	return p.NewDetector(b.ecfg, b.dcfg)
}
