package fleet

import (
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/robot"
)

// ProfileBuilder returns the standard session Builder: Spec.Robot
// selects a robot.Named profile (the same standalone construction path
// `roboads replay` uses, lab-mission geometry), so a trace recorded from
// the simulator replays against a hosted session bit-for-bit.
func ProfileBuilder(ecfg core.EngineConfig, dcfg detect.Config) Builder {
	return func(spec Spec) (Stepper, SessionInfo, error) {
		p, err := robot.Named(spec.Robot)
		if err != nil {
			return nil, SessionInfo{}, err
		}
		det, err := p.NewDetector(ecfg, dcfg)
		if err != nil {
			return nil, SessionInfo{}, err
		}
		return det, SessionInfo{Robot: p.Robot, Sensors: p.SensorNames(), Dt: p.Dt}, nil
	}
}

// DefaultBuilder is ProfileBuilder with the paper-default engine and
// decision parameters.
func DefaultBuilder() Builder {
	return ProfileBuilder(core.DefaultEngineConfig(), detect.DefaultConfig())
}
