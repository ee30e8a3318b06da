// Package robot holds the per-platform detector construction surface:
// Profile bundles the kinematic model, sensor suite, noise statistics,
// plausibility envelope, and mode-building strategy for one robot, and
// Profile.NewDetector assembles the full RoboADS pipeline from it.
//
// The package sits below the mission runner (internal/scenario), the
// fleet session service and the CLI, which all build detectors here.
package robot

import (
	"fmt"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/sim"
)

// Profile is the one construction surface behind every robot-specific
// detector builder: it bundles the kinematic model, the sensor suite,
// the noise statistics, the plausibility envelope, and the mode-building
// strategy for one platform. The mission runner, the fleet session service
// and the CLI all reduce to Profile.NewDetector, so a new robot is
// supported by writing one Profile function rather than a new builder per
// entry point.
type Profile struct {
	// Robot names the platform ("khepera", "tamiya"); it doubles as the
	// trace-header robot string and the fleet session robot model.
	Robot string
	// Model is the discrete-time kinematic model.
	Model dynamics.Model
	// Suite is the sensor suite in canonical order.
	Suite []sensors.Sensor
	// ProcessStd is the per-state process noise standard deviation.
	ProcessStd mat.Vec
	// X0 is the initial state belief mean.
	X0 mat.Vec
	// UMax bounds executed commands for the plausibility gate.
	UMax mat.Vec
	// AngleStates indexes the angular (wrap-around) state components.
	AngleStates []int
	// Dt is the control iteration period in seconds.
	Dt float64
	// ObsX0 and ObsU0 are the operating point for the §VI reference
	// observability check during mode construction. They default to X0
	// and the zero command; platforms whose observability degenerates at
	// standstill (the bicycle) set a moving point here.
	ObsX0, ObsU0 mat.Vec
	// LeaveOneOut selects grouped-reference modes (§VI grouping remedy)
	// instead of the paper-default single-reference set.
	LeaveOneOut bool
}

// SensorNames lists the suite's workflow names in canonical order — the
// wire-format sensor inventory of a trace header or a fleet session.
func (p *Profile) SensorNames() []string {
	names := make([]string, len(p.Suite))
	for i, s := range p.Suite {
		names[i] = s.Name()
	}
	return names
}

// NewDetector assembles the full RoboADS pipeline for the profile: the
// hypothesis mode set, the multi-mode engine, and the decision maker.
func (p *Profile) NewDetector(ecfg core.EngineConfig, dcfg detect.Config) (*detect.Detector, error) {
	plant := core.Plant{
		Model:       p.Model,
		Q:           ProcessNoise(p.ProcessStd),
		AngleStates: append([]int(nil), p.AngleStates...),
		UMax:        p.UMax,
	}
	obsX0, obsU0 := p.ObsX0, p.ObsU0
	if obsX0 == nil {
		obsX0 = p.X0
	}
	if obsU0 == nil {
		obsU0 = make(mat.Vec, p.Model.ControlDim())
	}
	var modes []*core.Mode
	var err error
	if p.LeaveOneOut {
		modes, err = core.LeaveOneOutModes(p.Model, p.Suite, obsX0, obsU0)
	} else {
		modes, err = core.SingleReferenceModes(p.Model, p.Suite, obsX0, obsU0, false)
	}
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(plant, modes, p.X0, InitialCovariance(len(p.X0)), ecfg)
	if err != nil {
		return nil, err
	}
	return detect.NewDetector(eng, dcfg), nil
}

// Khepera is the differential-drive platform of §V-A as assembled by a
// simulator setup: single-reference modes over (IPS, encoder, LiDAR)
// with the simulator's noise levels and start state.
func Khepera(setup *sim.KheperaSetup) Profile {
	return Profile{
		Robot:       "khepera",
		Model:       setup.Model,
		Suite:       setup.Suite,
		ProcessStd:  setup.ProcessStd,
		X0:          setup.X0,
		UMax:        KheperaUMax(),
		AngleStates: []int{2},
		Dt:          sim.KheperaDt,
		ObsX0:       setup.X0,
		ObsU0:       setup.Model.WheelSpeeds(0.1, 0),
	}
}

// Tamiya is the RC-car platform of §V-D as assembled by a simulator
// setup. The bicycle needs the §VI grouping remedy twice over: the IMU
// alone cannot reconstruct the state (position unobservable), and
// pose-only sensors cannot observe the acceleration input within one
// step (only the IMU reads speed). Leave-one-out reference groups
// satisfy both; observability is checked at a moving operating point
// because at standstill the steering input is genuinely unobservable and
// NUISE degrades to its EKF fallback until the car moves.
func Tamiya(setup *sim.TamiyaSetup) Profile {
	obsX0 := setup.X0.Clone()
	obsX0[3] = 0.3
	return Profile{
		Robot:       "tamiya",
		Model:       setup.Model,
		Suite:       setup.Suite,
		ProcessStd:  setup.ProcessStd,
		X0:          setup.X0,
		UMax:        TamiyaUMax(),
		AngleStates: []int{2},
		Dt:          sim.TamiyaDt,
		ObsX0:       obsX0,
		ObsU0:       mat.VecOf(0.1, 0),
		LeaveOneOut: true,
	}
}

// Named builds a standalone profile for a named platform with no
// simulator attached — the construction path of a hosted fleet session,
// where frames arrive from an external robot and only the detector side
// of the setup exists. The sensor geometry (LiDAR arena) and the start
// state are the standard lab mission's, matching what `roboads record`
// captures and `roboads replay` rebuilds, so a recorded trace replays
// against a hosted session bit-for-bit.
func Named(robot string) (Profile, error) {
	mission := sim.LabMission()
	switch robot {
	case "khepera":
		model := dynamics.NewKhepera(sim.KheperaDt)
		p := Profile{
			Robot:       "khepera",
			Model:       model,
			Suite:       kheperaSuite(mission),
			ProcessStd:  sim.KheperaProcessStd(),
			X0:          mat.VecOf(mission.Start.X, mission.Start.Y, mission.StartHeading),
			UMax:        KheperaUMax(),
			AngleStates: []int{2},
			Dt:          sim.KheperaDt,
			ObsU0:       model.WheelSpeeds(0.1, 0),
		}
		p.ObsX0 = p.X0
		return p, nil
	case "tamiya":
		p := Profile{
			Robot:       "tamiya",
			Model:       dynamics.NewTamiya(sim.TamiyaDt),
			Suite:       tamiyaSuite(mission),
			ProcessStd:  sim.TamiyaProcessStd(),
			X0:          mat.VecOf(mission.Start.X, mission.Start.Y, mission.StartHeading, 0),
			UMax:        TamiyaUMax(),
			AngleStates: []int{2},
			Dt:          sim.TamiyaDt,
			ObsU0:       mat.VecOf(0.1, 0),
			LeaveOneOut: true,
		}
		obsX0 := p.X0.Clone()
		obsX0[3] = 0.3
		p.ObsX0 = obsX0
		return p, nil
	default:
		return Profile{}, fmt.Errorf("robot: unknown profile %q (want khepera or tamiya)", robot)
	}
}

// KheperaUMax bounds each wheel's executed surface speed: the Khepera
// III motors saturate near 0.8 m/s, and the tracker commands at most
// 0.5 m/s, so 0.8 is a safe physical envelope for the plausibility gate.
func KheperaUMax() mat.Vec { return mat.VecOf(0.8, 0.8) }

// TamiyaUMax bounds the executed (acceleration, steering) commands of
// the RC car.
func TamiyaUMax() mat.Vec { return mat.VecOf(3.0, 0.7) }

// kheperaSuite mirrors sim.NewKhepera's sensor construction (IPS, wheel
// encoder, LiDAR against the mission arena).
func kheperaSuite(mission sim.Mission) []sensors.Sensor {
	return []sensors.Sensor{
		sensors.NewIPS(3),
		sensors.NewWheelEncoder(3),
		sensors.NewLidar(mission.Map, 3),
	}
}

// tamiyaSuite mirrors sim.NewTamiya's sensor construction (IPS, LiDAR,
// IMU).
func tamiyaSuite(mission sim.Mission) []sensors.Sensor {
	return []sensors.Sensor{
		sensors.NewIPS(4),
		sensors.NewLidar(mission.Map, 4),
		sensors.NewIMU(),
	}
}

// ProcessNoise is the diagonal process-noise covariance of per-state
// standard deviations.
func ProcessNoise(std mat.Vec) *mat.Mat {
	d := make([]float64, std.Len())
	for i, s := range std {
		d[i] = s * s
	}
	return mat.Diag(d...)
}

// InitialCovariance is the n-state belief covariance every detector starts
// from.
func InitialCovariance(n int) *mat.Mat {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1e-6
	}
	return mat.Diag(d...)
}
