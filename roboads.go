// Package roboads is a Go implementation of RoboADS, the robot anomaly
// detection system of Guo et al., "RoboADS: Anomaly Detection against
// Sensor and Actuator Misbehaviors in Mobile Robots" (DSN 2018).
//
// RoboADS detects two classes of active misbehavior in mobile robots —
// corrupted sensor readings (GPS/IPS spoofing, LiDAR jamming, encoder
// logic bombs) and corrupted control commands (actuator takeover, wheel
// jamming) — using only the robot's kinematic model and the analytical
// redundancy between its sensors. Per control iteration it runs a bank
// of NUISE estimators (nonlinear unknown input and state estimation),
// one per sensor-condition hypothesis, selects the most likely
// hypothesis, and confirms misbehaviors with windowed chi-square tests.
//
// # Quick start
//
//	scenario := roboads.IPSSpoofingScenario()
//	system, err := roboads.NewKheperaSystem(scenario, 1)
//	if err != nil { ... }
//	for {
//		rec, report, err := system.Step()
//		if errors.Is(err, roboads.ErrMissionOver) {
//			break
//		}
//		if report.Decision.SensorAlarm {
//			fmt.Println("sensor misbehavior:", report.Decision.Condition)
//		}
//		_ = rec
//	}
//
// A downstream robot assembles its own detector from the same parts:
// a Model for the kinematics, a Sensor for each sensing workflow, a
// mode set from SingleReferenceModes or NewMode (§VI grouping for a
// sensor that cannot act as a reference alone), then NewEngine and
// NewDetector; ExampleNewDetector is the worked case. NewRobotDetector
// builds the standard detector of a named platform, the construction a
// hosted fleet session uses.
//
// A fleet of detectors is served by `roboads serve` and driven through
// the roboads/client package, whose requests take SessionRequest and
// TraceFrame.
package roboads

import (
	"roboads/internal/api"
	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/dynamics"
	"roboads/internal/forensics"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sensors"
	"roboads/internal/sim"
	"roboads/internal/stat"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
	"roboads/internal/world"
)

// Linear algebra and randomness.
type (
	// Vec is a dense vector.
	Vec = mat.Vec
	// Matrix is a dense matrix.
	Matrix = mat.Mat
	// RNG is the deterministic random source used across the system.
	RNG = stat.RNG
)

// Robot modeling, estimation and detection types.
type (
	// Model is a discrete-time kinematic model x_k = f(x_{k-1}, u_{k-1}).
	Model = dynamics.Model
	// Sensor is one sensing workflow's measurement model.
	Sensor = sensors.Sensor
	// Plant bundles the model and noise statistics for estimation.
	Plant = core.Plant
	// Mode is one sensor-condition hypothesis.
	Mode = core.Mode
	// EngineConfig tunes the multi-mode estimation engine.
	EngineConfig = core.EngineConfig
	// Detector is the full RoboADS pipeline.
	Detector = detect.Detector
	// DetectorConfig holds the decision parameters (α, w, c).
	DetectorConfig = detect.Config
	// Report is one control iteration's detector output.
	Report = detect.Report
)

// Missions and their recorded runs.
type (
	// Scenario is a timed set of sensor/actuator corruptions.
	Scenario = attack.Scenario
	// MissionRun is a full recorded mission with detector trace, flown
	// by the one mission runner; its methods are the accounting every
	// table and leaderboard of the evaluation is computed with.
	MissionRun = scenario.Run
	// StepRecord is one simulator iteration's ground truth and readings.
	StepRecord = sim.StepRecord
)

// Request types of the roboads/client package.
type (
	// SessionRequest is the body of client.Create (POST /v1/sessions).
	SessionRequest = api.CreateRequest
	// TraceFrame is one recorded control iteration: what client.Step,
	// Stream.Send and client.Import carry.
	TraceFrame = trace.Frame
)

// Arguments of NewTraceRecorder and NewTelemetry.
type (
	// TraceHeader identifies a trace stream.
	TraceHeader = trace.Header
	// TelemetryOptions configures a telemetry hub's logging and
	// histogram buckets; the zero value gives metrics and the HTTP
	// surface with logging off.
	TelemetryOptions = telemetry.Options
)

var (
	// NewKheperaModel returns the differential drive model (§V-A).
	NewKheperaModel = dynamics.NewKhepera
	// NewIPS, NewWheelEncoder, NewLidar, NewGPS and NewMagnetometer
	// build the paper's sensing workflow models.
	NewIPS          = sensors.NewIPS
	NewWheelEncoder = sensors.NewWheelEncoder
	NewLidar        = sensors.NewLidar
	NewGPS          = sensors.NewGPS
	NewMagnetometer = sensors.NewMagnetometer
	// Observable checks the §VI reference observability requirement.
	Observable = sensors.Observable
	// NewMode builds a single sensor-condition hypothesis.
	NewMode = core.NewMode
	// SingleReferenceModes builds the paper's default mode set.
	SingleReferenceModes = core.SingleReferenceModes
	// NUISE runs one step of Algorithm 2 directly.
	NUISE = core.NUISE
	// NewEngine builds a multi-mode engine.
	NewEngine = core.NewEngine
	// DefaultEngineConfig returns the experiment engine configuration.
	DefaultEngineConfig = core.DefaultEngineConfig
	// NewDetector wires an engine to a decision maker.
	NewDetector = detect.NewDetector
	// DefaultDetectorConfig returns the §V-F optimal decision parameters.
	DefaultDetectorConfig = detect.DefaultConfig
	// NewRNG returns a deterministic random source.
	NewRNG = stat.NewRNG
	// NewVec and Diag build vectors and diagonal matrices.
	NewVec = mat.VecOf
	Diag   = mat.Diag
	// LabArena returns the default 4×4 m experiment arena.
	LabArena = world.LabArena
	// LabMission returns the default start-to-goal mission.
	LabMission = sim.LabMission
	// KheperaScenarios returns the 11 Table II attack/failure scenarios.
	KheperaScenarios = attack.KheperaScenarios
	// TamiyaScenarios returns the §V-D RC-car scenario suite.
	TamiyaScenarios = attack.TamiyaScenarios
	// CleanScenario returns the no-attack mission.
	CleanScenario = attack.CleanScenario
	// NewIncidentAnalyzer returns an empty forensic analyzer that
	// accumulates decisions into incident records (§VII).
	NewIncidentAnalyzer = forensics.NewAnalyzer
	// NewResponder builds a responder that quarantines confirmed-corrupted
	// sensors and rebuilds the detector on the clean suite (§VII).
	NewResponder = forensics.NewResponder
	// NewTraceRecorder starts a JSON-lines trace of monitor inputs.
	NewTraceRecorder = trace.NewRecorder
	// ReplayTrace feeds a recorded mission through a detector offline.
	ReplayTrace = trace.Replay
	// NewTelemetry builds a telemetry hub (DESIGN.md §9). It implements
	// both observer hooks: set it as EngineConfig.Observer and
	// DetectorConfig.Observer, then expose it with Serve or Handler.
	NewTelemetry = telemetry.New
)

// ErrMissionOver is returned by System.Step once the mission goal has
// been reached.
var ErrMissionOver = sim.ErrMissionOver

// NewRobotDetector builds the standard detector for a named platform
// ("khepera" or "tamiya") with no simulator attached, under the given
// engine and decision configurations — the construction of a hosted
// fleet session. The profile matches what `roboads record` captures, so
// a recorded trace replays against this detector bit-for-bit.
func NewRobotDetector(robotName string, ecfg EngineConfig, dcfg DetectorConfig) (*Detector, error) {
	p, err := robot.Named(robotName)
	if err != nil {
		return nil, err
	}
	return p.NewDetector(ecfg, dcfg)
}

// IPSSpoofingScenario returns Table II scenario #4 (IPS spoofing), the
// quick-start example attack.
func IPSSpoofingScenario() Scenario {
	return attack.KheperaScenarios()[3]
}

// System couples a simulated robot mission with a RoboADS detector: each
// Step advances the physics one control iteration and runs the detector
// on the resulting monitor inputs.
type System struct {
	sim      *sim.Simulator
	detector *detect.Detector
	dt       float64
}

// NewKheperaSystem plans a mission for the Khepera robot in the lab
// arena, wires the given attack scenario into its workflows, and attaches
// a RoboADS detector with the paper's decision parameters. The same seed
// reproduces the same run bit-for-bit.
func NewKheperaSystem(sc Scenario, seed int64) (*System, error) {
	setup, err := sim.NewKhepera(sim.LabMission(), &sc, seed)
	if err != nil {
		return nil, err
	}
	det, err := scenario.DefaultDetector(robot.Khepera(setup))
	if err != nil {
		return nil, err
	}
	return &System{sim: setup.Sim, detector: det, dt: sim.KheperaDt}, nil
}

// NewTamiyaSystem is the RC-car counterpart of NewKheperaSystem (§V-D).
func NewTamiyaSystem(sc Scenario, seed int64) (*System, error) {
	setup, err := sim.NewTamiya(sim.LabMission(), &sc, seed)
	if err != nil {
		return nil, err
	}
	det, err := scenario.DefaultDetector(robot.Tamiya(setup))
	if err != nil {
		return nil, err
	}
	return &System{sim: setup.Sim, detector: det, dt: sim.TamiyaDt}, nil
}

// Step advances the closed loop one control iteration and returns the
// simulator record (ground truth) plus the detector report. It returns
// ErrMissionOver once the robot has reached its goal.
func (s *System) Step() (*StepRecord, *Report, error) {
	rec, err := s.sim.Step()
	if err != nil {
		return nil, nil, err
	}
	report, err := s.detector.Step(rec.UPlanned, rec.Readings)
	if err != nil {
		return rec, nil, err
	}
	return rec, report, nil
}

// Dt returns the control iteration period in seconds.
func (s *System) Dt() float64 { return s.dt }

// State returns the detector's fused state estimate.
func (s *System) State() (Vec, *Matrix) { return s.detector.State() }

// RunScenario flies one full Khepera mission on the lab map under the
// scenario, with the standard detector attached, through the same mission
// runner as every evaluation table, and returns the recorded run for
// metric extraction.
func RunScenario(sc Scenario, seed int64) (*MissionRun, error) {
	return scenario.RunMission("khepera", "lab", sc, seed, scenario.MaxIterations, scenario.DefaultDetector)
}
