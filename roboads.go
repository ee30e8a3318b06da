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
// The package re-exports the full component API (estimators, sensor and
// dynamics models, attack injection, metrics, experiment harness) so a
// downstream system can assemble a detector for its own robot: implement
// Model for the kinematics and Sensor for each sensing workflow, build
// modes with SingleReferenceModes or LeaveOneOutModes, and drive a
// Detector with planned commands and readings.
//
// # Building pipelines
//
// NewPipeline and NewRobotDetector are the construction surface: the
// paper-default configuration modified by functional options
// (WithSensorAlpha, WithObserver, WithEpsilon, ...). NewRobotDetector
// builds the standard detector for a named platform with no simulator
// attached — the same construction a hosted fleet session uses.
//
// # Serving a fleet
//
// NewFleet hosts many concurrent detectors behind a streaming ingest
// API with bounded queues, explicit backpressure, and idle eviction;
// Fleet.Handler exposes it over HTTP (the `roboads serve` surface).
// Errors are typed sentinels (ErrSessionNotFound, ErrBackpressure,
// ErrClosed, ErrTooManySessions) stable under errors.Is.
package roboads

import (
	"errors"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/dynamics"
	"roboads/internal/eval"
	"roboads/internal/forensics"
	"roboads/internal/mat"
	"roboads/internal/metrics"
	"roboads/internal/plan"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sensors"
	"roboads/internal/sim"
	"roboads/internal/stat"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
	"roboads/internal/world"
)

// Core linear algebra and probability types.
type (
	// Vec is a dense vector.
	Vec = mat.Vec
	// Matrix is a dense matrix.
	Matrix = mat.Mat
	// RNG is the deterministic random source used across the system.
	RNG = stat.RNG
)

// Robot modeling types.
type (
	// Model is a discrete-time kinematic model x_k = f(x_{k-1}, u_{k-1}).
	Model = dynamics.Model
	// DifferentialDrive is the Khepera III drive model.
	DifferentialDrive = dynamics.DifferentialDrive
	// Bicycle is the Tamiya RC car model.
	Bicycle = dynamics.Bicycle
	// Sensor is one sensing workflow's measurement model.
	Sensor = sensors.Sensor
	// Map is the 2D arena with walls and obstacles.
	Map = world.Map
	// Point is a 2D position.
	Point = world.Point
	// Mission is a start-to-goal task in an arena.
	Mission = sim.Mission
)

// Estimation and detection types.
type (
	// Plant bundles the model and noise statistics for estimation.
	Plant = core.Plant
	// Mode is one sensor-condition hypothesis.
	Mode = core.Mode
	// Engine is the multi-mode estimation engine.
	Engine = core.Engine
	// EngineConfig tunes the engine.
	EngineConfig = core.EngineConfig
	// EstimationResult is one NUISE step's output.
	EstimationResult = core.Result
	// Detector is the full RoboADS pipeline.
	Detector = detect.Detector
	// DetectorConfig holds the decision parameters (α, w, c).
	DetectorConfig = detect.Config
	// Report is one control iteration's detector output.
	Report = detect.Report
	// Decision is the decision maker's per-iteration output.
	Decision = detect.Decision
	// Condition is a confirmed misbehavior condition.
	Condition = detect.Condition
)

// Attack and evaluation types.
type (
	// Scenario is a timed set of sensor/actuator corruptions.
	Scenario = attack.Scenario
	// SensorAttack corrupts a sensing workflow.
	SensorAttack = attack.SensorAttack
	// ActuatorAttack corrupts executed commands.
	ActuatorAttack = attack.ActuatorAttack
	// Confusion accumulates TP/FP/FN/TN per the paper's definitions.
	Confusion = metrics.Confusion
	// MissionRun is a full recorded mission with detector trace, flown
	// by the one mission runner; its methods are the accounting every
	// table and leaderboard of the evaluation is computed with.
	MissionRun = scenario.Run
	// StepRecord is one simulator iteration's ground truth and readings.
	StepRecord = sim.StepRecord
)

// Re-exported constructors and helpers.
var (
	// NewKheperaModel returns the differential drive model (§V-A).
	NewKheperaModel = dynamics.NewKhepera
	// NewTamiyaModel returns the kinematic bicycle model (§V-D).
	NewTamiyaModel = dynamics.NewTamiya
	// NewIPS, NewWheelEncoder, NewLidar, NewIMU, NewGPS and
	// NewMagnetometer build the paper's sensing workflow models.
	NewIPS          = sensors.NewIPS
	NewWheelEncoder = sensors.NewWheelEncoder
	NewLidar        = sensors.NewLidar
	NewIMU          = sensors.NewIMU
	NewGPS          = sensors.NewGPS
	NewMagnetometer = sensors.NewMagnetometer
	// Observable checks the §VI reference observability requirement.
	Observable = sensors.Observable
	// NewMode builds a single sensor-condition hypothesis.
	NewMode = core.NewMode
	// SingleReferenceModes builds the paper's default mode set.
	SingleReferenceModes = core.SingleReferenceModes
	// LeaveOneOutModes builds grouped-reference modes (§VI grouping).
	LeaveOneOutModes = core.LeaveOneOutModes
	// CompleteModes builds all 2^p−1 hypotheses.
	CompleteModes = core.CompleteModes
	// FusionMode builds the all-reference fusion mode (Table IV).
	FusionMode = core.FusionMode
	// NUISE runs one step of Algorithm 2 directly.
	NUISE = core.NUISE
	// NewEngine builds a multi-mode engine.
	NewEngine = core.NewEngine
	// DefaultEngineConfig returns the experiment engine configuration.
	DefaultEngineConfig = core.DefaultEngineConfig
	// NewDetector wires an engine to a decision maker. Most callers
	// want NewPipeline or NewRobotDetector (options.go) instead; this
	// low-level form remains for code that holds the engine directly.
	NewDetector = detect.NewDetector
	// DefaultDetectorConfig returns the §V-F optimal decision parameters.
	DefaultDetectorConfig = detect.DefaultConfig
	// NewRNG returns a deterministic random source.
	NewRNG = stat.NewRNG
	// NewVec, NewMatrix, Identity and Diag build vectors and matrices.
	NewVec    = mat.VecOf
	NewMatrix = mat.New
	Identity  = mat.Identity
	Diag      = mat.Diag
	// LabArena returns the default 4×4 m experiment arena.
	LabArena = world.LabArena
	// WarehouseArena returns the larger shelf-row environment.
	WarehouseArena = world.WarehouseArena
	// LabMission returns the default start-to-goal mission.
	LabMission = sim.LabMission
	// PlanPath runs the RRT* planner.
	PlanPath = plan.Plan
	// KheperaScenarios returns the 11 Table II attack/failure scenarios.
	KheperaScenarios = attack.KheperaScenarios
	// TamiyaScenarios returns the §V-D RC-car scenario suite.
	TamiyaScenarios = attack.TamiyaScenarios
	// CleanScenario returns the no-attack mission.
	CleanScenario = attack.CleanScenario
)

// Forensics and response types (§VII future-work directions).
type (
	// Incident is a forensic record of one confirmed misbehavior.
	Incident = forensics.Incident
	// IncidentAnalyzer accumulates decisions into incident records.
	IncidentAnalyzer = forensics.Analyzer
	// Responder quarantines confirmed-corrupted sensors and rebuilds
	// the detector on the clean suite.
	Responder = forensics.Responder
)

// Forensics constructors.
var (
	// NewIncidentAnalyzer returns an empty forensic analyzer.
	NewIncidentAnalyzer = forensics.NewAnalyzer
	// NewResponder builds a sensor-quarantine responder.
	NewResponder = forensics.NewResponder
)

// Trace record/replay types for offline detection on recorded missions.
type (
	// TraceRecorder writes monitor inputs as a JSON-lines stream.
	TraceRecorder = trace.Recorder
	// TraceReader consumes a recorded stream.
	TraceReader = trace.Reader
	// TraceHeader identifies a trace stream.
	TraceHeader = trace.Header
	// TraceFrame is one recorded control iteration.
	TraceFrame = trace.Frame
)

// Trace constructors and replay.
var (
	// NewTraceRecorder starts a trace stream.
	NewTraceRecorder = trace.NewRecorder
	// NewTraceReader parses a trace stream.
	NewTraceReader = trace.NewReader
	// ReplayTrace feeds a recorded mission through a detector offline.
	ReplayTrace = trace.Replay
)

// Telemetry types (DESIGN.md §9). A *Telemetry implements both observer
// hooks: set it as EngineConfig.Observer and DetectorConfig.Observer,
// then expose it over HTTP with Serve or Handler. A nil observer
// disables instrumentation entirely.
type (
	// Telemetry aggregates metrics, sampled logs, and the HTTP surface.
	Telemetry = telemetry.Telemetry
	// TelemetryOptions configures logging and histogram buckets.
	TelemetryOptions = telemetry.Options
	// TelemetrySnapshot is the /snapshot document: iteration, selected
	// mode, last decision, and a full metrics dump.
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry builds a telemetry hub; the zero Options gives metrics
// and the HTTP surface with logging disabled.
var NewTelemetry = telemetry.New

// Metric names served by a Telemetry (DESIGN.md §9 is the inventory).
const (
	MetricStepSeconds      = telemetry.MetricStepSeconds
	MetricFrameGapSeconds  = telemetry.MetricFrameGapSeconds
	MetricStepsTotal       = telemetry.MetricStepsTotal
	MetricModeSwitches     = telemetry.MetricModeSwitches
	MetricFloorHits        = telemetry.MetricFloorHits
	MetricModeFailures     = telemetry.MetricModeFailures
	MetricJacobiFallbacks  = telemetry.MetricJacobiFallbacks
	MetricDroppedReadings  = telemetry.MetricDroppedReadings
	MetricDecisionsTotal   = telemetry.MetricDecisionsTotal
	MetricConditionChanges = telemetry.MetricConditionChanges
	MetricAlarmEdges       = telemetry.MetricAlarmEdges
	MetricTopWeight        = telemetry.MetricTopWeight
	MetricSecondWeight     = telemetry.MetricSecondWeight
	MetricSensorStat       = telemetry.MetricSensorStat
	MetricActuatorStat     = telemetry.MetricActuatorStat
	MetricSensorWindow     = telemetry.MetricSensorWindow
	MetricActuatorWindow   = telemetry.MetricActuatorWindow
)

// ErrMissionOver is returned by System.Step once the mission goal has
// been reached.
var ErrMissionOver = sim.ErrMissionOver

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
func NewKheperaSystem(scenario Scenario, seed int64) (*System, error) {
	return NewKheperaSystemWithMission(sim.LabMission(), scenario, seed)
}

// NewKheperaSystemWithMission is NewKheperaSystem with a custom arena and
// start/goal.
func NewKheperaSystemWithMission(mission Mission, sc Scenario, seed int64) (*System, error) {
	setup, err := sim.NewKhepera(mission, &sc, seed)
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

// Experiment entry points (see DESIGN.md §4 for the per-experiment
// index; EXPERIMENTS.md records paper-vs-measured results).
var (
	// ReproduceTable2 regenerates Table II.
	ReproduceTable2 = eval.Table2
	// ReproduceTable4 regenerates Table IV.
	ReproduceTable4 = eval.Table4
	// ReproduceFig6 regenerates the Fig. 6 raw-output series.
	ReproduceFig6 = eval.Fig6
	// ReproduceEvasive regenerates the §V-H stealthy-attack sweeps.
	ReproduceEvasive = eval.Evasive
	// ReproduceTamiya regenerates the §V-D RC-car results.
	ReproduceTamiya = eval.Tamiya
	// ReproduceLinearBench regenerates the §V-G baseline comparison.
	ReproduceLinearBench = eval.LinearBench
	// CompareRelatedWork benchmarks the §II-C detector families.
	CompareRelatedWork = eval.RelatedWork
	// SweepSensorQuality runs the §V-E sensor-quality sweep.
	SweepSensorQuality = eval.SensorQuality
	// CalibrateDecisionParameters auto-selects (α, w, c) from a
	// validation workload (§V-F as a library call).
	CalibrateDecisionParameters = eval.Calibrate
)

// RunScenario flies one full Khepera mission on the lab map under the
// scenario, with the standard detector attached, through the same mission
// runner as every evaluation table, and returns the recorded run for
// metric extraction.
func RunScenario(sc Scenario, seed int64) (*MissionRun, error) {
	return scenario.RunMission("khepera", "lab", sc, seed, scenario.MaxIterations, scenario.DefaultDetector)
}

// ErrNoPath re-exports the planner's failure sentinel.
var ErrNoPath = plan.ErrNoPath

// Sanity check that aliased sentinels remain comparable with errors.Is.
var _ = errors.Is
