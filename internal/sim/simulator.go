package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"roboads/internal/attack"
	"roboads/internal/control"
	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/plan"
	"roboads/internal/sensors"
	"roboads/internal/stat"
	"roboads/internal/world"
)

// Mission describes the §V-A motion-planning task: steer from start to
// goal through the arena without collisions.
type Mission struct {
	// Map is the arena.
	Map *world.Map
	// Start is the launch position.
	Start world.Point
	// StartHeading is the initial heading in radians.
	StartHeading float64
	// Goal is the target location.
	Goal world.Point
}

// LabMission returns the default experiment mission across the lab arena.
func LabMission() Mission {
	return Mission{
		Map:          world.LabArena(),
		Start:        world.Point{X: 0.5, Y: 0.5},
		StartHeading: 0.6,
		Goal:         world.Point{X: 3.5, Y: 3.5},
	}
}

// StepRecord is one control iteration of the closed-loop simulation: the
// monitor's inputs (planned command, readings) plus ground truth for
// metric computation.
type StepRecord struct {
	// K is the control iteration index.
	K int
	// XTrue is the true state after this iteration's motion.
	XTrue mat.Vec
	// UPlanned is the planner's command (what the monitor receives).
	UPlanned mat.Vec
	// UExecuted is the command after actuator attacks (ground truth).
	UExecuted mat.Vec
	// Readings maps workflow names to their (possibly corrupted)
	// readings z_k.
	Readings map[string]mat.Vec
	// Truth is the scenario's ground-truth condition at this iteration.
	Truth attack.Truth
	// Collided reports that the true position left free space this
	// iteration (robot body overlapping a wall or obstacle) — the
	// physical damage the paper's attacks aim to cause.
	Collided bool
	// Done reports whether the mission completed at this step.
	Done bool
}

// Simulator advances the robot, its workflows, and the scenario one
// control iteration at a time.
type Simulator struct {
	model      dynamics.Model
	tracker    control.Tracker
	workflows  []SensingWorkflow
	scenario   *attack.Scenario
	processStd mat.Vec
	rng        *stat.RNG

	// arena and bodyRadius drive the collision flag; a nil arena
	// disables it.
	arena      *world.Map
	bodyRadius float64

	xTrue      mat.Vec
	ctrlEst    mat.Vec // the planner's own state belief (from readings)
	k          int
	done       bool
	collisions int
}

// ErrMissionOver indicates Step was called after mission completion.
var ErrMissionOver = errors.New("sim: mission already complete")

// New assembles a simulator from its parts. ctrlEst starts at x0.
func New(model dynamics.Model, tracker control.Tracker, workflows []SensingWorkflow,
	scenario *attack.Scenario, processStd mat.Vec, x0 mat.Vec, rng *stat.RNG) (*Simulator, error) {
	if len(x0) != model.StateDim() {
		return nil, fmt.Errorf("sim: x0 has dim %d, want %d", len(x0), model.StateDim())
	}
	if len(processStd) != model.StateDim() {
		return nil, fmt.Errorf("sim: processStd has dim %d, want %d", len(processStd), model.StateDim())
	}
	// Wire the scenario's sensor attacks into their target workflows.
	byName := make(map[string]SensingWorkflow, len(workflows))
	for _, w := range workflows {
		byName[w.Name()] = w
	}
	for _, a := range scenario.SensorAttacks {
		w, ok := byName[a.Target()]
		if !ok {
			return nil, fmt.Errorf("sim: scenario %v targets unknown workflow %q", scenario, a.Target())
		}
		w.Attach(a)
	}
	return &Simulator{
		model:      model,
		tracker:    tracker,
		workflows:  workflows,
		scenario:   scenario,
		processStd: processStd.Clone(),
		rng:        rng.Fork("sim"),
		xTrue:      x0.Clone(),
		ctrlEst:    x0.Clone(),
	}, nil
}

// TrueState returns the current ground-truth state.
func (s *Simulator) TrueState() mat.Vec { return s.xTrue.Clone() }

// Collisions returns the number of iterations spent in collision so far.
func (s *Simulator) Collisions() int { return s.collisions }

// EnableCollisionCheck turns on collision flagging against the arena
// with the given robot body radius.
func (s *Simulator) EnableCollisionCheck(arena *world.Map, bodyRadius float64) {
	s.arena = arena
	s.bodyRadius = bodyRadius
}

// Step runs one control iteration: plan → execute (with actuator attacks)
// → evolve truth with process noise → sense (with sensor attacks).
func (s *Simulator) Step() (*StepRecord, error) {
	if s.done {
		return nil, ErrMissionOver
	}
	k := s.k

	// Planner: closed-loop command from its own (sensor-driven) belief.
	uPlanned, done := s.tracker.Control(s.ctrlEst)

	// Actuation workflows: cyber/physical corruptions on the way to the
	// motors.
	uExec := uPlanned
	for _, a := range s.scenario.ActuatorAttacks {
		uExec = a.Apply(k, uExec)
	}

	// Physics: the state evolves under the executed command plus process
	// noise (equation (2)).
	s.xTrue = s.model.F(s.xTrue, uExec).Add(s.rng.GaussianVec(s.processStd))

	// Sensing workflows deliver the new readings.
	readings := make(map[string]mat.Vec, len(s.workflows))
	for _, w := range s.workflows {
		readings[w.Name()] = w.Sense(k, s.xTrue, uExec)
	}
	s.updateControllerBelief(readings)

	collided := false
	if s.arena != nil {
		collided = !s.arena.Free(world.Point{X: s.xTrue[0], Y: s.xTrue[1]}, s.bodyRadius)
		if collided {
			s.collisions++
		}
	}

	rec := &StepRecord{
		K:         k,
		XTrue:     s.xTrue.Clone(),
		UPlanned:  uPlanned,
		UExecuted: uExec,
		Readings:  readings,
		Truth:     s.scenario.TruthAt(k),
		Collided:  collided,
		Done:      done,
	}
	s.k++
	s.done = done
	return rec, nil
}

// updateControllerBelief feeds the planner's own state belief from the
// sensor readings, the way the paper's missions use "real-time positioning
// data from the IPS" (§V-A). A spoofed IPS therefore misleads the mission
// exactly as it would on the physical robot.
func (s *Simulator) updateControllerBelief(readings map[string]mat.Vec) {
	if ips, ok := readings["ips"]; ok && ips.Len() >= 3 {
		s.ctrlEst[0], s.ctrlEst[1], s.ctrlEst[2] = ips[0], ips[1], ips[2]
	}
	if s.model.StateDim() >= 4 {
		if imu, ok := readings["imu"]; ok && imu.Len() >= 2 {
			s.ctrlEst[3] = imu[1]
		}
	}
}

// Run advances the simulation until mission completion or maxIterations,
// returning every step record.
func (s *Simulator) Run(maxIterations int) ([]*StepRecord, error) {
	records := make([]*StepRecord, 0, maxIterations)
	for i := 0; i < maxIterations; i++ {
		rec, err := s.Step()
		if err != nil {
			if errors.Is(err, ErrMissionOver) {
				break
			}
			return records, err
		}
		records = append(records, rec)
		if rec.Done {
			break
		}
	}
	return records, nil
}

// KheperaSetup bundles the assembled Khepera simulator with the pieces
// the detector needs (plant dimensions, sensor suite).
type KheperaSetup struct {
	// Sim is the ready-to-run simulator.
	Sim *Simulator
	// Model is the drive model shared with the detector.
	Model *dynamics.DifferentialDrive
	// Suite is the sensor suite in canonical order (IPS, encoder, LiDAR).
	Suite []sensors.Sensor
	// ProcessStd is the per-state process noise standard deviation.
	ProcessStd mat.Vec
	// X0 is the initial state.
	X0 mat.Vec
	// Path is the planned waypoint path.
	Path []world.Point
}

// KheperaDt is the Khepera control iteration period in seconds (10 Hz).
const KheperaDt = 0.1

// KheperaProcessStd returns the Khepera per-state process noise levels.
func KheperaProcessStd() mat.Vec { return mat.VecOf(5e-4, 5e-4, 1e-3) }

// NewKhepera plans the mission with RRT* and assembles the full Khepera
// simulator for the given scenario and seed (§V-A configuration: IPS,
// wheel encoder, LiDAR).
func NewKhepera(mission Mission, scenario *attack.Scenario, seed int64) (*KheperaSetup, error) {
	rng := stat.NewRNG(seed)
	model := dynamics.NewKhepera(KheperaDt)

	path, err := planToGoal(mission, seed, rng.Fork("planner"))
	if err != nil {
		return nil, fmt.Errorf("khepera mission: %w", err)
	}
	path = plan.Resample(path, 0.1)
	tracker, err := control.NewDiffDriveTracker(model, path)
	if err != nil {
		return nil, fmt.Errorf("khepera tracker: %w", err)
	}

	ips := sensors.NewIPS(3)
	we := sensors.NewWheelEncoder(3)
	lidar := sensors.NewLidar(mission.Map, 3)
	workflows := []SensingWorkflow{
		NewBasicWorkflow(ips, rng),
		NewEncoderWorkflow(model, we, rng),
		NewBasicWorkflow(lidar, rng),
	}

	x0 := mat.VecOf(mission.Start.X, mission.Start.Y, mission.StartHeading)
	simulator, err := New(model, tracker, workflows, scenario, KheperaProcessStd(), x0, rng)
	if err != nil {
		return nil, err
	}
	simulator.EnableCollisionCheck(mission.Map, 0.0)
	return &KheperaSetup{
		Sim:        simulator,
		Model:      model,
		Suite:      []sensors.Sensor{ips, we, lidar},
		ProcessStd: KheperaProcessStd(),
		X0:         x0,
		Path:       path,
	}, nil
}

// planToGoal runs RRT* and extends the path from the goal-region entry to
// the exact goal point when the final hop is collision-free, so missions
// terminate at the goal rather than anywhere in the goal region.
//
// rng must be stat.NewRNG(seed).Fork("planner"), forked by the caller on
// every call so that the root generator's later draws do not depend on
// whether the path was memoised. The plan is then a function of the seed,
// the map's content and the endpoints alone (the config is the constant
// plan.DefaultConfig()), so each such path is planned once and kept in
// plans; rng is read only on a miss.
func planToGoal(mission Mission, seed int64, rng *stat.RNG) ([]world.Point, error) {
	if mission.Map == nil {
		return nil, errors.New("sim: mission has no map")
	}
	key := planKey(mission, seed)
	if path, ok := plans.get(key); ok {
		return path, nil
	}
	cfg := plan.DefaultConfig()
	path, err := plan.Plan(mission.Map, mission.Start, mission.Goal, cfg, rng)
	if err != nil {
		return nil, err
	}
	last := path[len(path)-1]
	if last.Dist(mission.Goal) > 1e-9 &&
		mission.Map.SegmentFree(world.Segment{A: last, B: mission.Goal}, cfg.Margin, 0) {
		path = append(path, mission.Goal)
	}
	plans.put(key, path)
	return path, nil
}

// planKey identifies a plan by value: the seed, then the bits of the
// endpoints, the map's bounds and each obstacle. A caller that edits its
// map afterwards therefore misses rather than getting a stale path.
func planKey(mission Mission, seed int64) string {
	m := mission.Map
	fs := []float64{mission.Start.X, mission.Start.Y, mission.Goal.X, mission.Goal.Y,
		m.Bounds.Min.X, m.Bounds.Min.Y, m.Bounds.Max.X, m.Bounds.Max.Y}
	for _, o := range m.Obstacles {
		fs = append(fs, o.Min.X, o.Min.Y, o.Max.X, o.Max.Y)
	}
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 8*(1+len(fs))), uint64(seed))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return string(b)
}

// planMemoCap bounds the plan memo at about 160 KB. scenario.RunSuite
// runs its jobs scenario-major, so its working set is trials × worlds
// keys (20 for ten trials of the default suite); serve's demo loop, which
// plans a new seed per mission for as long as it runs, cycles through it.
const planMemoCap = 256

// planMemo maps planKey to a planned path, copying on the way in and out.
// Once full, each new path replaces the oldest. Two callers that miss the
// same key at once both plan; the paths are identical, so the second put
// keeps the first. Errors are not memoised.
type planMemo struct {
	mu    sync.Mutex
	paths map[string][]world.Point
	keys  [planMemoCap]string // a ring; once full, keys[next] is the oldest
	next  int
}

// plans is the memo planToGoal consults; RunSuite's workers share it.
var plans planMemo

func (m *planMemo) get(key string) ([]world.Point, bool) {
	m.mu.Lock()
	path, ok := m.paths[key]
	m.mu.Unlock()
	return slices.Clone(path), ok
}

func (m *planMemo) put(key string, path []world.Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.paths[key]; ok {
		return
	}
	if m.paths == nil {
		m.paths = make(map[string][]world.Point, planMemoCap)
	}
	if len(m.paths) == planMemoCap {
		delete(m.paths, m.keys[m.next])
	}
	m.paths[key] = slices.Clone(path)
	m.keys[m.next] = key
	m.next = (m.next + 1) % planMemoCap
}

// TamiyaSetup bundles the assembled Tamiya simulator for §V-D.
type TamiyaSetup struct {
	// Sim is the ready-to-run simulator.
	Sim *Simulator
	// Model is the bicycle model shared with the detector.
	Model *dynamics.Bicycle
	// Suite is the sensor suite in canonical order (IPS, LiDAR, IMU).
	Suite []sensors.Sensor
	// ProcessStd is the per-state process noise standard deviation.
	ProcessStd mat.Vec
	// X0 is the initial state.
	X0 mat.Vec
	// Path is the planned waypoint path.
	Path []world.Point
}

// TamiyaDt is the Tamiya control iteration period in seconds.
const TamiyaDt = 0.1

// TamiyaProcessStd returns the Tamiya per-state process noise levels.
func TamiyaProcessStd() mat.Vec { return mat.VecOf(5e-4, 5e-4, 1e-3, 2e-3) }

// NewTamiya plans the mission and assembles the RC car simulator for the
// given scenario and seed (§V-D configuration: IPS, LiDAR, IMU).
func NewTamiya(mission Mission, scenario *attack.Scenario, seed int64) (*TamiyaSetup, error) {
	rng := stat.NewRNG(seed)
	model := dynamics.NewTamiya(TamiyaDt)

	path, err := planToGoal(mission, seed, rng.Fork("planner"))
	if err != nil {
		return nil, fmt.Errorf("tamiya mission: %w", err)
	}
	path = plan.Resample(path, 0.15)
	tracker, err := control.NewBicycleTracker(model, path)
	if err != nil {
		return nil, fmt.Errorf("tamiya tracker: %w", err)
	}

	ips := sensors.NewIPS(4)
	lidar := sensors.NewLidar(mission.Map, 4)
	imu := sensors.NewIMU()
	workflows := []SensingWorkflow{
		NewBasicWorkflow(ips, rng),
		NewBasicWorkflow(lidar, rng),
		NewBasicWorkflow(imu, rng),
	}

	x0 := mat.VecOf(mission.Start.X, mission.Start.Y, mission.StartHeading, 0)
	simulator, err := New(model, tracker, workflows, scenario, TamiyaProcessStd(), x0, rng)
	if err != nil {
		return nil, err
	}
	simulator.EnableCollisionCheck(mission.Map, 0.0)
	return &TamiyaSetup{
		Sim:        simulator,
		Model:      model,
		Suite:      []sensors.Sensor{ips, lidar, imu},
		ProcessStd: TamiyaProcessStd(),
		X0:         x0,
		Path:       path,
	}, nil
}
