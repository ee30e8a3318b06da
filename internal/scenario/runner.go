package scenario

import (
	"fmt"
	"sync"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/metrics"
	"roboads/internal/robot"
	"roboads/internal/sim"
	"roboads/internal/world"
)

// RunConfig shapes suite execution.
type RunConfig struct {
	// Trials runs each scenario this many times with seeds
	// Seed, Seed+1, ...; 0 means 1.
	Trials int
	// Workers runs that many missions concurrently; 0/1 is sequential.
	// Each mission owns its simulator and detector, so results are
	// bit-for-bit identical for any value.
	Workers int
}

// TargetStats is one attacked target's outcome in a scenario,
// aggregated over trials. The target is a sensor workflow name or
// "actuator".
type TargetStats struct {
	// Onset is the attack-onset iteration (trial 0).
	Onset int `json:"onset"`
	// DelaySec is the mean onset-to-confirmation delay over detected
	// trials, −1 when no trial detected it.
	DelaySec float64 `json:"delaySec"`
	// AlarmFraction is the mean fraction of post-onset iterations with
	// this target confirmed.
	AlarmFraction float64 `json:"alarmFraction"`
	// Missed counts trials where the target was never confirmed
	// post-onset.
	Missed int `json:"missed"`
}

// Result is one scenario's outcome aggregated over its trials.
type Result struct {
	Name       string `json:"name"`
	Class      string `json:"class,omitempty"`
	Robot      string `json:"robot"`
	Trials     int    `json:"trials"`
	Iterations int    `json:"iterations"` // total across trials
	// SensorConfusion and ActuatorConfusion merge the per-iteration
	// identification-aware accounting across trials.
	SensorConfusion   metrics.Confusion `json:"sensorConfusion"`
	ActuatorConfusion metrics.Confusion `json:"actuatorConfusion"`
	// Targets maps each attacked sensor (and "actuator") to its stats.
	Targets map[string]TargetStats `json:"targets,omitempty"`
	// MeanDelaySec averages over all detected (target, trial) pairs;
	// −1 when none detected (or nothing was attacked).
	MeanDelaySec float64 `json:"meanDelaySec"`
	// Missed counts (target, trial) pairs never detected.
	Missed int `json:"missed"`

	delaySum float64 // detected delay seconds, for suite aggregation
	detected int
}

// SuiteResult is a full suite run.
type SuiteResult struct {
	Suite   string   `json:"suite"`
	Seed    int64    `json:"seed"`
	Trials  int      `json:"trials"`
	Results []Result `json:"results"`
	// Suite-level merges of every scenario's confusion counts.
	SensorConfusion   metrics.Confusion `json:"sensorConfusion"`
	ActuatorConfusion metrics.Confusion `json:"actuatorConfusion"`
	// AvgDelaySec averages over all detected (target, trial) pairs in
	// the suite; −1 when none.
	AvgDelaySec float64 `json:"avgDelaySec"`
	Missed      int     `json:"missed"`
}

// missionFor maps a DSL world name to its mission. The warehouse mission
// matches the long-route shape exercised by the simulator tests.
func missionFor(w string) sim.Mission {
	if w == "warehouse" {
		return sim.Mission{
			Map:          world.WarehouseArena(),
			Start:        world.Point{X: 0.6, Y: 0.6},
			StartHeading: 0.4,
			Goal:         world.Point{X: 7.2, Y: 5.4},
		}
	}
	return sim.LabMission()
}

// iterRec is the per-iteration evidence the stats need — a compact
// subset of eval.IterationTrace.
type iterRec struct {
	truth         attack.Truth
	condSensors   []string
	sensorAlarm   bool
	actuatorAlarm bool
	daValid       bool
}

// missionRun is one (scenario, trial) mission in flight.
type missionRun struct {
	compiled attack.Scenario
	step     func() (*sim.StepRecord, error)
	prof     robot.Profile
	det      *detect.Detector
	dt       float64
	cap      int
	trace    []iterRec
	finished bool
}

// newMissionSim builds the simulator of one trial, mirroring
// eval.RunKheperaScenario's construction exactly — the same mission and
// the same seed handling — and the robot profile its detectors are built
// from. No detector is attached yet.
func newMissionSim(sc *Scenario, seed int64) (*missionRun, error) {
	compiled, err := sc.Compile(1000)
	if err != nil {
		return nil, err
	}
	mr := &missionRun{compiled: compiled, cap: sc.Iterations}
	if mr.cap <= 0 {
		mr.cap = MaxIterations
	}
	mission := missionFor(sc.World)
	switch sc.Robot {
	case "khepera":
		setup, err := sim.NewKhepera(mission, &mr.compiled, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %q seed %d: %w", sc.Name, seed, err)
		}
		mr.prof = robot.Khepera(setup)
		mr.step = setup.Sim.Step
		mr.dt = sim.KheperaDt
	case "tamiya":
		setup, err := sim.NewTamiya(mission, &mr.compiled, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario %q seed %d: %w", sc.Name, seed, err)
		}
		mr.prof = robot.Tamiya(setup)
		mr.step = setup.Sim.Step
		mr.dt = sim.TamiyaDt
	default:
		return nil, fmt.Errorf("scenario %q: unknown robot %q", sc.Name, sc.Robot)
	}
	return mr, nil
}

// newMissionRun is newMissionSim plus the trial's detector:
// Profile.NewDetector with the default engine and §V-F decision
// parameters.
func newMissionRun(sc *Scenario, seed int64) (*missionRun, error) {
	mr, err := newMissionSim(sc, seed)
	if err != nil {
		return nil, err
	}
	mr.det, err = mr.prof.NewDetector(core.DefaultEngineConfig(), detect.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return mr, nil
}

// Frames steps one trial's simulator alone to the end of its mission (or
// the scenario's iteration cap) and returns the frames RunSuite would
// feed a detector, with the profile that detector is built from — for
// tests and benchmarks that replay one frame set through many detectors.
func Frames(sc *Scenario, seed int64) (robot.Profile, []*sim.StepRecord, error) {
	mr, err := newMissionSim(sc, seed)
	if err != nil {
		return robot.Profile{}, nil, err
	}
	var recs []*sim.StepRecord
	for len(recs) < mr.cap {
		rec, err := mr.step()
		if err != nil {
			break // mission over
		}
		recs = append(recs, rec)
		if rec.Done {
			break
		}
	}
	return mr.prof, recs, nil
}

// record appends one stepped iteration.
func (mr *missionRun) record(rec *sim.StepRecord, rep *detect.Report) {
	mr.trace = append(mr.trace, iterRec{
		truth:         rec.Truth,
		condSensors:   rep.Decision.Condition.Sensors,
		sensorAlarm:   rep.Decision.SensorAlarm,
		actuatorAlarm: rep.Decision.ActuatorAlarm,
		daValid:       rep.Engine.Result.DaValid,
	})
	if rec.Done || len(mr.trace) >= mr.cap {
		mr.finished = true
	}
}

// run drives the mission to completion — the exact loop of
// eval.RunKheperaScenario.
func (mr *missionRun) run() error {
	for !mr.finished {
		rec, err := mr.step()
		if err != nil {
			break // mission over
		}
		rep, err := mr.det.Step(rec.UPlanned, rec.Readings)
		if err != nil {
			return fmt.Errorf("scenario %q k=%d: %w", mr.compiled.Name, rec.K, err)
		}
		mr.record(rec, rep)
	}
	return nil
}

// trialStats is one trial's measurements.
type trialStats struct {
	iterations int
	sensor     metrics.Confusion
	actuator   metrics.Confusion
	onsets     map[string]int // target → onset iteration (-1: never active)
	delays     map[string]metrics.Delay
	fractions  map[string]float64
	dt         float64
}

func truthEqual(truth attack.Truth, detected []string) bool {
	if len(truth.CorruptedSensors) != len(detected) {
		return false
	}
	for _, s := range detected {
		if !truth.CorruptedSensors[s] {
			return false
		}
	}
	return true
}

// stats reduces a finished mission to its measurements, replicating
// eval.Run's identification-aware definitions exactly: SensorConfusion,
// ActuatorConfusion (skipping unobservable iterations), SensorDelays
// (first window per target), ActuatorDelay, and the post-onset alarm
// fraction of the §V-H sweep.
func (mr *missionRun) stats() trialStats {
	ts := trialStats{
		iterations: len(mr.trace),
		onsets:     make(map[string]int),
		delays:     make(map[string]metrics.Delay),
		fractions:  make(map[string]float64),
		dt:         mr.dt,
	}
	for _, tr := range mr.trace {
		truthPos := len(tr.truth.CorruptedSensors) > 0
		detPos := tr.sensorAlarm
		correct := detPos && truthEqual(tr.truth, tr.condSensors)
		if detPos && len(tr.condSensors) == 0 {
			detPos = false
		}
		ts.sensor.Add(truthPos, detPos, correct)
		if tr.daValid {
			ts.actuator.Add(tr.truth.ActuatorCorrupted, tr.actuatorAlarm, true)
		}
	}
	for _, a := range mr.compiled.SensorAttacks {
		target := a.Target()
		if _, seen := ts.onsets[target]; seen {
			continue // first window only
		}
		ts.onsets[target] = -1
		for k := range mr.trace {
			if a.Active(k) {
				ts.onsets[target] = k
				break
			}
		}
	}
	if len(mr.compiled.ActuatorAttacks) > 0 {
		onset := -1
		for _, a := range mr.compiled.ActuatorAttacks {
			for k := range mr.trace {
				if a.Active(k) {
					if onset < 0 || k < onset {
						onset = k
					}
					break
				}
			}
		}
		ts.onsets["actuator"] = onset
	}
	for target, onset := range ts.onsets {
		if onset < 0 {
			ts.delays[target] = metrics.Delay{Onset: -1, Detected: -1}
			ts.fractions[target] = 0
			continue
		}
		flags := make([]bool, len(mr.trace))
		hits := 0
		for i, tr := range mr.trace {
			if target == "actuator" {
				flags[i] = tr.actuatorAlarm
			} else {
				for _, s := range tr.condSensors {
					if s == target {
						flags[i] = true
					}
				}
			}
			if i >= onset && flags[i] {
				hits++
			}
		}
		ts.delays[target] = metrics.FirstDetection(onset, flags)
		if total := len(mr.trace) - onset; total > 0 {
			ts.fractions[target] = float64(hits) / float64(total)
		}
	}
	return ts
}

// aggregate folds one scenario's trials into a Result.
func aggregate(sc *Scenario, trials []trialStats) Result {
	r := Result{
		Name:         sc.Name,
		Class:        sc.Class,
		Robot:        sc.Robot,
		Trials:       len(trials),
		Targets:      make(map[string]TargetStats),
		MeanDelaySec: -1,
	}
	for _, ts := range trials {
		r.Iterations += ts.iterations
		r.SensorConfusion.Merge(ts.sensor)
		r.ActuatorConfusion.Merge(ts.actuator)
	}
	if len(trials) == 0 {
		return r
	}
	for target := range trials[0].onsets {
		stats := TargetStats{Onset: trials[0].onsets[target], DelaySec: -1}
		var delays []metrics.Delay
		for _, ts := range trials {
			delays = append(delays, ts.delays[target])
			stats.AlarmFraction += ts.fractions[target]
			if ts.delays[target].Detected < 0 {
				stats.Missed++
			}
		}
		stats.AlarmFraction /= float64(len(trials))
		stats.DelaySec = metrics.MeanDelaySeconds(delays, trials[0].dt)
		for _, d := range delays {
			if d.Detected >= 0 {
				r.delaySum += d.Seconds(trials[0].dt)
				r.detected++
			}
		}
		r.Missed += stats.Missed
		r.Targets[target] = stats
	}
	if r.detected > 0 {
		r.MeanDelaySec = r.delaySum / float64(r.detected)
	}
	return r
}

// RunSuite executes every scenario × trial of the suite and aggregates
// the leaderboard measurements. Results are bit-for-bit reproducible
// from {suite, config trials} and independent of Workers.
func RunSuite(s *Suite, cfg RunConfig) (*SuiteResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	trials := max(1, cfg.Trials)
	workers := max(1, cfg.Workers)

	// Workers drain the missions concurrently. Each mission owns its
	// simulator and detector, so the only shared state is the indexed
	// stats matrix.
	stats := make([][]trialStats, len(s.Scenarios))
	errs := make([][]error, len(s.Scenarios))
	for i := range stats {
		stats[i] = make([]trialStats, trials)
		errs[i] = make([]error, trials)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for si := range s.Scenarios {
		for t := 0; t < trials; t++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(si, t int) {
				defer wg.Done()
				defer func() { <-sem }()
				mr, err := newMissionRun(&s.Scenarios[si], s.Seed+int64(t))
				if err == nil {
					err = mr.run()
				}
				if err != nil {
					errs[si][t] = err
					return
				}
				stats[si][t] = mr.stats()
			}(si, t)
		}
	}
	wg.Wait()
	for _, row := range errs {
		for _, err := range row {
			if err != nil {
				return nil, err
			}
		}
	}

	out := &SuiteResult{Suite: s.Name, Seed: s.Seed, Trials: trials, AvgDelaySec: -1}
	var delaySum float64
	detected := 0
	for si := range s.Scenarios {
		r := aggregate(&s.Scenarios[si], stats[si])
		out.SensorConfusion.Merge(r.SensorConfusion)
		out.ActuatorConfusion.Merge(r.ActuatorConfusion)
		delaySum += r.delaySum
		detected += r.detected
		out.Missed += r.Missed
		out.Results = append(out.Results, r)
	}
	if detected > 0 {
		out.AvgDelaySec = delaySum / float64(detected)
	}
	return out, nil
}

// RunOne executes a single scenario with the given base seed and
// returns its aggregated Result — the entry point the §V-H evasive
// sweep drives.
func RunOne(sc Scenario, seed int64, cfg RunConfig) (*Result, error) {
	suite := &Suite{Version: Version, Name: "one", Seed: seed, Scenarios: []Scenario{sc}}
	res, err := RunSuite(suite, cfg)
	if err != nil {
		return nil, err
	}
	return &res.Results[0], nil
}
