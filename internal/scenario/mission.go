package scenario

import (
	"fmt"
	"slices"
	"sort"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/metrics"
	"roboads/internal/robot"
	"roboads/internal/sim"
	"roboads/internal/world"
)

// IterationTrace is what the accounting reads of one control iteration.
// It also suffices to re-evaluate any decision-parameter setting offline:
// the Fig. 7 sweeps re-threshold and re-window these traces without
// re-running the estimator, which is exact because the engine does not
// depend on the decision parameters.
type IterationTrace struct {
	// K is the control iteration.
	K int
	// Truth is the ground-truth condition.
	Truth attack.Truth
	// Decision is the online decision under the run's configuration.
	Decision *detect.Decision
	// SensorDof is the aggregate sensor statistic's degrees of freedom.
	SensorDof int
	// ActuatorDof is the actuator statistic's degrees of freedom.
	ActuatorDof int
	// DaValid reports whether the actuator anomaly was estimable this
	// iteration (false e.g. at standstill for the bicycle, where the
	// detector abstains from the actuator decision).
	DaValid bool
}

// Run is one complete mission under one scenario with a detector attached.
type Run struct {
	// Scenario is the compiled attack/failure scenario.
	Scenario attack.Scenario
	// Seed drove every random stream.
	Seed int64
	// Dt is the control period.
	Dt float64
	// Trace holds one entry per control iteration.
	Trace []IterationTrace
}

// DefaultDetector builds a profile's standard RoboADS detector: the
// default engine and the §V-F decision parameters.
func DefaultDetector(p robot.Profile) (*detect.Detector, error) {
	return p.NewDetector(core.DefaultEngineConfig(), detect.DefaultConfig())
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

// newSim builds one mission's simulator, with the profile of the robot it
// flies, and returns its step function. No detector is attached.
func newSim(robotName, worldName string, compiled *attack.Scenario, seed int64) (robot.Profile, func() (*sim.StepRecord, error), error) {
	switch robotName {
	case "khepera":
		setup, err := sim.NewKhepera(missionFor(worldName), compiled, seed)
		if err != nil {
			return robot.Profile{}, nil, fmt.Errorf("scenario %q seed %d: %w", compiled.Name, seed, err)
		}
		return robot.Khepera(setup), setup.Sim.Step, nil
	case "tamiya":
		setup, err := sim.NewTamiya(missionFor(worldName), compiled, seed)
		if err != nil {
			return robot.Profile{}, nil, fmt.Errorf("scenario %q seed %d: %w", compiled.Name, seed, err)
		}
		return robot.Tamiya(setup), setup.Sim.Step, nil
	}
	return robot.Profile{}, nil, fmt.Errorf("scenario %q: unknown robot %q", compiled.Name, robotName)
}

// RunMission flies one mission: the named robot in the named world under
// the compiled scenario, its simulator stepped into the detector build
// returns until the mission is over or maxIter iterations have run. Every
// evaluation result, from one Table II row to the suite leaderboard, is a
// reduction of the Run it returns.
func RunMission(robotName, worldName string, compiled attack.Scenario, seed int64, maxIter int,
	build func(robot.Profile) (*detect.Detector, error)) (*Run, error) {
	run := &Run{Scenario: compiled, Seed: seed}
	prof, step, err := newSim(robotName, worldName, &run.Scenario, seed)
	if err != nil {
		return nil, err
	}
	det, err := build(prof)
	if err != nil {
		return nil, err
	}
	run.Dt = prof.Dt
	for len(run.Trace) < maxIter {
		rec, err := step()
		if err != nil {
			break // mission over
		}
		rep, err := det.Step(rec.UPlanned, rec.Readings)
		if err != nil {
			return nil, fmt.Errorf("scenario %q seed %d k=%d: %w", compiled.Name, seed, rec.K, err)
		}
		run.Trace = append(run.Trace, IterationTrace{
			K:           rec.K,
			Truth:       rec.Truth,
			Decision:    rep.Decision,
			SensorDof:   rep.Engine.Result.Ds.Len(),
			ActuatorDof: rep.Engine.Result.Da.Len(),
			DaValid:     rep.Engine.Result.DaValid,
		})
		if rec.Done {
			break
		}
	}
	return run, nil
}

// truthSensorsEqual reports whether the detected sensor set matches the
// ground-truth corrupted set exactly.
func truthSensorsEqual(truth attack.Truth, detected []string) bool {
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

// SensorConfusion accumulates the identification-aware sensor confusion
// over the run per the paper's definitions: an alarm is correct only when
// the confirmed sensors are exactly the corrupted ones.
func (r *Run) SensorConfusion() metrics.Confusion {
	var c metrics.Confusion
	for _, tr := range r.Trace {
		truthPos := len(tr.Truth.CorruptedSensors) > 0
		detPos := tr.Decision.SensorAlarm
		correct := detPos && truthSensorsEqual(tr.Truth, tr.Decision.Condition.Sensors)
		// An alarm that confirms no sensor identifies "nothing": treat
		// it as positive only if some sensor is actually confirmed.
		if detPos && len(tr.Decision.Condition.Sensors) == 0 {
			detPos = false
		}
		c.Add(truthPos, detPos, correct)
	}
	return c
}

// ActuatorConfusion accumulates the actuator confusion over the run.
// Iterations where the actuator anomaly was unobservable (the detector
// abstains, e.g. a bicycle at standstill) are excluded: no decision was
// rendered.
func (r *Run) ActuatorConfusion() metrics.Confusion {
	var c metrics.Confusion
	for _, tr := range r.Trace {
		if tr.DaValid {
			c.Add(tr.Truth.ActuatorCorrupted, tr.Decision.ActuatorAlarm, true)
		}
	}
	return c
}

// Target is one attacked target's outcome in a run.
type Target struct {
	// Name is the sensor workflow, or "actuator".
	Name string
	// Onset is the iteration the target's attack first becomes active, −1
	// when it never does within the run.
	Onset int
	// Delay runs from Onset to the first iteration the detector confirms
	// the target; Detected is −1 when it never does.
	Delay metrics.Delay
	// AlarmFraction is the fraction of iterations from Onset on with the
	// target confirmed (0 when Onset is −1).
	AlarmFraction float64
}

// Targets scores every attacked target of the run: each attacked sensor,
// by the first of its attacks in the scenario (later windows on the same
// sensor do not count), in name order; then the actuator, by whichever of
// its attacks becomes active first. The fixed order makes every sum over
// targets repeat to the last bit.
func (r *Run) Targets() []Target {
	var out []Target
	for _, a := range r.Scenario.SensorAttacks {
		if !slices.ContainsFunc(out, func(t Target) bool { return t.Name == a.Target() }) {
			out = append(out, r.target(a.Target(), a.Active))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(r.Scenario.ActuatorAttacks) > 0 {
		out = append(out, r.target("actuator", func(k int) bool {
			return slices.ContainsFunc(r.Scenario.ActuatorAttacks, func(a attack.ActuatorAttack) bool { return a.Active(k) })
		}))
	}
	return out
}

// target scores one target whose attack is active at the iterations
// active reports.
func (r *Run) target(name string, active func(k int) bool) Target {
	t := Target{Name: name, Onset: -1, Delay: metrics.Delay{Onset: -1, Detected: -1}}
	for k := range r.Trace {
		if active(k) {
			t.Onset = k
			break
		}
	}
	if t.Onset < 0 {
		return t
	}
	flags := make([]bool, len(r.Trace))
	hits := 0
	for i, tr := range r.Trace {
		if name == "actuator" {
			flags[i] = tr.Decision.ActuatorAlarm
		} else {
			flags[i] = slices.Contains(tr.Decision.Condition.Sensors, name)
		}
		if i >= t.Onset && flags[i] {
			hits++
		}
	}
	t.Delay = metrics.FirstDetection(t.Onset, flags)
	t.AlarmFraction = float64(hits) / float64(len(r.Trace)-t.Onset)
	return t
}

// SensorCodeSequence compresses the run's confirmed sensor conditions
// into Table II transition notation (minRun iterations to count).
func (r *Run) SensorCodeSequence(minRun int) []string {
	codes := make([]string, len(r.Trace))
	for i, tr := range r.Trace {
		codes[i] = detect.KheperaSensorCode(tr.Decision.Condition)
	}
	return metrics.ConditionSequence(codes, minRun)
}

// ActuatorCodeSequence compresses the run's actuator conditions into
// A0/A1 transition notation.
func (r *Run) ActuatorCodeSequence(minRun int) []string {
	codes := make([]string, len(r.Trace))
	for i, tr := range r.Trace {
		codes[i] = detect.ActuatorCode(tr.Decision.Condition)
	}
	return metrics.ConditionSequence(codes, minRun)
}
