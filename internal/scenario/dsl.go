// Package scenario implements the adversarial scenario engine of ROADMAP
// item 4: a versioned JSON DSL composing worlds × robot profiles ×
// attack schedules, a deterministic seeded generator/fuzzer sweeping the
// DSL's parameter space, and a runner executing suites through the real
// robot.Profile detector path into BENCH_quality.json leaderboard records.
//
// RunMission is the one mission loop of the tree — it steps a simulator
// into a detector and returns the trace as a Run — and Run's methods are
// the one accounting of a trace. The suite runner and every table and
// figure of internal/eval are reductions of Runs.
//
// The DSL is deliberately flat: one Suite holds Scenarios, each naming a
// robot, a world, and a list of Attacks whose Kind selects an
// internal/attack primitive and whose Envelope shapes onset, duration,
// ramp, and intermittency. Everything is plain JSON data, so suites are
// diffable, committable, and fuzzable; Compile turns a Scenario into the
// attack.Scenario the simulator already understands.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"roboads/internal/attack"
	"roboads/internal/mat"
)

// Version is the current scenario DSL version.
const Version = 1

// MaxIterations is the default per-mission iteration cap: attacks that
// divert the robot can prevent mission completion, so runs are clipped.
const MaxIterations = 700

// Suite is one scenario-suite document.
type Suite struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Seed is the base simulation seed; trial t of every scenario runs
	// with Seed+t. The generator also derives its sweep draws from it.
	Seed      int64      `json:"seed"`
	Scenarios []Scenario `json:"scenarios"`
}

// Scenario is one mission under a composed attack schedule.
type Scenario struct {
	Name string `json:"name"`
	// Class is the attacker-taxonomy tag: "clean", "table2", "tamiya",
	// "stealthy", "coordinated", "intermittent", "ramp", "environment",
	// or "fuzz". Informational — it labels leaderboard rows.
	Class string `json:"class,omitempty"`
	// Robot selects the platform profile: "khepera" or "tamiya".
	Robot string `json:"robot"`
	// World selects the arena: "lab" (default) or "warehouse".
	World string `json:"world,omitempty"`
	// Iterations caps the mission; 0 means MaxIterations.
	Iterations int      `json:"iterations,omitempty"`
	Attacks    []Attack `json:"attacks,omitempty"`
}

// Envelope shapes one attack over time (attack.Envelope in DSL form).
type Envelope struct {
	// Start is the onset iteration.
	Start int `json:"start"`
	// End bounds the activation half-open; 0 means forever.
	End int `json:"end,omitempty"`
	// Ramp linearly grows the magnitude over this many iterations.
	Ramp int `json:"ramp,omitempty"`
	// Period > 1 pulses the attack with the given Duty fraction on.
	Period int     `json:"period,omitempty"`
	Duty   float64 `json:"duty,omitempty"`
}

// Attack is one corruption in a scenario's schedule. Kind selects the
// primitive; the other fields are kind-specific parameters.
type Attack struct {
	// Kind is one of: bias, ramp-bias, zero, override, encoder-ticks,
	// occlusion (sensor side); actuator-bias, actuator-scale,
	// actuator-override, wheel-slip (actuator side).
	Kind string `json:"kind"`
	// Sensor targets a sensing workflow (sensor kinds only).
	Sensor string `json:"sensor,omitempty"`
	// Offset is the bias/ramp-rate vector (bias, ramp-bias,
	// actuator-bias).
	Offset []float64 `json:"offset,omitempty"`
	// Index and Value parameterize override/actuator-override; Index
	// also selects the actuator-scale component.
	Index int     `json:"index,omitempty"`
	Value float64 `json:"value,omitempty"`
	// Wheel, Ticks, PerIteration parameterize encoder-ticks.
	Wheel        int     `json:"wheel,omitempty"`
	Ticks        float64 `json:"ticks,omitempty"`
	PerIteration bool    `json:"perIteration,omitempty"`
	// Factor parameterizes actuator-scale.
	Factor float64 `json:"factor,omitempty"`
	// Distance and Beams parameterize occlusion.
	Distance float64 `json:"distance,omitempty"`
	Beams    []int   `json:"beams,omitempty"`
	// Slip and Wheels parameterize wheel-slip.
	Slip   float64 `json:"slip,omitempty"`
	Wheels []int   `json:"wheels,omitempty"`
	// Via is the originating channel: "physical", "cyber", or
	// "environment". Defaults per kind (occlusion/wheel-slip →
	// environment, others → cyber).
	Via      string   `json:"via,omitempty"`
	Envelope Envelope `json:"envelope"`
}

// sensorKind reports whether the kind corrupts a sensing workflow.
func sensorKind(kind string) bool {
	switch kind {
	case "bias", "ramp-bias", "zero", "override", "encoder-ticks", "occlusion":
		return true
	}
	return false
}

// shapedKind reports whether the kind supports ramp/period envelopes.
func shapedKind(kind string) bool {
	switch kind {
	case "bias", "actuator-bias", "wheel-slip":
		return true
	case "occlusion":
		return true // period only; ramp rejected in validate
	}
	return false
}

// robotSensors lists the valid sensor targets per platform, in suite
// order.
var robotSensors = map[string][]string{
	"khepera": {"ips", "wheel-encoder", "lidar"},
	"tamiya":  {"ips", "lidar", "imu"},
}

// Decode parses and validates a DSL document.
func Decode(data []byte) (*Suite, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the suite against the DSL's invariants.
func (s *Suite) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: unsupported DSL version %d (want %d)", s.Version, Version)
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("scenario: suite %q has no scenarios", s.Name)
	}
	seen := make(map[string]bool, len(s.Scenarios))
	for i := range s.Scenarios {
		sc := &s.Scenarios[i]
		if sc.Name == "" {
			return fmt.Errorf("scenario: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("scenario: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	return nil
}

func (sc *Scenario) validate() error {
	sensorsFor, ok := robotSensors[sc.Robot]
	if !ok {
		return fmt.Errorf("unknown robot %q (want khepera or tamiya)", sc.Robot)
	}
	switch sc.World {
	case "", "lab", "warehouse":
	default:
		return fmt.Errorf("unknown world %q (want lab or warehouse)", sc.World)
	}
	if sc.Iterations < 0 || sc.Iterations > 100_000 {
		return fmt.Errorf("iterations %d out of range [0, 100000]", sc.Iterations)
	}
	for i := range sc.Attacks {
		if err := sc.Attacks[i].validate(sc.Robot, sensorsFor); err != nil {
			return fmt.Errorf("attack %d (%s): %w", i, sc.Attacks[i].Kind, err)
		}
	}
	return nil
}

func (a *Attack) validate(robotName string, sensorsFor []string) error {
	e := a.Envelope
	if e.Start < 0 {
		return fmt.Errorf("envelope start %d < 0", e.Start)
	}
	if e.End != 0 && e.End <= e.Start {
		return fmt.Errorf("envelope end %d ≤ start %d", e.End, e.Start)
	}
	if e.Ramp < 0 || e.Period < 0 {
		return fmt.Errorf("negative ramp/period")
	}
	if e.Period > 1 && (e.Duty <= 0 || e.Duty > 1) {
		return fmt.Errorf("duty %v out of (0, 1] with period %d", e.Duty, e.Period)
	}
	if e.Period <= 1 && e.Duty != 0 {
		return fmt.Errorf("duty without period")
	}
	if (e.Ramp > 1 || e.Period > 1) && !shapedKind(a.Kind) {
		return fmt.Errorf("kind does not support ramp/period envelopes")
	}
	if a.Kind == "occlusion" && e.Ramp > 1 {
		return fmt.Errorf("occlusion does not support ramp")
	}
	switch a.Via {
	case "", "physical", "cyber", "environment":
	default:
		return fmt.Errorf("unknown channel %q", a.Via)
	}
	for _, v := range a.Offset {
		if !finite(v) {
			return fmt.Errorf("non-finite offset component")
		}
	}
	for _, v := range []float64{a.Value, a.Ticks, a.Factor, a.Distance, a.Slip} {
		if !finite(v) {
			return fmt.Errorf("non-finite parameter")
		}
	}
	if sensorKind(a.Kind) {
		target := a.Sensor
		if a.Kind == "encoder-ticks" {
			target = "wheel-encoder"
		}
		valid := false
		for _, s := range sensorsFor {
			if s == target {
				valid = true
			}
		}
		if !valid {
			return fmt.Errorf("sensor %q not in %s suite %v", target, robotName, sensorsFor)
		}
	}
	switch a.Kind {
	case "bias", "ramp-bias":
		if len(a.Offset) == 0 {
			return fmt.Errorf("missing offset")
		}
	case "zero":
	case "override":
		if a.Index < 0 || a.Index > 16 {
			return fmt.Errorf("index %d out of range", a.Index)
		}
	case "encoder-ticks":
		if a.Wheel != 0 && a.Wheel != 1 {
			return fmt.Errorf("wheel %d (want 0 or 1)", a.Wheel)
		}
	case "occlusion":
		if a.Distance <= 0 {
			return fmt.Errorf("distance %v ≤ 0", a.Distance)
		}
		if len(a.Beams) == 0 {
			return fmt.Errorf("missing beams")
		}
		for _, b := range a.Beams {
			if b < 0 || b > 16 {
				return fmt.Errorf("beam %d out of range", b)
			}
		}
	case "actuator-bias":
		if len(a.Offset) == 0 {
			return fmt.Errorf("missing offset")
		}
	case "actuator-scale":
		if a.Index < 0 || a.Index > 16 {
			return fmt.Errorf("index %d out of range", a.Index)
		}
	case "actuator-override":
		if a.Index < 0 || a.Index > 16 {
			return fmt.Errorf("index %d out of range", a.Index)
		}
	case "wheel-slip":
		if a.Slip < 0 || a.Slip > 1 {
			return fmt.Errorf("slip %v out of [0, 1]", a.Slip)
		}
		if len(a.Wheels) == 0 {
			return fmt.Errorf("missing wheels")
		}
		for _, w := range a.Wheels {
			if w < 0 || w > 16 {
				return fmt.Errorf("wheel index %d out of range", w)
			}
		}
	default:
		return fmt.Errorf("unknown kind")
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// channelOf maps the DSL channel string to the attack.Channel, applying
// the per-kind default.
func channelOf(via, kind string) attack.Channel {
	switch via {
	case "physical":
		return attack.Physical
	case "cyber":
		return attack.Cyber
	case "environment":
		return attack.Environment
	}
	switch kind {
	case "occlusion", "wheel-slip":
		return attack.Environment
	}
	return attack.Cyber
}

func channelName(c attack.Channel) string { return c.String() }

// Compile lowers the scenario to the attack.Scenario the simulator
// executes. A plain window (no ramp, no period) compiles to the same
// primitive Table II uses, so DSL-driven runs are bit-for-bit the
// hardcoded ones.
func (sc *Scenario) Compile(id int) (attack.Scenario, error) {
	out := attack.Scenario{ID: id, Name: sc.Name, Description: sc.Class}
	for i := range sc.Attacks {
		a := &sc.Attacks[i]
		win := attack.Window{Start: a.Envelope.Start, End: a.Envelope.End}
		env := attack.Envelope{Win: win, Ramp: a.Envelope.Ramp, Period: a.Envelope.Period, Duty: a.Envelope.Duty}
		via := channelOf(a.Via, a.Kind)
		switch a.Kind {
		case "bias":
			out.SensorAttacks = append(out.SensorAttacks,
				&attack.Bias{Sensor: a.Sensor, Offset: mat.Vec(a.Offset).Clone(), Env: env, Via: via})
		case "ramp-bias":
			out.SensorAttacks = append(out.SensorAttacks,
				&attack.RampBias{Sensor: a.Sensor, RatePerIteration: mat.Vec(a.Offset).Clone(), Win: win, Via: via})
		case "zero":
			out.SensorAttacks = append(out.SensorAttacks,
				&attack.Zero{Sensor: a.Sensor, Win: win, Via: via})
		case "override":
			out.SensorAttacks = append(out.SensorAttacks,
				&attack.Override{Sensor: a.Sensor, Index: a.Index, Value: a.Value, Win: win, Via: via})
		case "encoder-ticks":
			out.SensorAttacks = append(out.SensorAttacks,
				&attack.EncoderTicks{Wheel: a.Wheel, Ticks: a.Ticks, PerIteration: a.PerIteration, Win: win, Via: via})
		case "occlusion":
			out.SensorAttacks = append(out.SensorAttacks,
				&attack.Occlusion{Sensor: a.Sensor, Beams: append([]int(nil), a.Beams...), Distance: a.Distance, Env: env, Via: via})
		case "actuator-bias":
			out.ActuatorAttacks = append(out.ActuatorAttacks,
				&attack.ActuatorBias{Offset: mat.Vec(a.Offset).Clone(), Env: env, Via: via})
		case "actuator-scale":
			out.ActuatorAttacks = append(out.ActuatorAttacks,
				&attack.ActuatorScale{Index: a.Index, Factor: a.Factor, Win: win, Via: via})
		case "actuator-override":
			out.ActuatorAttacks = append(out.ActuatorAttacks,
				&attack.ActuatorOverride{Index: a.Index, Value: a.Value, Win: win, Via: via})
		case "wheel-slip":
			out.ActuatorAttacks = append(out.ActuatorAttacks,
				&attack.WheelSlip{Slip: a.Slip, Wheels: append([]int(nil), a.Wheels...), Env: env, Via: via})
		default:
			return attack.Scenario{}, fmt.Errorf("scenario %q: unknown attack kind %q", sc.Name, a.Kind)
		}
	}
	return out, nil
}

// FromScenario lifts a hardcoded attack.Scenario (Table II, Tamiya §V-D)
// into the DSL, so generated suites stay in lockstep with the canonical
// scenario definitions instead of duplicating their magnitudes.
func FromScenario(s attack.Scenario, robotName, class string) (Scenario, error) {
	out := Scenario{Name: s.Name, Class: class, Robot: robotName}
	for _, a := range s.SensorAttacks {
		var d Attack
		switch t := a.(type) {
		case *attack.Bias:
			d = Attack{Kind: "bias", Sensor: t.Sensor, Offset: t.Offset, Envelope: envelopeOf(t.Env), Via: channelName(t.Via)}
		case *attack.RampBias:
			d = Attack{Kind: "ramp-bias", Sensor: t.Sensor, Offset: t.RatePerIteration,
				Envelope: Envelope{Start: t.Win.Start, End: t.Win.End}, Via: channelName(t.Via)}
		case *attack.Zero:
			d = Attack{Kind: "zero", Sensor: t.Sensor,
				Envelope: Envelope{Start: t.Win.Start, End: t.Win.End}, Via: channelName(t.Via)}
		case *attack.Override:
			d = Attack{Kind: "override", Sensor: t.Sensor, Index: t.Index, Value: t.Value,
				Envelope: Envelope{Start: t.Win.Start, End: t.Win.End}, Via: channelName(t.Via)}
		case *attack.EncoderTicks:
			d = Attack{Kind: "encoder-ticks", Wheel: t.Wheel, Ticks: t.Ticks, PerIteration: t.PerIteration,
				Envelope: Envelope{Start: t.Win.Start, End: t.Win.End}, Via: channelName(t.Via)}
		case *attack.Occlusion:
			d = Attack{Kind: "occlusion", Sensor: t.Sensor, Beams: t.Beams, Distance: t.Distance,
				Envelope: Envelope{Start: t.Env.Win.Start, End: t.Env.Win.End, Period: t.Env.Period, Duty: t.Env.Duty},
				Via:      channelName(t.Via)}
		default:
			return Scenario{}, fmt.Errorf("scenario %q: no DSL form for sensor attack %T", s.Name, a)
		}
		out.Attacks = append(out.Attacks, d)
	}
	for _, a := range s.ActuatorAttacks {
		var d Attack
		switch t := a.(type) {
		case *attack.ActuatorBias:
			d = Attack{Kind: "actuator-bias", Offset: t.Offset, Envelope: envelopeOf(t.Env), Via: channelName(t.Via)}
		case *attack.ActuatorScale:
			d = Attack{Kind: "actuator-scale", Index: t.Index, Factor: t.Factor,
				Envelope: Envelope{Start: t.Win.Start, End: t.Win.End}, Via: channelName(t.Via)}
		case *attack.ActuatorOverride:
			d = Attack{Kind: "actuator-override", Index: t.Index, Value: t.Value,
				Envelope: Envelope{Start: t.Win.Start, End: t.Win.End}, Via: channelName(t.Via)}
		case *attack.WheelSlip:
			d = Attack{Kind: "wheel-slip", Slip: t.Slip, Wheels: t.Wheels, Envelope: envelopeOf(t.Env), Via: channelName(t.Via)}
		default:
			return Scenario{}, fmt.Errorf("scenario %q: no DSL form for actuator attack %T", s.Name, a)
		}
		out.Attacks = append(out.Attacks, d)
	}
	return out, nil
}

// envelopeOf lifts a compiled envelope back into the DSL.
func envelopeOf(e attack.Envelope) Envelope {
	return Envelope{Start: e.Win.Start, End: e.Win.End, Ramp: e.Ramp, Period: e.Period, Duty: e.Duty}
}

// Encode renders the suite as the canonical indented JSON document.
func (s *Suite) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Hash fingerprints the canonical encoding — the leaderboard Config's
// suite identity.
func (s *Suite) Hash() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	var h uint64 = 14695981039346656037 // FNV-1a 64
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h), nil
}
